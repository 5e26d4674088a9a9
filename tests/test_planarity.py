"""Embedding, face traversal, and the two independent planarity routes."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from crosscolor.generate import random_plane_triangulation
from crosscolor.graphs import Graph
from crosscolor.planarity import (
    check_euler,
    directed_face_index,
    face_walks,
    try_embedding,
)
from planarity_oracle import (
    NonplanarGraphError,
    compute_embedding,
    is_planar,
    kuratowski_witness,
    planar_by_minors,
)

K5 = Graph.from_edges(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
K33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])


def test_k4_has_four_faces():
    g = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    rot = compute_embedding(g)
    assert len(face_walks(rot)) == 4  # 4 - 6 + F = 2


def test_c6_two_hexagonal_faces():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    walks = face_walks(compute_embedding(g))
    assert sorted(len(w) for w in walks) == [6, 6]


def test_k5_refused():
    with pytest.raises(NonplanarGraphError):
        compute_embedding(K5)
    w = kuratowski_witness(K5)
    assert w.kind == "K5" and len(w.branch_vertices) == 5


def test_k33_witness():
    w = kuratowski_witness(K33)
    assert w.kind == "K33"
    assert len(w.branch_vertices) == 6
    assert not is_planar(Graph.from_edges(6, list(w.edges)))


def test_witness_inside_larger_graph():
    # K33 plus a pendant path; extraction should shed the padding
    edges = list(K33.edges) + [(5, 6), (6, 7)]
    w = kuratowski_witness(Graph.from_edges(8, edges))
    assert w.kind == "K33"
    assert set().union(*({a, b} for a, b in w.edges)) <= set(range(6))


def test_disconnected_and_trees_embed():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5)])
    rot = compute_embedding(g)
    check_euler(g, rot)  # per-component Euler relation


def test_directed_face_index_total():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    walks = face_walks(compute_embedding(g))
    assert sorted(len(w) for w in walks) == [3, 3, 4]
    idx = directed_face_index(walks)
    assert len(idx) == 2 * g.m


@given(st.integers(3, 25), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_triangulations_embed_with_euler(n, seed):
    edges, faces = random_plane_triangulation(n, random.Random(seed))
    g = Graph.from_edges(n, edges)
    rot = compute_embedding(g)
    check_euler(g, rot)
    walks = face_walks(rot)
    assert len(walks) == len(faces)
    assert sum(len(w) for w in walks) == 2 * g.m
    assert all(len(w) == 3 for w in walks)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_subgraphs_of_triangulations_stay_planar(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 20)
    edges, _ = random_plane_triangulation(n, rng)
    kept = [e for e in edges if rng.random() < 0.7]
    g = Graph.from_edges(n, kept)
    rot = compute_embedding(g)
    assert sum(len(w) for w in face_walks(rot)) == 2 * g.m


def test_embedding_agrees_with_minor_oracle():
    # two fully independent planarity routes, 200 random graphs
    rng = random.Random(1729)
    planar_seen = nonplanar_seen = 0
    for _ in range(200):
        n = rng.randint(4, 10)
        p = rng.choice([0.25, 0.35, 0.5])
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = Graph.from_edges(n, edges)
        fast = try_embedding(g) is not None
        slow = planar_by_minors(g)
        assert fast == slow, f"n={n} edges={edges}"
        planar_seen += fast
        nonplanar_seen += not fast
    assert planar_seen and nonplanar_seen  # the sample exercised both answers


@st.composite
def glued_graphs(draw):
    """Graphs of up to about 40 vertices glued from up to four pieces.

    A piece is a thinned plane triangulation, a sparse random graph or a
    dense one (nonplanar from six vertices on, mostly).  Each piece after
    the first shares a cut vertex with the earlier ones, hangs off them by
    a bridge, or stays apart; isolated vertices are added at the end and
    the labels shuffled, so DFS orders vary.
    """
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = 0
    edges: list[tuple[int, int]] = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 10))
        kind = draw(st.sampled_from(["triangulation", "sparse", "dense"]))
        if kind == "triangulation" and k >= 3:
            tri, _ = random_plane_triangulation(k, rng)
            piece = [e for e in tri if rng.random() < 0.9]
        else:
            p = 0.25 if kind == "sparse" else 0.75
            pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
            piece = [e for e in pairs if rng.random() < p]
        ids = list(range(n, n + k))
        glue = draw(st.sampled_from(["apart", "cut", "bridge"])) if n else "apart"
        if glue == "cut":
            ids = [rng.randrange(n)] + ids[:-1]
        elif glue == "bridge":
            edges.append((rng.randrange(n), ids[0]))
        n = max(n, *ids) + 1
        edges += [(ids[a], ids[b]) for a, b in piece]
    n += draw(st.integers(0, 3))
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges(n, [(label[a], label[b]) for a, b in edges])


@given(glued_graphs())
@settings(max_examples=300, deadline=None)
def test_embedding_agrees_with_networkx(g):
    nxg = nx.Graph(g.edges)
    nxg.add_nodes_from(range(g.n))
    rot = try_embedding(g)
    assert (rot is not None) == nx.check_planarity(nxg)[0]
    if rot is not None:
        check_euler(g, rot)


def test_large_stacked_triangulation_embeds_without_recursion():
    n = 2000
    edges, faces = random_plane_triangulation(n, random.Random(2000))
    g = Graph.from_edges(n, edges)
    rot = try_embedding(g)  # a recursive DFS would blow the stack here
    assert rot is not None
    check_euler(g, rot)
    assert len(face_walks(rot)) == len(faces)
