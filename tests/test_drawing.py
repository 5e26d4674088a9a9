"""Planarization of drawings: dummies, realizability, reconstruction."""

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import crosscolor
import crosscolor.drawing as drawing_mod
from crosscolor.drawing import CrossingPair, planarize, validate_drawing
from crosscolor.errors import InvalidInstanceError
from crosscolor.generate import GenSpec, gen_random_instance
from crosscolor.graphs import Graph, norm_edge
from crosscolor.instance import make_instance
from crosscolor.oracle import validate_coloring
from crosscolor.planarity import check_euler
from crosscolor.solver import solve

K5 = Graph.from_edges(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
K6 = Graph.from_edges(6, [(a, b) for a in range(6) for b in range(a + 1, 6)])


def test_zero_crossings_is_identity():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    pg = planarize(g, ())
    assert pg.planar is g and pg.crossings == ()
    check_euler(g, pg.rotation)


def test_k5_single_crossing():
    pg = planarize(K5, (CrossingPair.make((0, 3), (1, 4)),))
    assert pg is not None
    assert pg.planar.n == 6
    d = pg.dummy(0)
    assert pg.planar.degree(d) == 4
    assert pg.is_dummy(d) and not pg.is_dummy(4)
    # rotation at the dummy alternates the two crossed edges
    ring = pg.rotation[d]
    sides = [0 if v in (0, 3) else 1 for v in ring]
    assert sides in ([0, 1, 0, 1], [1, 0, 1, 0])


def test_k34_two_crossings(k34):
    pg = k34.plane
    assert pg.planar.n == 9
    assert all(pg.planar.degree(pg.dummy(i)) == 4 for i in range(2))
    check_euler(pg.planar, pg.rotation)


def test_shared_endpoint_rejected():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(InvalidInstanceError, match="share an endpoint"):
        validate_drawing(g, (CrossingPair.make((0, 1), (1, 2)),))


def test_crossing_must_reference_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(InvalidInstanceError):
        validate_drawing(g, (CrossingPair.make((0, 2), (1, 3)),))


def test_duplicate_crossing_rejected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    cr = CrossingPair.make((0, 1), (2, 3))
    with pytest.raises(InvalidInstanceError):
        validate_drawing(g, (cr, cr))


def test_unrealizable_drawing_returns_none():
    # planarizing one crossing of K6 leaves a K5 minor: no embedding exists
    assert planarize(K6, (CrossingPair.make((0, 1), (2, 3)),)) is None


def test_edge_crossed_twice_planarizes():
    # one edge in two crossing pairs gets two dummies along its curve
    g = Graph.from_edges(
        6, [(0, 1), (2, 3), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5), (0, 4), (1, 5)]
    )
    crs = (CrossingPair.make((0, 1), (2, 3)), CrossingPair.make((0, 1), (4, 5)))
    pg = planarize(g, crs)
    assert pg is not None
    assert not pg.planar.has_edge(0, 1)
    d0, d1 = pg.dummy(0), pg.dummy(1)
    assert pg.planar.has_edge(d0, d1)  # the doubled edge threads both dummies


@given(st.integers(0, 10**6), st.integers(1, 2))
@settings(max_examples=50, deadline=None)
def test_dummy_removal_reconstructs_original(seed, k):
    inst = gen_random_instance(GenSpec(n=12, crossings=k, seed=seed))
    pg = inst.plane
    assert pg.planar.n == inst.n + k
    # drop dummies, restore the crossed edges: must equal the drawn graph
    kept = [e for e in pg.planar.edges if not (pg.is_dummy(e[0]) or pg.is_dummy(e[1]))]
    restored = set(kept) | {norm_edge(*e) for cr in inst.crossings for e in cr.edges}
    assert restored == set(inst.graph.edges)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_planarization_is_plane(seed):
    rng = random.Random(seed)
    inst = gen_random_instance(
        GenSpec(n=rng.randint(8, 16), crossings=rng.randint(0, 2), seed=seed)
    )
    pg = inst.plane
    check_euler(pg.planar, pg.rotation)


def crosswise(pg, i):
    """Whether the rotation at crossing ``i``'s dummy alternates its curves."""
    d = pg.dummy(i)
    a = pg.crossing_of(d).a
    on_a = [
        j
        for j, w in enumerate(pg.rotation[d])
        if w in a or (pg.is_dummy(w) and a in pg.crossing_of(w).edges)
    ]
    return len(on_a) == 2 and on_a[1] - on_a[0] == 2


# three disjoint edges, the first crossed by the other two: the
# planarization is a tree, so nothing in it pins the order at a dummy
THREE_STICKS = ([(0, 1), (2, 3), (4, 5)], [((0, 1), (2, 3)), ((0, 1), (4, 5))])


def test_crossings_alternate_when_nothing_pins_them(monkeypatch):
    calls = []
    real_embed = drawing_mod.try_embedding
    monkeypatch.setattr(
        drawing_mod, "try_embedding", lambda g: calls.append(g.n) or real_embed(g)
    )
    edges, crossings = THREE_STICKS
    pg = planarize(
        Graph.from_edges(6, edges), [CrossingPair.make(*c) for c in crossings]
    )
    assert pg is not None
    check_euler(pg.planar, pg.rotation)
    assert crosswise(pg, 0) and crosswise(pg, 1)
    # the free embedding let the curves touch, so a pinned one was made
    assert calls == [8, 16]


def test_solve_colours_the_three_sticks():
    edges, crossings = THREE_STICKS
    inst = make_instance(6, edges, {v: range(5) for v in range(6)}, crossings=crossings)
    phi, _ = solve(inst)
    assert validate_coloring(inst.graph, inst.lists, phi) == []


CYCLE_SIDES_UNDER_O = """
from crosscolor.drawing import cycle_sides
from crosscolor.errors import CycleSidesError
from crosscolor.graphs import Graph
from crosscolor.planarity import try_embedding

c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
rot = try_embedding(c4)
two_squares = Graph.from_edges(8, [(i, (i + 1) % 4) for i in range(4)]
                               + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
checks = [
    lambda: cycle_sides(c4, rot, [0, 1, 2]),  # edge (2, 0) is absent
    lambda: cycle_sides(c4, rot, [0, 1, 0]),  # not simple
    lambda: cycle_sides(two_squares, try_embedding(two_squares), [0, 1, 2, 3]),
    lambda: cycle_sides(c4, rot, [0, 1, 2, 3]).vertex_side(7),  # no such vertex
]
for check in checks:
    try:
        check()
    except CycleSidesError as e:
        print(e)
    else:
        raise SystemExit("bad cycle went unnoticed")
"""


def run_under_python_O(script):
    """stdout lines of ``script`` run by ``python -O`` on this package."""
    src = str(pathlib.Path(crosscolor.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_cycle_sides_rejects_bad_cycles_under_python_O():
    lines = run_under_python_O(CYCLE_SIDES_UNDER_O)
    assert len(lines) == 4
    assert "edge (2, 0) missing" in lines[0]
    assert "not a simple cycle" in lines[1]
    assert "splits the plane into 3 parts" in lines[2]
    assert "vertex 7" in lines[3]


EMBEDDING_CHECKS_UNDER_O = """
from crosscolor.drawing import CrossingPair, planarize
from crosscolor.errors import InvalidInstanceError
from crosscolor.graphs import Graph
from crosscolor.planarity import check_euler, try_embedding

c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
rot = try_embedding(c4)
sticks = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
thrice = [CrossingPair.make((0, 1), e) for e in [(2, 3), (4, 5), (6, 7)]]
checks = [
    (AssertionError, lambda: check_euler(c4, rot[:3])),
    (AssertionError, lambda: check_euler(c4, rot + ((),))),
    (InvalidInstanceError, lambda: planarize(sticks, thrice)),
    # edges sharing vertex 1 leave their dummy with degree 3
    (InvalidInstanceError, lambda: planarize(c4, [CrossingPair.make((0, 1), (1, 2))])),
]
for kind, check in checks:
    try:
        check()
    except kind as e:
        print(e)
    else:
        raise SystemExit("bad embedding input went unnoticed")
"""


def test_embedding_checks_survive_python_O():
    lines = run_under_python_O(EMBEDDING_CHECKS_UNDER_O)
    assert len(lines) == 4
    assert "3 rows for a graph on 4 vertices" in lines[0]
    assert "5 rows for a graph on 4 vertices" in lines[1]
    assert "edge (0, 1) is crossed more than twice" in lines[2]
    assert "dummy has degree 3, not 4" in lines[3]
