"""Boundary-list recursion and the subtract-and-extend step."""

import contextlib
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import crosscolor.thomassen as thomassen_mod
from crosscolor.drawing import CrossingPair, cycle_sides, planarize
from crosscolor.errors import TaskPreconditionError
from crosscolor.generate import random_boundary_task, random_plane_triangulation
from crosscolor.graphs import Graph
from crosscolor.oracle import exact_list_color, validate_coloring
from crosscolor.thomassen import (
    BoundaryTask,
    observation_extend,
    residual_lists,
    thomassen_color,
    trace_face,
    validate_task,
)
from planarity_oracle import compute_embedding
from test_drawing import run_under_python_O


def check_observation_preconditions(pg, lists, psi, pair=None):
    """Structured reasons the subtract-and-extend step cannot run (empty = go)."""
    bad, _ = thomassen_mod._plan_extension(pg, lists, psi, pair)
    return bad


def simple_task(n, edges, lists, x, y):
    g = Graph.from_edges(n, edges)
    return BoundaryTask(
        g, compute_embedding(g), tuple(frozenset(l) for l in lists), x, y
    )


def test_single_edge():
    task = simple_task(2, [(0, 1)], [{1}, {2}], 0, 1)
    assert thomassen_color(task) == {0: 1, 1: 2}


def test_components_away_from_the_pair_are_coloured_too():
    # triangle 0-1-2 holds the pair; a K4, a lone vertex and an edge float free
    k4 = [(a, b) for a in range(3, 7) for b in range(a + 1, 7)]
    edges = [(0, 1), (1, 2), (0, 2), *k4, (8, 9)]
    lists = [set(range(v % 3, v % 3 + 5)) for v in range(10)]
    task = simple_task(10, edges, lists, 0, 1)
    phi = thomassen_color(task)
    assert sorted(phi) == list(range(10))
    assert validate_coloring(task.graph, task.lists, phi) == []


def test_triangle_forced_third_color():
    task = simple_task(3, [(0, 1), (1, 2), (0, 2)], [{1}, {2}, {1, 2, 3}], 0, 1)
    assert thomassen_color(task)[2] == 3


def test_square_boundary():
    lists = [{1}, {2}, {1, 2, 3}, {1, 2, 3}]
    task = simple_task(4, [(0, 1), (1, 2), (2, 3), (3, 0)], lists, 0, 1)
    phi = thomassen_color(task)
    assert validate_coloring(task.graph, task.lists, phi) == []
    assert exact_list_color(task.graph, task.lists) is not None


def test_wheel_with_interior_vertex():
    # hub 5 off the outer face needs the full 5-list
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
    lists = [{1}, {2}, {4, 5, 6}, {2, 4, 9}, {3, 5, 9}, {1, 2, 3, 4, 5}]
    task = simple_task(6, edges, lists, 0, 1)
    phi = thomassen_color(task)
    assert validate_coloring(task.graph, task.lists, phi) == []


@pytest.mark.parametrize(
    "lists,x,y,msg",
    [
        ([{1}, {1}, {1, 2, 3}], 0, 1, "single colour"),
        ([{1}, set(), {1, 2, 3}], 0, 1, "empty"),
        ([{1}, {1, 2, 3}, {2}], 0, 2, None),  # valid: x,y any boundary edge
        ([{1}, {2}, {1, 2}], 0, 1, "2 colours"),
    ],
)
def test_task_validation(lists, x, y, msg):
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    task = BoundaryTask(
        g, compute_embedding(g), tuple(frozenset(l) for l in lists), x, y
    )
    if msg is None:
        validate_task(task)
    else:
        with pytest.raises(TaskPreconditionError, match=msg):
            validate_task(task)


def test_interior_vertex_needs_five():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
    lists = [{1}, {2}, {4, 5, 6}, {2, 4, 9}, {3, 5, 9}, {1, 2, 3, 4}]
    with pytest.raises(TaskPreconditionError, match="4 colours"):
        validate_task(simple_task(6, edges, lists, 0, 1))


def test_non_edge_pair_rejected():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    task = BoundaryTask(
        g,
        compute_embedding(g),
        (frozenset({1}), frozenset({2}), frozenset({1, 2, 3}), frozenset({1, 2, 3})),
        0,
        2,
    )
    with pytest.raises(TaskPreconditionError, match="not an edge"):
        validate_task(task)


@given(st.integers(0, 10**6), st.integers(6, 28))
@settings(max_examples=80, deadline=None)
def test_random_tasks_always_color(seed, n):
    task = random_boundary_task(n, seed=seed)
    validate_task(task)
    phi = thomassen_color(task)
    assert validate_coloring(task.graph, task.lists, phi) == []


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_monotone_in_list_size(seed):
    # growing any one list cannot break a task that used to succeed
    rng = random.Random(seed)
    task = random_boundary_task(10, seed=seed)
    thomassen_color(task)
    v = rng.randrange(task.graph.n)
    grown = list(task.lists)
    grown[v] = grown[v] | {97, 98}
    bigger = BoundaryTask(task.graph, task.rotation, tuple(grown), task.x, task.y)
    phi = thomassen_color(bigger)
    assert validate_coloring(bigger.graph, bigger.lists, phi) == []


def face_side_far(eng, scope, cyc_far):
    """Reference chord split: the face-side partition of the chord cycle.

    The far arc is walked in outer-face order, so the face left of its first
    edge is outside the chord cycle; ``cycle_sides`` puts that face's side in
    ``side_a``, and the far side is ``side_b``.
    """
    order = sorted(scope)
    loc = {v: i for i, v in enumerate(order)}
    sub = Graph.from_edges(
        len(order),
        [(loc[u], loc[v]) for u in order for v in eng.adj[u] if v in scope and u < v],
    )
    rot = tuple(tuple(loc[w] for w in eng.rot[v] if w in scope) for v in order)
    cs = cycle_sides(sub, rot, [loc[v] for v in cyc_far])
    assert len(cs.side_a) + len(cs.side_b) + len(cyc_far) == len(scope)
    return {order[v] for v in cs.side_b}


@contextlib.contextmanager
def checked_far_side():
    """Check every chord split against the face-side partition; count them."""
    calls = []
    plain = thomassen_mod._Engine._far_side

    def far_side(self, scope, cyc_far):
        far = plain(self, scope, cyc_far)
        assert far == face_side_far(self, scope, cyc_far)
        calls.append(len(far))
        return far

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thomassen_mod._Engine, "_far_side", far_side)
        yield calls


@given(st.integers(0, 10**6), st.integers(6, 40))
@settings(max_examples=40, deadline=None)
def test_chord_split_matches_the_face_sides(seed, n):
    task = random_boundary_task(n, seed=seed)
    with checked_far_side():
        phi = thomassen_color(task)
    assert validate_coloring(task.graph, task.lists, phi) == []


def grid_task(k):
    """Boundary task on a k x k grid with alternating diagonals, drawn straight."""
    at = {(i, j): i * k + j for i in range(k) for j in range(k)}
    edges = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.append((at[i, j], at[i, j + 1]))
            if i + 1 < k:
                edges.append((at[i, j], at[i + 1, j]))
            if i + 1 < k and j + 1 < k:
                if (i + j) % 2:
                    edges.append((at[i, j + 1], at[i + 1, j]))
                else:
                    edges.append((at[i, j], at[i + 1, j + 1]))
    g = Graph.from_edges(k * k, edges)

    def angle(v, w):
        return math.atan2(w // k - v // k, w % k - v % k)

    rot = tuple(
        tuple(sorted(g.adj[v], key=lambda w: angle(v, w))) for v in range(k * k)
    )
    x, y = (0, 1) if len(trace_face(rot, None, 0, 1)) == 4 * (k - 1) else (1, 0)
    lists = [frozenset(range(5))] * (k * k)
    lists[x], lists[y] = frozenset({0}), frozenset({1})
    return BoundaryTask(g, rot, tuple(lists), x, y)


def test_chord_split_matches_the_face_sides_on_a_grid():
    task = grid_task(8)
    validate_task(task)
    with checked_far_side() as calls:
        phi = thomassen_color(task)
    assert validate_coloring(task.graph, task.lists, phi) == []
    assert calls and max(calls) > 0


def test_large_grid_peels_without_recursion_error():
    """Peels and chord splits share one work stack: no frame per split."""
    task = grid_task(50)
    phi = thomassen_color(task)
    assert validate_coloring(task.graph, task.lists, phi) == []


def test_block_tree_walk_is_fast_on_a_path_and_a_star():
    """Each block finds its neighbour blocks through a vertex index."""
    path = [(i, i + 1) for i in range(999)]
    star = [(0, i) for i in range(1, 1000)]
    for edges in (path, star):
        g = Graph.from_edges(1000, edges)
        lists = [frozenset(range(5))] * 1000
        lists[0], lists[1] = frozenset({0}), frozenset({1})
        task = BoundaryTask(g, tuple(tuple(a) for a in g.adj), tuple(lists), 0, 1)
        start = time.perf_counter()
        phi = thomassen_color(task)
        assert time.perf_counter() - start < 2.0
        assert validate_coloring(task.graph, task.lists, phi) == []


BOWTIE_UNDER_O = """
from crosscolor.graphs import Graph
from crosscolor.planarity import try_embedding
from crosscolor.thomassen import _Engine, trace_face

g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
rot = try_embedding(g)
x, y = (0, 1) if len(trace_face(rot, None, 0, 1)) == 6 else (1, 0)
try:
    _Engine(g, rot, [frozenset(range(5))] * 5)._recurse(set(range(5)), x, y)
except AssertionError as e:
    print(e)
else:
    raise SystemExit("bowtie scope went unnoticed")
"""


def test_recurse_rejects_a_bowtie_scope_under_python_O():
    """Two triangles on one cut vertex: the outer walk meets it twice."""
    assert run_under_python_O(BOWTIE_UNDER_O) == ["outer walk is not a simple cycle"]


def test_trace_face_respects_scope():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    rot = compute_embedding(g)
    full = trace_face(rot, None, 0, 1)
    assert set(full) <= {0, 1, 2, 3}
    # dropping the chord endpoint 2 merges its faces
    walk = trace_face(rot, {0, 1, 3}, 0, 1)
    assert 2 not in walk


# --- subtract-and-extend ----------------------------------------------------


def tri_plane(n, seed=0):
    edges, _ = random_plane_triangulation(n, random.Random(seed))
    g = Graph.from_edges(n, edges)
    return planarize(g, ())


def test_empty_psi_is_plain_thomassen():
    pg = tri_plane(9)
    lists = [frozenset(range(5))] * 9
    phi = observation_extend(pg, lists, {})
    assert phi is not None
    assert validate_coloring(pg.real, lists, phi) == []


def test_extension_restricted_to_seed_is_seed():
    pg = tri_plane(12, seed=4)
    lists = [frozenset(range(v, v + 5)) for v in range(12)]
    psi = {3: min(lists[3])}
    phi = observation_extend(pg, lists, psi)
    assert phi is not None and phi[3] == psi[3]
    assert validate_coloring(pg.real, lists, phi) == []


def test_precondition_report_is_pure_and_ordered():
    pg = tri_plane(9)
    lists = [frozenset(range(5))] * 9
    bad = check_observation_preconditions(pg, lists, {0: 99})
    assert ("psi-off-list", 0) in bad
    assert observation_extend(pg, lists, {0: 99}) is None


def test_monochromatic_seed_rejected():
    pg = tri_plane(9)
    lists = [frozenset(range(5))] * 9
    u, v = pg.real.edges[0]
    bad = check_observation_preconditions(pg, lists, {u: 0, v: 0})
    assert any(reason == "psi-monochromatic-edge" for reason, _ in bad)


def test_surviving_crossing_rejected():
    k5 = Graph.from_edges(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    pg = planarize(k5, (CrossingPair.make((0, 3), (1, 4)),))
    lists = [frozenset(range(5))] * 5
    bad = check_observation_preconditions(pg, lists, {2: 0})
    assert bad == [("crossing-survives", None)]
    # removing one endpoint of each crossed edge clears the objection
    assert check_observation_preconditions(pg, lists, {0: 0, 1: 1}) == []
    phi = observation_extend(pg, lists, {0: 0, 1: 1})
    assert phi is not None and validate_coloring(k5.graph if hasattr(k5, "graph") else k5, lists, phi) == []


def test_starved_vertex_rejected():
    # center of a 5-wheel loses all five colors
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
    g = Graph.from_edges(6, edges)
    pg = planarize(g, ())
    lists = [frozenset({i, 9, 10, 11, 12}) for i in range(5)] + [
        frozenset(range(5))
    ]
    psi = {i: i for i in range(5)}
    bad = check_observation_preconditions(pg, lists, psi)
    assert ("empty-list", 5) in bad


def test_neighbors_on_two_faces_rejected():
    # hexagonal prism minus two far-apart vertices: each deletion shortens
    # its own neighborhood, and the two vacated faces never merge, so no
    # single face of the remainder carries every shortened list
    hexes = [(i, (i + 1) % 6) for i in range(6)] + [
        (6 + i, 6 + (i + 1) % 6) for i in range(6)
    ]
    spokes = [(i, i + 6) for i in range(6)]
    g = Graph.from_edges(12, hexes + spokes)
    pg = planarize(g, ())
    lists = [frozenset(range(5))] * 12
    psi = {0: 0, 9: 1}
    bad = check_observation_preconditions(pg, lists, psi)
    assert any(reason == "no-common-face" for reason, _ in bad)
    assert observation_extend(pg, lists, psi) is None


def test_forced_pair_carries_singletons():
    pg = tri_plane(10, seed=2)
    g = pg.real
    u, v = g.edges[0]
    lists = [frozenset(range(5))] * 10
    phi = observation_extend(pg, lists, {}, pair=(u, v))
    assert phi is not None
    assert validate_coloring(g, lists, phi) == []


def short_lists(g, short):
    """Five colours everywhere except the vertices named in ``short``."""
    return [frozenset(short.get(v, range(5))) for v in range(g.n)]


def small_vertices(g, count, adjacent):
    """``count`` vertices of ``g``, the first two adjacent or not as asked."""
    u, v = next(
        (a, b)
        for a in range(g.n)
        for b in range(a + 1, g.n)
        if g.has_edge(a, b) == adjacent
    )
    rest = [w for w in range(g.n) if w not in (u, v)]
    return [u, v, *rest[: count - 2]]


def test_three_small_vertices_decline():
    pg = tri_plane(10, seed=2)
    a, b, c = small_vertices(pg.real, 3, adjacent=True)
    lists = short_lists(pg.real, {a: {0, 1}, b: {0, 1}, c: {0, 1}})
    assert check_observation_preconditions(pg, lists, {}) == [
        ("too-many-small", max(a, b, c))
    ]
    assert observation_extend(pg, lists, {}) is None


def test_two_small_vertices_must_be_adjacent():
    pg = tri_plane(10, seed=2)
    a, b = small_vertices(pg.real, 2, adjacent=False)
    lists = short_lists(pg.real, {a: {0, 1}, b: {0, 1}})
    assert check_observation_preconditions(pg, lists, {}) == [
        ("small-pair-not-adjacent", a)
    ]
    assert observation_extend(pg, lists, {}) is None


def test_two_small_vertices_with_one_equal_colour_decline():
    pg = tri_plane(10, seed=2)
    a, b = small_vertices(pg.real, 2, adjacent=True)
    lists = short_lists(pg.real, {a: {3}, b: {3}})
    assert check_observation_preconditions(pg, lists, {}) == [
        ("small-pair-equal-singletons", a)
    ]
    assert observation_extend(pg, lists, {}) is None


@pytest.mark.parametrize("short", [({0, 1}, {0, 1}), ({2}, {0, 2})])
def test_two_adjacent_small_vertices_become_the_pair(short):
    pg = tri_plane(10, seed=2)
    a, b = small_vertices(pg.real, 2, adjacent=True)
    lists = short_lists(pg.real, {a: short[0], b: short[1]})
    assert check_observation_preconditions(pg, lists, {}) == []
    phi = observation_extend(pg, lists, {})
    assert phi is not None
    assert validate_coloring(pg.real, lists, phi) == []


def test_pair_must_be_free_and_adjacent():
    pg = tri_plane(10, seed=2)
    lists = [frozenset(range(5))] * 10
    u, v = pg.real.edges[0]
    assert ("pair-unavailable", min(u, v)) in check_observation_preconditions(
        pg, lists, {u: 0}, pair=(u, v)
    )
    non_edge = next(
        (a, b)
        for a in range(10)
        for b in range(a + 1, 10)
        if not pg.real.has_edge(a, b)
    )
    assert any(
        reason == "pair-not-edge"
        for reason, _ in check_observation_preconditions(pg, lists, {}, pair=non_edge)
    )


def test_residual_lists_subtracts_neighbors():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    res = residual_lists(g, [frozenset({1, 2})] * 3, {1: 2})
    assert res == {0: frozenset({1}), 2: frozenset({1})}


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_small_tasks_agree_with_oracle(seed):
    task = random_boundary_task(random.Random(seed).randint(5, 8), seed=seed)
    phi = thomassen_color(task)
    assert validate_coloring(task.graph, task.lists, phi) == []
    assert exact_list_color(task.graph, task.lists) is not None
