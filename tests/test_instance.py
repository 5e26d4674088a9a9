"""Instance construction, the JSON front door, and mode classification."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import crosscolor.drawing as drawing_mod
import crosscolor.instance as instance_mod
from crosscolor.drawing import planarize
from crosscolor.errors import InvalidInstanceError
from crosscolor.generate import GenSpec, gen_random_instance, random_plane_triangulation
from crosscolor.graphs import Graph, norm_edge
from crosscolor.instance import (
    dump_instance,
    emit_instance,
    induced_instance,
    instance_mode,
    make_instance,
    mode_violations,
    parse_instance,
)
from crosscolor.oracle import validate_coloring
from crosscolor.planarity import check_euler
from crosscolor.solver import solve

K5_DOC = {
    "n": 5,
    "edges": [[a, b] for a in range(5) for b in range(a + 1, 5)],
    "crossings": [{"a": [0, 3], "b": [1, 4]}],
    "lists": {str(v): [1, 2, 3, 4, 5] for v in range(5)},
}

TRI_DOC = {
    "n": 3,
    "edges": [[0, 1], [1, 2], [0, 2]],
    "lists": {"0": [1], "1": [2], "2": [3]},
    "triangle": [0, 1, 2],
}


def test_k5_one_crossing_parses_plain():
    inst = parse_instance(json.dumps(K5_DOC))
    assert instance_mode(inst) == "plain"
    assert inst.plane is not None and inst.plane.planar.n == 6


def test_smallest_triangle_instance():
    inst = parse_instance(json.dumps(TRI_DOC))
    assert instance_mode(inst) == "triangle"
    assert inst.triangle == (0, 1, 2)


def test_short_list_outside_triangle_rejected():
    doc = dict(K5_DOC, lists={**K5_DOC["lists"], "2": [1, 2, 3, 4]})
    with pytest.raises(InvalidInstanceError, match="only 4 colours"):
        parse_instance(json.dumps(doc))


def test_crossing_limits_by_mode():
    # triangle mode allows one crossing, not two
    doc = {
        "n": 7,
        "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [5, 6], [0, 3], [1, 4], [2, 5],
                  [3, 5], [4, 6], [3, 6], [4, 5]],
        "lists": {"0": [1], "1": [2], "2": [3],
                  **{str(v): [1, 2, 3, 4, 5] for v in (3, 4, 5, 6)}},
        "triangle": [0, 1, 2],
        "crossings": [{"a": [3, 4], "b": [5, 6]}, {"a": [3, 5], "b": [4, 6]}],
    }
    with pytest.raises(InvalidInstanceError, match="crossings"):
        parse_instance(json.dumps(doc))


def test_triangle_pins_must_differ():
    doc = dict(TRI_DOC, lists={"0": [1], "1": [1], "2": [3]})
    with pytest.raises(InvalidInstanceError, match="distinct"):
        parse_instance(json.dumps(doc))


def test_triangle_must_be_a_triangle():
    doc = dict(TRI_DOC, edges=[[0, 1], [1, 2]])
    with pytest.raises(InvalidInstanceError, match="missing edge"):
        parse_instance(json.dumps(doc))


def test_crossed_triangle_edge_is_accepted():
    # an ill-drawn input where an edge of T carries the crossing still parses;
    # a dedicated reduction handles it downstream
    doc = {
        "n": 5,
        "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [0, 3], [0, 4], [1, 3], [2, 4]],
        "lists": {"0": [1], "1": [2], "2": [3], "3": [1, 2, 3, 4, 5],
                  "4": [1, 2, 3, 4, 5]},
        "triangle": [0, 1, 2],
        "crossings": [{"a": [1, 2], "b": [3, 4]}],
    }
    inst = parse_instance(json.dumps(doc))
    assert instance_mode(inst) == "triangle"


@pytest.mark.parametrize(
    "mangle,msg",
    [
        (lambda d: d.update(extra=1), "unknown keys"),
        (lambda d: d.pop("edges"), "missing key"),
        (lambda d: d.update(n=-1), "bad vertex count"),
        (lambda d: d.update(edges=[[0, 1, 2]]), "bad edge"),
        (lambda d: d.update(lists={"zero": [1]}), "bad lists key"),
        (lambda d: d["lists"].pop("0"), "exactly 0"),
        (lambda d: d.update(crossings=[{"a": [0, 1]}]), "bad crossing"),
        (lambda d: d.update(triangle=[0, 1]), "bad triangle"),
        (lambda d: d.update(edges=5), "edges must be a list"),
        (lambda d: d.update(crossings=5), "crossings must be a list"),
        (lambda d: d.update(triangle=[0, 1, "a"]), "bad triangle .*'a'"),
    ],
)
def test_parse_diagnostics(mangle, msg):
    doc = json.loads(json.dumps(K5_DOC))
    mangle(doc)
    with pytest.raises(InvalidInstanceError, match=msg):
        parse_instance(json.dumps(doc))


def test_bad_json_is_invalid_input():
    with pytest.raises(InvalidInstanceError, match="bad JSON"):
        parse_instance("{not json")


def test_make_instance_is_permissive_where_parse_is_not():
    inst = make_instance(3, [(0, 1), (1, 2)], {0: [1], 1: [1, 2], 2: [5]})
    assert instance_mode(inst) is None
    assert any("colours" in m for m in mode_violations(inst))


def test_undrawable_crossings_flagged_not_fatal():
    edges = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    inst = make_instance(
        6, edges, {v: [1, 2, 3, 4, 5] for v in range(6)},
        crossings=[((0, 1), (2, 3))],
    )
    assert inst.plane is None
    assert any("drawable" in m for m in mode_violations(inst))


def test_induced_instance_restricts_everything(k34):
    keep = [0, 1, 3, 4, 5]
    sub, back = induced_instance(k34, keep)
    assert sub.n == 5
    orig = {back[v] for v in range(sub.n)}
    assert orig == set(keep)
    for v in range(sub.n):
        assert sub.lists[v] == k34.lists[back[v]]
    for u, v in sub.graph.edges:
        assert k34.graph.has_edge(back[u], back[v])
    # the (1,4)x(2,3) crossing lost vertex 2, so only edge-complete pairs stay
    for cr in sub.crossings:
        for e in cr.edges:
            assert k34.graph.has_edge(back[e[0]], back[e[1]])


def test_induced_instance_builds_the_child_graph_once(k34, monkeypatch):
    built = []
    plain = Graph.from_edges

    def counting(n, edges):
        built.append(n)
        return plain(n, edges)

    monkeypatch.setattr(Graph, "from_edges", staticmethod(counting))
    child, _ = induced_instance(k34, [0, 1, 3, 4, 5])
    assert built == [5] and child.n == 5


@given(st.integers(0, 10**6), st.integers(0, 2), st.booleans())
@settings(max_examples=60, deadline=None)
def test_emit_parse_round_trip(seed, k, tri):
    if tri and k > 1:
        k = 1
    inst = gen_random_instance(GenSpec(n=11, crossings=k, seed=seed, triangle=tri))
    again = parse_instance(dump_instance(inst))
    assert emit_instance(again) == emit_instance(inst)
    assert instance_mode(again) == instance_mode(inst)


def test_edge_crossed_three_times_rejected():
    edges = [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3)]
    crossings = [((0, 1), (2, 3)), ((0, 1), (4, 5)), ((0, 1), (6, 7))]
    with pytest.raises(InvalidInstanceError, match="crossed more than twice"):
        make_instance(8, edges, {v: range(5) for v in range(8)}, crossings=crossings)
    doc = {
        "n": 8,
        "edges": [list(e) for e in edges],
        "crossings": [{"a": list(a), "b": list(b)} for a, b in crossings],
        "lists": {str(v): [0, 1, 2, 3, 4] for v in range(8)},
    }
    with pytest.raises(InvalidInstanceError, match="crossed more than twice"):
        parse_instance(json.dumps(doc))


# ---------------------------------------------------------------------------
# children inherit their parent's drawing
# ---------------------------------------------------------------------------


def stacked_drawing(seed: int, k: int, doubled: bool):
    """Stacked triangulation with ``k`` crossings; ``doubled`` routes one new
    edge x-z through two adjacent faces so that it crosses uv and vy."""
    if not doubled:
        return gen_random_instance(GenSpec(n=14, crossings=k, seed=seed))
    rng = random.Random(seed)
    edges, faces = random_plane_triangulation(14, rng)
    apexes: dict = {}
    for a, b, c in faces:
        for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
            apexes.setdefault(norm_edge(u, v), []).append(w)
    sites = []
    for (p, q), (x, y) in sorted((e, a) for e, a in apexes.items() if len(a) == 2):
        for u, v in ((p, q), (q, p)):
            (z,) = set(apexes[norm_edge(v, y)]) - {u}
            if z not in (u, x) and norm_edge(x, z) not in edges:
                sites.append(((u, v), (v, y), (x, z)))
    uv, vy, xz = rng.choice(sites)
    return make_instance(
        14,
        edges + [xz],
        {v: range(5) for v in range(14)},
        crossings=[(uv, xz), (vy, xz)],
    )


def curve_end(pg, x: int, y: int) -> int:
    """Real vertex where the curve leaving ``x`` through ``y`` ends."""
    while pg.is_dummy(y):
        r = pg.rotation[y]
        x, y = y, r[(r.index(x) + 2) % 4]
    return y


def check_inherited(child, doubled: bool) -> None:
    pg = child.plane
    assert pg.real == child.graph and pg.crossings == child.crossings
    check_euler(pg.planar, pg.rotation)
    for i, cr in enumerate(child.crossings):
        d = pg.dummy(i)
        r = pg.rotation[d]
        assert len(r) == 4
        curves = {
            norm_edge(curve_end(pg, d, r[j]), curve_end(pg, d, r[j + 2]))
            for j in (0, 1)
        }
        assert curves == set(cr.edges)
    if not doubled:
        fresh = planarize(child.graph, child.crossings)
        assert set(pg.planar.edges) == set(fresh.planar.edges)


@given(st.integers(0, 10**6), st.integers(0, 2), st.booleans())
@settings(max_examples=60, deadline=None)
def test_children_inherit_the_parents_drawing(seed, k, doubled):
    doubled = doubled and k == 2
    inst = stacked_drawing(seed, k, doubled)
    rng = random.Random(seed)
    # one endpoint of a crossing (drops that crossing), one random vertex,
    # then a random half of what is left, each from the previous child
    cuts = [{rng.choice(inst.crossings[0].a)}] if inst.crossings else []
    cuts.append({rng.randrange(inst.n)})
    for cut in cuts:
        inst, _ = induced_instance(inst, [v for v in range(inst.n) if v not in cut])
        check_inherited(inst, doubled)
    keep = rng.sample(range(inst.n), inst.n // 2)
    child, _ = induced_instance(inst, keep)
    check_inherited(child, doubled)


def test_inherited_drawing_keeps_both_points_on_a_doubled_edge():
    inst = stacked_drawing(3, 2, doubled=True)
    cross_ends = {v for cr in inst.crossings for e in cr.edges for v in e}
    free = next(v for v in range(inst.n) if v not in cross_ends)
    child, _ = induced_instance(inst, [v for v in range(inst.n) if v != free])
    assert len(child.crossings) == 2
    pg = child.plane
    # the doubled edge still threads both dummies, in the parent's order
    assert pg.planar.has_edge(pg.dummy(0), pg.dummy(1))
    check_inherited(child, doubled=True)


def test_child_of_undrawable_parent_still_planarizes(monkeypatch):
    k6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    parent = make_instance(
        6, k6, {v: range(5) for v in range(6)}, crossings=[((0, 1), (2, 3))]
    )
    assert parent.plane is None
    calls = []
    real_planarize = instance_mod.planarize
    monkeypatch.setattr(
        instance_mod,
        "planarize",
        lambda *a: calls.append(a) or real_planarize(*a),
    )
    child, _ = induced_instance(parent, range(5))
    pg = child.plane
    assert len(calls) == 1
    assert pg is not None and len(pg.crossings) == 1
    check_euler(pg.planar, pg.rotation)


def test_r1_only_solve_embeds_once(monkeypatch):
    drawn = gen_random_instance(GenSpec(n=30, crossings=2, seed=7))
    # rebuilt, so that no drawing is cached yet
    inst = make_instance(
        drawn.n, drawn.graph.edges, drawn.lists, [(c.a, c.b) for c in drawn.crossings]
    )
    calls = []
    real_embed = drawing_mod.try_embedding
    monkeypatch.setattr(
        drawing_mod,
        "try_embedding",
        lambda g: calls.append(g.n) or real_embed(g),
    )
    phi, stats = solve(inst)
    assert not validate_coloring(inst.graph, inst.lists, phi)
    assert stats.rules["R1"] > 1
    assert sum(stats.rules.values()) == stats.rules["R1"]
    assert not stats.endgame and stats.fallback_invocations == 0
    assert calls == [inst.n + 2]
