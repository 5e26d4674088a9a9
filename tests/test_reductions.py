"""Rule-by-rule exercises for the structure-removal steps.

Each rule gets a hand-built instance on which it demonstrably fires, with an
exhaustive-search stand-in for the recursive solver so the runner logic is
tested in isolation.  Geometric punts (RuleInapplicable) are checked where
the precondition is cheap to stage.
"""

import pathlib
import random
import sys

from hypothesis import given, settings, strategies as st
import pytest

import crosscolor.reductions as reductions
from crosscolor.drawing import CrossingPair, PlaneGraph, cycle_sides
from crosscolor.errors import RuleInapplicable
from crosscolor.generate import GenSpec, gen_random_instance
from crosscolor.graphs import Graph, articulation
from crosscolor.instance import induced_instance, make_instance, parse_instance
from crosscolor.oracle import exact_list_color, validate_coloring
from crosscolor.planarity import try_embedding
from crosscolor.reductions import (
    ReductionStep,
    _bounds_face,
    _no_two_cut,
    _r5_two_cut,
    _two_cuts,
    components_without,
    crossing_gadget,
    iter_reduction_steps,
    measure,
    saturate_crossing_clique,
)
from crosscolor.solver import solve

from conftest import ICOSA_EDGES, icosa_instance

# the benchmark's generators, read-only
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
import corpora  # noqa: E402

FIVE = [0, 1, 2, 3, 4]


def steps_for(inst, rule):
    return [s for s in iter_reduction_steps(inst) if s.rule == rule]


def oracle_child(child):
    phi = exact_list_color(child.graph, child.lists)
    assert phi is not None, "reduction child should be colourable"
    return phi


def recording(children: list):
    """A solve_child that logs every instance it is handed."""

    def solve(child):
        children.append(child)
        return oracle_child(child)

    return solve


# ---------------------------------------------------------------------------
# R1
# ---------------------------------------------------------------------------


def test_r1_candidates_and_extension(k34):
    cand = steps_for(k34, "R1")
    # every K3,4 vertex has degree <= 4 and a 5-list
    assert [s.params for s in cand] == [(v,) for v in range(7)]
    kids = []
    phi = cand[0].run(recording(kids))
    assert validate_coloring(k34.graph, k34.lists, phi) == []
    (kid,) = kids
    assert measure(kid) < measure(k34)


def test_r1_removing_a_crossed_vertex_drops_its_crossings(k34):
    # vertex 1 is an endpoint of both crossed edges
    step = next(s for s in steps_for(k34, "R1") if s.params == (1,))
    kids = []
    phi = step.run(recording(kids))
    (kid,) = kids
    assert kid.n == 6 and len(kid.crossings) == 0
    assert validate_coloring(k34.graph, k34.lists, phi) == []


def test_r1_skips_pinned_triangle_and_big_lists():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (0, 4), (1, 4), (0, 3), (1, 3)]
    lists = {0: [10], 1: [11], 2: [12], 3: FIVE, 4: FIVE}
    inst = make_instance(
        5, edges, lists, crossings=[((0, 1), (3, 4))], triangle=(0, 1, 2)
    )
    assert [s.params for s in steps_for(inst, "R1")] == [(3,), (4,)]


# ---------------------------------------------------------------------------
# R2
# ---------------------------------------------------------------------------


def test_r2_split_colors_components_independently():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    inst = make_instance(6, edges, {v: FIVE for v in range(6)})
    cand = steps_for(inst, "R2")
    assert [s.params for s in cand] == [("split",)]
    kids = []
    phi = cand[0].run(recording(kids))
    assert len(kids) == 2
    assert all(measure(k) < measure(inst) for k in kids)
    assert validate_coloring(inst.graph, inst.lists, phi) == []


def two_blob_cut():
    # a cut vertex joining two one-crossing flanks plus a free pendant twig
    edges = [(0, 1), (0, 5), (0, 9)]
    edges += [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    edges += [(5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)]
    crossings = [((1, 3), (2, 4)), ((5, 7), (6, 8))]
    return make_instance(10, edges, {v: FIVE for v in range(10)}, crossings=crossings)


def assert_fresh_pins(parent, child, fresh):
    """The new vertices hold singleton lists of distinct unused colours."""
    used = set().union(*parent.lists)
    pins = [child.lists[q] for q in fresh]
    assert all(len(L) == 1 and not L & used for L in pins)
    assert len(set().union(*pins)) == len(fresh)


def test_r2_cut_apexes_the_far_crossing_and_extends_the_twig():
    inst = two_blob_cut()
    assert inst.plane is not None
    step = next(s for s in steps_for(inst, "R2") if s.params == ("cut", 0))
    kids = []
    phi = step.run(recording(kids))
    assert validate_coloring(inst.graph, inst.lists, phi) == []
    assert [len(k.crossings) for k in kids] == [1, 1]
    assert all(measure(k) < measure(inst) for k in kids)
    # far flank is re-solved with the cut vertex pinned under a fresh triangle
    apexed = kids[1]
    n = apexed.n - 2  # side {0, 5, 6, 7, 8}; the cut vertex 0 stays 0
    assert apexed.triangle == (0, n, n + 1)
    assert apexed.lists[0] == {phi[0]}
    assert_fresh_pins(inst, apexed, [n, n + 1])
    # the twig never became a child: it was finished by extension
    assert 9 in phi


def test_r2_cut_punts_when_the_apexed_side_does_not_shrink():
    # the crossed K5 hangs on the pinned triangle's corner 0; its apexed side
    # (K5 plus two fresh vertices) is exactly as large as the whole parent
    k5 = [0, 3, 4, 5, 6]
    edges = [(0, 1), (1, 2), (0, 2)]
    edges += [(a, b) for i, a in enumerate(k5) for b in k5[i + 1 :]]
    lists = {v: FIVE for v in range(7)}
    lists.update({0: [10], 1: [11], 2: [12]})
    inst = make_instance(
        7, edges, lists, crossings=[((0, 4), (3, 5))], triangle=(0, 1, 2)
    )
    step = next(s for s in steps_for(inst, "R2") if s.params == ("cut", 0))
    with pytest.raises(
        RuleInapplicable,
        match=r"child measure \(1, 7, -13\) does not drop below \(1, 7, -13\)",
    ):
        step.run(oracle_child)


def test_r2_cut_punts_when_a_crossing_straddles_it():
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
    inst = make_instance(
        5, edges, {v: FIVE for v in range(5)}, crossings=[((1, 2), (3, 4))]
    )
    step = next(s for s in steps_for(inst, "R2") if s.params == ("cut", 0))
    with pytest.raises(RuleInapplicable, match="straddles"):
        step.run(oracle_child)


# ---------------------------------------------------------------------------
# R3
# ---------------------------------------------------------------------------


def crossed_triangle_instance():
    """Pinned triangle (0,1,2) whose edge (0,1) is crossed by (3,4)."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (0, 4), (1, 4), (0, 3), (1, 3)]
    lists = {0: [10], 1: [11], 2: [12], 3: FIVE, 4: FIVE}
    return make_instance(
        5, edges, lists, crossings=[((0, 1), (3, 4))], triangle=(0, 1, 2)
    )


def test_r3_splits_off_the_far_side_of_the_crossed_edge():
    inst = crossed_triangle_instance()
    assert inst.plane is not None
    cand = steps_for(inst, "R3")
    assert [s.params for s in cand] == [((0, 1),)]
    kids = []
    phi = cand[0].run(recording(kids))
    (kid,) = kids
    assert kid.crossings == () and kid.triangle == (0, 1, 2)
    assert measure(kid) < measure(inst)
    assert validate_coloring(inst.graph, inst.lists, phi) == []
    assert (phi[0], phi[1], phi[2]) == (10, 11, 12)


def test_r3_needs_a_crossed_triangle_edge(k5x):
    assert steps_for(k5x, "R3") == []  # no pinned triangle
    quiet = icosa_instance([((0, 1), (5, 8))])
    assert steps_for(quiet, "R3") == []


# ---------------------------------------------------------------------------
# R4
# ---------------------------------------------------------------------------


def bipyramid(crossed: bool):
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)]
    if not crossed:
        edges += [(0, 4), (1, 4), (2, 4)]
        return make_instance(5, edges, {v: FIVE for v in range(5)})
    # below the equator, a pair of vertices whose ties to 0 and 1 cross
    edges += [(0, 4), (1, 5), (4, 5), (0, 5), (1, 4), (2, 4), (2, 5)]
    return make_instance(
        6, edges, {v: FIVE for v in range(6)}, crossings=[((0, 5), (1, 4))]
    )


def test_r4_equator_separates_the_apexes():
    inst = bipyramid(crossed=False)
    step = next(s for s in steps_for(inst, "R4") if s.params == (0, 1, 2))
    kids = []
    phi = step.run(recording(kids))
    assert validate_coloring(inst.graph, inst.lists, phi) == []
    busy, quiet = kids
    assert busy.triangle is None
    assert quiet.triangle == (0, 1, 2)
    # the quiet side inherits the equator colouring as singletons
    assert [len(quiet.lists[v]) for v in quiet.triangle] == [1, 1, 1]


def test_r4_face_triangle_punts():
    inst = bipyramid(crossed=False)
    step = next(s for s in steps_for(inst, "R4") if s.params == (0, 1, 3))
    with pytest.raises(RuleInapplicable, match="does not separate"):
        step.run(oracle_child)


def test_r4_keeps_the_crossing_on_the_busy_side():
    inst = bipyramid(crossed=True)
    assert inst.plane is not None
    step = next(s for s in steps_for(inst, "R4") if s.params == (0, 1, 2))
    kids = []
    phi = step.run(recording(kids))
    assert [len(k.crossings) for k in kids] == [1, 0]
    assert all(measure(k) < measure(inst) for k in kids)
    assert validate_coloring(inst.graph, inst.lists, phi) == []


def test_r4_never_offers_a_crossed_triangle(k5x):
    got = {s.params for s in steps_for(k5x, "R4")}
    # anything through the crossed edges (0,3) or (1,4) is filtered out
    assert got == {(0, 1, 2), (0, 2, 4), (1, 2, 3), (2, 3, 4)}


# ---------------------------------------------------------------------------
# R5
# ---------------------------------------------------------------------------


def test_r5_clean_cut_pair_solves_one_flank_and_extends():
    # two squares sharing the present, uncrossed edge (0,1)
    edges = [(0, 1), (0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1)]
    inst = make_instance(6, edges, {v: FIVE for v in range(6)})
    step = next(s for s in steps_for(inst, "R5") if s.params == (0, 1))
    kids = []
    phi = step.run(recording(kids))
    (kid,) = kids
    assert kid.graph.has_edge(0, 1)
    assert kid.n == 4
    assert validate_coloring(inst.graph, inst.lists, phi) == []


def test_r5_apex_route_when_the_pair_is_not_adjacent():
    # both flanks of the non-adjacent cut pair {0,1} carry a crossing
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges += [(0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    crossings = [((0, 2), (1, 3)), ((0, 4), (1, 5))]
    inst = make_instance(6, edges, {v: FIVE for v in range(6)}, crossings=crossings)
    assert inst.plane is not None
    step = next(s for s in steps_for(inst, "R5") if s.params == (0, 1))
    kids = []
    phi = step.run(recording(kids))
    assert validate_coloring(inst.graph, inst.lists, phi) == []
    first, second = kids
    # busy flank gets uv added; far flank gets an apex triangle over the pair
    assert first.graph.has_edge(0, 1) and first.triangle is None
    assert len(second.crossings) == 1
    n = second.n - 1  # side {0, 1, 4, 5}; the cut pair stays (0, 1)
    assert second.triangle == (0, n, 1)
    assert (second.lists[0], second.lists[1]) == ({phi[0]}, {phi[1]})
    assert_fresh_pins(inst, second, [n])
    assert all(measure(k) < measure(inst) for k in kids)


# ---------------------------------------------------------------------------
# R6
# ---------------------------------------------------------------------------


def ringed_wheel(crossed=True, outer_blob=False):
    """A square ring (4,5,6,7) strung inside an outer square, contents vary."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    edges += [(0, 4), (1, 5), (2, 6), (3, 7)]
    edges += [(4, 5), (5, 6), (6, 7), (4, 7)]
    n = 8
    crossings = []
    if crossed:
        # 8, 9 inside the ring; the tie from 8 to corner 7 pins the blob
        # there, since no face outside the ring sees 4, 5 and 7 at once
        edges += [(8, 4), (9, 5), (8, 9), (8, 7), (4, 9), (5, 8)]
        n = 10
        crossings.append(((4, 9), (5, 8)))
    else:
        edges += [(8, 4), (8, 5), (8, 6), (8, 7)]
        n = 9
    if outer_blob:
        b, c = n, n + 1
        edges += [(b, 0), (c, 1), (b, c), (b, 3), (0, c), (1, b)]
        crossings.append(((0, c), (1, b)))
        n += 2
    return make_instance(n, edges, {v: FIVE for v in range(n)}, crossings=crossings)


def test_r6_hub_side_is_solved_then_extended_across_the_ring():
    inst = ringed_wheel(crossed=False)
    step = next(s for s in steps_for(inst, "R6") if s.params == (4, 5, 6, 7))
    kids = []
    phi = step.run(recording(kids))
    assert len(kids) == 1
    assert validate_coloring(inst.graph, inst.lists, phi) == []


def test_r6_crossing_stays_inside_the_ring():
    inst = ringed_wheel(crossed=True)
    assert inst.plane is not None
    step = next(s for s in steps_for(inst, "R6") if s.params == (4, 5, 6, 7))
    kids = []
    phi = step.run(recording(kids))
    (kid,) = kids
    assert len(kid.crossings) == 1 and measure(kid) < measure(inst)
    assert validate_coloring(inst.graph, inst.lists, phi) == []


def test_r6_punts_with_crossings_on_both_sides():
    inst = ringed_wheel(crossed=True, outer_blob=True)
    assert inst.plane is not None
    step = next(s for s in steps_for(inst, "R6") if s.params == (4, 5, 6, 7))
    with pytest.raises(RuleInapplicable, match="both sides"):
        step.run(oracle_child)


def test_r6_skips_rings_with_a_crossed_edge():
    inst = ringed_wheel(crossed=True)
    hot = make_instance(
        inst.n,
        list(inst.graph.edges),
        {v: FIVE for v in range(inst.n)},
        crossings=[((4, 5), (8, 9))],
    )
    assert all(s.params != (4, 5, 6, 7) for s in steps_for(hot, "R6"))


# ---------------------------------------------------------------------------
# R7
# ---------------------------------------------------------------------------


def test_r7_triggers_only_on_a_shared_edge(k34, k5x):
    assert steps_for(k34, "R7") == []  # two crossings, no common edge
    assert steps_for(k5x, "R7") == []  # one crossing


def chords_sharing_a_corner():
    edges = [(0, 1), (2, 3), (3, 4), (0, 2), (1, 4), (0, 3), (1, 3)]
    crossings = [((0, 1), (2, 3)), ((0, 1), (3, 4))]
    return make_instance(5, edges, {v: FIVE for v in range(5)}, crossings=crossings)


def test_r7_chords_sharing_a_corner():
    inst = chords_sharing_a_corner()
    assert inst.plane is not None
    cand = steps_for(inst, "R7")
    assert [s.params for s in cand] == [((0, 1),)]
    phi = cand[0].run(oracle_child)
    assert validate_coloring(inst.graph, inst.lists, phi) == []


def test_r7_disjoint_chords_get_fenced():
    # nothing but the crossed edges: the rule supplies its own 6-cycle fence
    edges = [(0, 1), (2, 3), (4, 5)]
    crossings = [((0, 1), (2, 3)), ((0, 1), (4, 5))]
    inst = make_instance(6, edges, {v: FIVE for v in range(6)}, crossings=crossings)
    assert inst.plane is not None
    cand = steps_for(inst, "R7")
    assert len(cand) == 1
    phi = cand[0].run(oracle_child)
    assert validate_coloring(inst.graph, inst.lists, phi) == []


# ---------------------------------------------------------------------------
# R8
# ---------------------------------------------------------------------------


def test_r8_runner_on_the_icosahedron():
    inst = icosa_instance([((0, 1), (5, 8))])
    cand = steps_for(inst, "R8")
    assert len(cand) == 1
    kids = []
    phi = cand[0].run(recording(kids))
    (kid,) = kids
    assert (kid.n, len(kid.crossings)) == (13, 0)
    assert kid.triangle == (0, 5, 12)
    assert measure(kid) < measure(inst)
    assert 12 not in phi
    assert validate_coloring(inst.graph, inst.lists, phi) == []


def test_r8_leaves_a_doubly_crossed_edge_to_r7():
    # the gadget would delete (0, 1), which the other crossing still names
    inst = chords_sharing_a_corner()
    cand = steps_for(inst, "R8")
    assert len(cand) == 2
    for step in cand:
        with pytest.raises(RuleInapplicable, match="crossed twice"):
            step.run(oracle_child)


def test_r8_not_offered_once_a_triangle_is_pinned():
    inst = crossed_triangle_instance()
    assert steps_for(inst, "R8") == []


def test_crossing_gadget_shape(k34):
    made = crossing_gadget(k34, 0, 1, 4, 2, 3)
    assert made is not None
    child, vtx = made
    assert child.n == k34.n + 1 and vtx == k34.n
    assert len(child.crossings) == 1
    assert child.triangle == (1, 2, vtx)
    assert child.lists[1] == {0} and child.lists[2] == {1}
    (fresh,) = child.lists[vtx]
    holders = [v for v in range(child.n) if fresh in child.lists[v]]
    assert holders == [3, 4, vtx]
    assert not child.graph.has_edge(1, 4) and not child.graph.has_edge(2, 3)
    assert all(child.graph.has_edge(vtx, w) for w in (1, 2, 3, 4))
    assert child.plane is not None


def test_crossing_gadget_pullback_respects_the_cut_edges(k34):
    child, vtx = crossing_gadget(k34, 0, 1, 4, 2, 3)
    (fresh,) = child.lists[vtx]
    sub = oracle_child(child)
    assert sub[4] != fresh and sub[3] != fresh
    phi = {v: c for v, c in sub.items() if v != vtx}
    assert validate_coloring(k34.graph, k34.lists, phi) == []


def test_crossing_gadget_refuses_a_crossed_connecting_edge():
    edges = [(0, 1), (2, 3), (0, 2), (4, 5), (0, 4), (1, 5), (3, 4), (2, 5)]
    inst = make_instance(
        6,
        edges,
        {v: FIVE for v in range(6)},
        crossings=[((0, 1), (2, 3)), ((0, 2), (4, 5))],
    )
    assert crossing_gadget(inst, 0, 0, 1, 2, 3) is None


# ---------------------------------------------------------------------------
# saturation, dispatch, measure
# ---------------------------------------------------------------------------


def test_saturate_adds_the_missing_corner_edges():
    inst = make_instance(
        4,
        [(0, 2), (1, 3), (0, 1), (2, 3)],
        {v: FIVE for v in range(4)},
        crossings=[((0, 2), (1, 3))],
    )
    out = saturate_crossing_clique(inst)
    assert out is not None and out.n == inst.n
    for p in ((0, 1), (0, 3), (1, 2), (2, 3)):
        assert out.graph.has_edge(*p)
    assert out.plane is not None


def test_saturate_is_identity_when_complete(k5x):
    assert saturate_crossing_clique(k5x) is k5x


def test_no_rule_applies_to_the_dodecahedron():
    # 3-regular with tight lists, 3-connected, girth 5, no crossings:
    # every generator comes up empty.  Outer 5-cycle a, middle 10-cycle b,
    # inner 5-cycle c; a_i meets b_2i and c_i meets b_2i+1.
    a, b, c = range(5), range(5, 15), range(15, 20)
    edges = [(a[i], a[(i + 1) % 5]) for i in range(5)]
    edges += [(b[j], b[(j + 1) % 10]) for j in range(10)]
    edges += [(c[i], c[(i + 1) % 5]) for i in range(5)]
    edges += [(a[i], b[2 * i]) for i in range(5)]
    edges += [(c[i], b[2 * i + 1]) for i in range(5)]
    inst = make_instance(20, edges, {v: [0, 1, 2] for v in range(20)})
    assert inst.plane is not None
    assert {inst.graph.degree(v) for v in range(20)} == {3}
    assert next(iter_reduction_steps(inst), None) is None


def test_first_candidate_is_a_step(k34):
    step = next(iter_reduction_steps(k34), None)
    assert isinstance(step, ReductionStep)
    assert step.rule == "R1"


def test_measure_orders_crossings_before_size(k34, k5x):
    assert measure(k34) == (2, 7, -12)
    assert measure(k5x)[0] == 1
    assert measure(k5x) < measure(k34)


@given(st.integers(0, 10**6), st.integers(8, 14), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_fuzzed_steps_shrink_and_recombine(seed, n, ncr):
    inst = gen_random_instance(GenSpec(n=n, crossings=ncr, seed=seed))
    kids = []
    for step in iter_reduction_steps(inst):
        try:
            phi = step.run(recording(kids))
        except RuleInapplicable:
            continue
        assert validate_coloring(inst.graph, inst.lists, phi) == []
        break
    assert all(measure(k) < measure(inst) for k in kids)


# ---------------------------------------------------------------------------
# scan equivalence: the fast R4/R6 and R5 scans against the plain ones
# ---------------------------------------------------------------------------

# two crossings on far-apart edges of the icosahedron, each through the two
# faces at the crossed edge
ICOSA_TWO_CROSSINGS = [((0, 1), (5, 8)), ((3, 4), (6, 10))]


def r5_reference(g):
    """The plain R5 scan: list the components of G - {u, v} for every pair."""
    if g.n < 4:
        return
    for u in range(g.n):
        for v in range(u + 1, g.n):
            comps = components_without(g, {u, v})
            if len(comps) >= 2:
                yield u, v, comps


def named_graphs():
    tri = [(0, 1), (1, 2), (0, 2)]
    stacked = gen_random_instance(GenSpec(n=16, seed=4)).graph.edges
    return {
        "disconnected, isolated 6": Graph.from_edges(7, tri + [(3, 4), (4, 5), (3, 5)]),
        "isolated only": Graph.from_edges(5, []),
        "bowtie": Graph.from_edges(5, tri + [(2, 3), (3, 4), (2, 4)]),
        "path": Graph.from_edges(6, [(i, i + 1) for i in range(5)]),
        "star": Graph.from_edges(5, [(0, v) for v in range(1, 5)]),
        "C5": Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
        "icosahedron": icosa_instance(ICOSA_TWO_CROSSINGS).graph,
        "stacked": gen_random_instance(GenSpec(n=16, crossings=2, seed=3)).graph,
        "stacked minus 0": Graph.from_edges(16, [e for e in stacked if 0 not in e]),
    }


def test_articulation_with_a_vertex_deleted():
    # 0 hangs off 1 only; 1-2-3 is a triangle; 4 hangs off 3; 5 is isolated
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)])
    whole = articulation(g)
    assert (whole.cuts, whole.components, whole.isolated) == ({1, 3}, 2, {5})
    blocks = sorted(map(sorted, whole.blocks))
    assert blocks == [[(0, 1)], [(1, 2), (1, 3), (2, 3)], [(3, 4)]]
    minus_1 = articulation(g, 1)
    assert (minus_1.cuts, minus_1.components, minus_1.isolated) == ({3}, 3, {0, 5})
    minus_3 = articulation(g, 3)
    assert (minus_3.cuts, minus_3.components, minus_3.isolated) == ({1}, 3, {4, 5})


@pytest.mark.parametrize("name", sorted(named_graphs()))
def test_two_cut_scan_matches_the_pair_loop(name):
    g = named_graphs()[name]
    assert list(_two_cuts(g)) == list(r5_reference(g))
    # the scan's lean passes (no block lists) agree with full ones
    for skip in [None, *range(g.n)]:
        full = articulation(g, skip)
        lean = articulation(g, skip, blocks=False)
        assert lean.blocks == []
        assert (lean.cuts, lean.components, lean.isolated) == (
            full.cuts,
            full.components,
            full.isolated,
        )


@st.composite
def sparse_graphs(draw):
    """Graphs with up to 1.5 edges per vertex: often disconnected, with
    isolated vertices and cut vertices."""
    n = draw(st.integers(0, 11))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n // 2)) if pairs else []
    return Graph.from_edges(n, edges)


@given(sparse_graphs())
@settings(max_examples=300, deadline=None)
def test_two_cut_scan_matches_the_pair_loop_on_sparse_graphs(g):
    assert list(_two_cuts(g)) == list(r5_reference(g))


@given(st.integers(0, 10**6), st.integers(5, 16), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_two_cut_scan_matches_the_pair_loop_on_stacked_drawings(seed, n, k):
    try:
        g = gen_random_instance(GenSpec(n=n, crossings=k, seed=seed)).graph
    except ValueError:
        return
    assert list(_two_cuts(g)) == list(r5_reference(g))
    # deleting a vertex of a triangulation leaves cut pairs on its link
    h = Graph.from_edges(n, [e for e in g.edges if seed % n not in e])
    assert list(_two_cuts(h)) == list(r5_reference(h))


def drawn_instance(source, seed, n, k):
    if source == "generate":
        return gen_random_instance(GenSpec(n=n, crossings=k, seed=seed))
    d = corpora.stacked_drawing(random.Random(seed), n, k)
    return make_instance(d.n, d.edges, d.lists, crossings=d.crossings)


@given(
    st.sampled_from(["generate", "stacked"]),
    st.integers(0, 10**6),
    st.integers(4, 30),
    st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_a_drawing_that_rules_out_two_cuts_has_none(source, seed, n, k):
    try:
        inst = drawn_instance(source, seed, n, k)
    except ValueError:
        return
    # both generators draw crossings through two face triangles
    assert _no_two_cut(inst.plane)
    child, _ = induced_instance(inst, [v for v in range(n) if v != seed % n])
    for x in (inst, child):
        if _no_two_cut(x.plane):
            assert list(r5_reference(x.graph)) == []
            assert list(_r5_two_cut(x)) == []


def test_no_two_cut_declines_a_deletion_child_of_a_triangulation():
    inst = gen_random_instance(GenSpec(n=16, seed=4))
    assert _no_two_cut(inst.plane)
    child, _ = induced_instance(inst, range(1, 16))
    assert not _no_two_cut(child.plane)
    # vertex 0's link is left with cut pairs
    assert list(r5_reference(child.graph))


def test_no_two_cut_declines_an_edge_crossed_twice():
    pg = chords_sharing_a_corner().plane
    assert pg.planar.has_edge(pg.dummy(0), pg.dummy(1))
    assert not _no_two_cut(pg)


def test_no_two_cut_declines_a_dummy_whose_curves_touch():
    # K5 minus 02 is a triangulation; its vertex 4 stands in for the point
    # where edges 01 and 23 touch, so its row reads 0, 1, 2, 3 in turn
    planar = Graph.from_edges(
        5, [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (0, 2)]
    )
    real = Graph.from_edges(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)])
    pg = PlaneGraph(
        real, planar, try_embedding(planar), (CrossingPair.make((0, 1), (2, 3)),)
    )
    assert planar.m == 3 * planar.n - 6
    assert not _no_two_cut(pg)
    # {1, 3} cuts G, though P has no 2-cut
    assert list(r5_reference(real)) == [(1, 3, [[0], [2]])]


def test_no_two_cut_needs_four_vertices():
    k3 = make_instance(3, [(0, 1), (1, 2), (0, 2)], {v: FIVE for v in range(3)})
    k4_edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    k4 = make_instance(4, k4_edges, {v: FIVE for v in range(4)})
    assert k3.plane.planar.m == 3 * 3 - 6
    assert not _no_two_cut(k3.plane)
    assert _no_two_cut(k4.plane)


def assert_facial_rings_are_the_non_separating_ones(inst):
    pg = inst.plane
    rings = [s.params for s in iter_reduction_steps(inst) if s.rule in ("R4", "R6")]
    assert rings
    for ring in rings:
        cs = cycle_sides(pg.planar, pg.rotation, list(ring))
        sides = [{v for v in side if v < pg.n_real} for side in (cs.side_a, cs.side_b)]
        assert _bounds_face(pg.rotation, ring) == (not all(sides)), ring


@pytest.mark.parametrize("ncr", [0, 1, 2])
def test_facial_check_agrees_with_cycle_sides_on_the_icosahedron(ncr):
    inst = icosa_instance(ICOSA_TWO_CROSSINGS[:ncr])
    assert_facial_rings_are_the_non_separating_ones(inst)
    # every triangle of the icosahedron is a face; the R6 squares are not
    pg = inst.plane
    for s in iter_reduction_steps(inst):
        if s.rule in ("R4", "R6"):
            assert _bounds_face(pg.rotation, s.params) == (s.rule == "R4")


@given(st.integers(0, 10**6), st.integers(6, 20), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_facial_check_agrees_with_cycle_sides_on_stacked_drawings(seed, n, k):
    try:
        inst = gen_random_instance(GenSpec(n=n, crossings=k, seed=seed))
    except ValueError:
        return
    assert_facial_rings_are_the_non_separating_ones(inst)


def test_icosahedron_solve_skips_pair_searches_and_facial_rings(monkeypatch):
    inst = icosa_instance(ICOSA_TWO_CROSSINGS)
    pair_calls, side_calls, skip_calls = [], [], []
    real_without, real_sides = reductions.components_without, reductions.cycle_sides
    real_articulation = reductions.articulation

    def counted_without(g, removed):
        pair_calls.append(removed)
        return real_without(g, removed)

    def counted_sides(planar, rotation, cycle):
        side_calls.append((rotation, tuple(cycle)))
        return real_sides(planar, rotation, cycle)

    def counted_articulation(g, skip=None, **kw):
        if skip is not None:
            skip_calls.append(skip)
        return real_articulation(g, skip, **kw)

    monkeypatch.setattr(reductions, "components_without", counted_without)
    monkeypatch.setattr(reductions, "cycle_sides", counted_sides)
    monkeypatch.setattr(reductions, "articulation", counted_articulation)
    phi, stats = solve(inst)
    assert validate_coloring(inst.graph, inst.lists, phi) == []
    assert stats.rules["R8"] == 1
    assert pair_calls == []
    # every drawing the scan sees is triangulated, so R5 makes no 2-cut pass
    assert skip_calls == []
    # each side split is of a ring that does not bound a face, at most once
    assert side_calls
    assert not any(_bounds_face(rot, cyc) for rot, cyc in side_calls)
    assert len(set(side_calls)) == len(side_calls)
