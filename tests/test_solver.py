"""Whole-pipeline behaviour: dispatch, stats accounting, fallback policy."""

import os
import pathlib
import subprocess
import sys

from hypothesis import given, settings, strategies as st
import pytest

import crosscolor
from crosscolor.errors import PipelineIncompleteError
from crosscolor.generate import GenSpec, gen_random_instance
from crosscolor.instance import instance_mode, make_instance
from crosscolor.oracle import exact_list_color, validate_coloring
from crosscolor.solver import solve

from conftest import icosa_instance
from test_drawing import run_under_python_O

FIVE = [0, 1, 2, 3, 4]


def assert_valid(inst, phi):
    assert phi is not None
    assert validate_coloring(inst.graph, inst.lists, phi) == []


def test_empty_instance():
    phi, stats = solve(make_instance(0, [], {}))
    assert phi == {}
    assert stats.steps_applied == 0


def test_planar_no_triangle_needs_no_rules():
    inst = make_instance(
        4,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        {v: FIVE for v in range(4)},
    )
    phi, stats = solve(inst)
    assert_valid(inst, phi)
    assert stats.steps_applied == 0
    assert set(stats.rules.values()) == {0}
    assert stats.fallback_invocations == 0
    assert stats.endgame == {}


def test_planar_triangle_extends_from_a_corner():
    lists = {v: FIVE for v in range(12)}
    lists[0], lists[1], lists[5] = [10], [11], [12]
    inst = icosa_instance(lists=lists, triangle=(0, 1, 5))
    phi, stats = solve(inst)
    assert_valid(inst, phi)
    assert (phi[0], phi[1], phi[5]) == (10, 11, 12)
    assert stats.steps_applied == 0
    assert stats.fallback_invocations == 0


def test_k5_spends_all_five_colours(k5x):
    phi, stats = solve(k5x)
    assert_valid(k5x, phi)
    assert len(set(phi.values())) == 5
    assert stats.fallback_invocations == 0


def test_k34_runs_on_degree_drops(k34):
    phi, stats = solve(k34)
    assert_valid(k34, phi)
    assert stats.rules["R1"] >= 1
    assert stats.fallback_invocations == 0


def test_single_crossing_resolved_by_the_gadget():
    inst = icosa_instance(crossings=[((0, 1), (5, 8))])
    phi, stats = solve(inst, use_fallback=False)
    assert_valid(inst, phi)
    assert stats.rules["R8"] == 1
    assert stats.fallback_invocations == 0


def test_two_crossings_end_in_the_walk_endgame():
    inst = icosa_instance(crossings=[((0, 1), (5, 8)), ((2, 3), (6, 9))])
    phi, stats = solve(inst, use_fallback=False)
    assert_valid(inst, phi)
    assert stats.rules["R8"] == 1
    assert stats.endgame == {"near_x": 1}
    assert stats.fallback_invocations == 0


def test_replays_are_identical():
    inst = icosa_instance(crossings=[((0, 1), (5, 8)), ((2, 3), (6, 9))])
    phi1, s1 = solve(inst)
    phi2, s2 = solve(inst)
    assert phi1 == phi2
    d1, d2 = s1.as_dict(), s2.as_dict()
    d1.pop("wall_time_ms")
    d2.pop("wall_time_ms")
    assert d1 == d2


def test_fallback_off_raises_outside_the_shapes():
    inst = make_instance(
        3, [(0, 1), (1, 2), (0, 2)], {v: [0, 1, 2] for v in range(3)}
    )
    assert instance_mode(inst) is None
    with pytest.raises(PipelineIncompleteError):
        solve(inst, use_fallback=False)


def test_out_of_shape_goes_straight_to_search():
    # an even cycle on 2-lists is colourable, but no rule speaks for it
    cyc = [(i, (i + 1) % 6) for i in range(6)]
    inst = make_instance(6, cyc, {v: [0, 1] for v in range(6)})
    assert instance_mode(inst) is None
    phi, stats = solve(inst)
    assert_valid(inst, phi)
    assert stats.fallback_invocations == 1
    assert phi == exact_list_color(inst.graph, inst.lists)


def test_out_of_shape_unsolvable_is_a_clean_none():
    inst = make_instance(
        3, [(0, 1), (1, 2), (0, 2)], {v: [7] for v in range(3)}
    )
    phi, stats = solve(inst)
    assert phi is None
    assert stats.fallback_invocations == 1


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(8, 13),
    ncr=st.integers(0, 2),
    seed=st.integers(0, 10_000),
)
def test_random_drawn_instances_always_colour(n, ncr, seed):
    try:
        inst = gen_random_instance(GenSpec(n=n, crossings=ncr, seed=seed))
    except ValueError:
        return  # too cramped for that many disjoint crossings
    phi, stats = solve(inst)
    assert_valid(inst, phi)


@settings(deadline=None, max_examples=25)
@given(n=st.integers(8, 13), ncr=st.integers(0, 1), seed=st.integers(0, 10_000))
def test_random_pinned_triangles_keep_their_pins(n, ncr, seed):
    try:
        inst = gen_random_instance(
            GenSpec(n=n, crossings=ncr, seed=seed, triangle=True)
        )
    except ValueError:
        return
    phi, stats = solve(inst)
    assert_valid(inst, phi)
    for t in inst.triangle:
        assert phi[t] == min(inst.lists[t])


# Each case breaks one colourer so that it hands back a bad colouring, runs
# under ``python -O`` (which strips every ``assert``), and names the check
# that must still catch it.
BROKEN_COLORERS = {
    "solve": ("""
solver.observation_extend = lambda pg, lists, psi, pair=None: dict.fromkeys(range(pg.n_real), 0)
solver.solve(K4)
""", "solver produced a bad colouring"),
    "apex-side": ("""
def moving(child):
    phi = exact_list_color(child.graph, child.lists)
    if child.triangle is not None:
        phi[child.triangle[0]] += 100
    return phi
step = next(s for s in iter_reduction_steps(BLOBS) if s.params == ("cut", 0))
step.run(moving)
""", "apexed side moved the pinned cut"),
    "reduction-step": ("""
bad = ReductionStep("R1", (0,), lambda solve_child: dict.fromkeys(range(5), 0))
solver.iter_reduction_steps = lambda inst: iter([bad])
solver.solve(K5X)
""", "R1(0,) recombined badly"),
    "endgame": ("""
solver.iter_reduction_steps = lambda inst: iter(())
solver.endgame_color = lambda inst, events: dict.fromkeys(range(inst.n), 0)
solver.solve(K5X_PINNED)
""", "endgame recombined badly"),
    "observation-extend": ("""
thomassen._color_pieces = lambda g, rotation, lists, pieces: dict.fromkeys(range(g.n), 0)
thomassen.observation_extend(K4.plane, K4.lists, {})
""", "extension broke the colouring"),
    "thomassen-color": ("""
thomassen._Engine.color_component = lambda self, scope, x, y: None
thomassen.thomassen_color(thomassen.BoundaryTask(K4.graph, K4.plane.rotation, K4.lists, 0, 1))
""", "boundary recursion produced an invalid colouring"),
}

BROKEN_PRELUDE = """
import crosscolor.solver as solver
import crosscolor.thomassen as thomassen
from crosscolor.errors import InvalidColoringError
from crosscolor.instance import make_instance
from crosscolor.oracle import exact_list_color
from crosscolor.reductions import ReductionStep, iter_reduction_steps

K5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
K4 = make_instance(4, [e for e in K5 if 4 not in e], [range(5)] * 4)
K5X = make_instance(5, K5, [range(5)] * 5, crossings=[((0, 3), (1, 4))])
K5X_PINNED = make_instance(
    5, K5, [[5], [6], [7], range(5), range(5)],
    crossings=[((0, 3), (1, 4))], triangle=(0, 1, 2),
)
# two crossed K4s hung on the cut vertex 0, plus a pendant vertex
BLOBS = make_instance(
    10,
    [(0, 1), (0, 5), (0, 9)] + [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    + [(a, b) for a in range(5, 9) for b in range(a + 1, 9)],
    [range(5)] * 10, crossings=[((1, 3), (2, 4)), ((5, 7), (6, 8))],
)
try:
{body}
except InvalidColoringError as e:
    print(e)
else:
    raise SystemExit("bad colouring went unnoticed")
"""


@pytest.mark.parametrize("case", sorted(BROKEN_COLORERS))
def test_bad_colourings_are_caught_under_python_O(case):
    code, message = BROKEN_COLORERS[case]
    body = "".join(f"    {line}\n" for line in code.strip().splitlines())
    src = str(pathlib.Path(crosscolor.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_PRELUDE.format(body=body)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(message)


UNSHRUNK_CHILD_UNDER_O = """
import crosscolor.solver as solver
from crosscolor.instance import make_instance
from crosscolor.reductions import ReductionStep

K5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
K5X = make_instance(5, K5, [range(5)] * 5, crossings=[((0, 3), (1, 4))])
same = ReductionStep("R1", (0,), lambda solve_child: solve_child(K5X))
solver.iter_reduction_steps = lambda inst: iter([same])
try:
    solver.solve(K5X)
except AssertionError as e:
    print(e)
else:
    raise SystemExit("a child as large as its parent went unnoticed")
"""


def test_child_that_does_not_shrink_is_caught_under_python_O():
    (line,) = run_under_python_O(UNSHRUNK_CHILD_UNDER_O)
    assert line == "child (1, 5, -10) not below parent (1, 5, -10)"


OUT_OF_SHAPE_CHILD_UNDER_O = """
import crosscolor.solver as solver
from crosscolor.instance import make_instance
from crosscolor.reductions import ReductionStep

K5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
K5X = make_instance(5, K5, [range(5)] * 5, crossings=[((0, 3), (1, 4))])
K4_SHORT = make_instance(4, [e for e in K5 if 4 not in e], [range(4)] * 4)
cramped = ReductionStep("R1", (4,), lambda solve_child: solve_child(K4_SHORT))
solver.iter_reduction_steps = lambda inst: iter([cramped])
try:
    solver.solve(K5X)
except AssertionError as e:
    print(e)
else:
    raise SystemExit("a child with 4-lists went unnoticed")
"""


def test_out_of_shape_child_is_caught_under_python_O():
    (line,) = run_under_python_O(OUT_OF_SHAPE_CHILD_UNDER_O)
    assert line.startswith("reduction built an out-of-shape child")
    assert "vertex 0 has only 4 colours" in line


UNDRAWABLE_UNDER_O = """
from crosscolor.endgame import endgame_color
from crosscolor.instance import make_instance
from crosscolor.reductions import iter_reduction_steps

K5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
plain = make_instance(5, K5, [range(5)] * 5)
pinned = make_instance(5, K5, [[5], [6], [7], range(5), range(5)], triangle=(0, 1, 2))
for run in (lambda: iter_reduction_steps(plain), lambda: endgame_color(pinned, {})):
    try:
        run()
    except AssertionError as e:
        print(e)
    else:
        raise SystemExit("an undrawable instance went unnoticed")
"""


def test_undrawable_instances_are_refused_under_python_O():
    # K5 without a crossing has no drawing; the solver never scans or
    # finishes one, and the two entry points say so outright
    lines = run_under_python_O(UNDRAWABLE_UNDER_O)
    assert lines == [
        "the reduction scan needs a drawable instance",
        "the endgame needs a drawable instance",
    ]
