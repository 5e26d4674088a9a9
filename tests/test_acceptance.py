"""Desk-scale bulk sweeps over the package's headline guarantees.

Each test prints one summary line (visible under ``pytest -rA`` or ``-s``)
so a full run reads as a checklist: boundary-task colouring in bulk, the
two-crossing pipeline, oracle agreement on the small-graph catalog, gadget
round-trips, choosability ground truths, reduction soundness under fuzz,
and branch coverage of the walk endgame.
"""

import itertools
import random
import time

import networkx as nx

from crosscolor.endgame import (
    EndgameBlocked,
    _escape_slack,
    color_along_path,
    endgame_color,
)
from crosscolor.errors import RuleInapplicable
from crosscolor.generate import (
    GenSpec,
    gen_random_instance,
    random_plane_triangulation,
)
from crosscolor.graphs import Graph
from crosscolor.instance import make_instance, parse_instance
from crosscolor.oracle import exact_list_color, is_k_choosable, validate_coloring
from crosscolor.reductions import crossing_gadget, iter_reduction_steps, measure
from crosscolor.solver import solve
from crosscolor.thomassen import BoundaryTask, thomassen_color, trace_face

from conftest import FIXTURES
from test_endgame import ESCAPES, F1_LISTS, F1_W, endgame_instance


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def test_bulk_boundary_tasks_color_within_a_minute():
    t0 = time.perf_counter()
    good = 0
    rounds = 1000
    for i in range(rounds):
        rng = random.Random(i)
        n = rng.randrange(4, 41)
        edges, _ = random_plane_triangulation(n, rng)
        pg = make_instance(n, edges, {v: [0] for v in range(n)}).plane
        walk = trace_face(pg.rotation, None, 0, 1)
        lists = [frozenset(rng.sample(range(15), 5)) for _ in range(n)]
        for v in walk:
            lists[v] = frozenset(rng.sample(sorted(lists[v]), 3))
        cx = min(lists[0])
        cy = min(set(lists[1]) - {cx})
        lists[0], lists[1] = frozenset({cx}), frozenset({cy})
        task = BoundaryTask(
            graph=pg.real, rotation=pg.rotation, lists=tuple(lists), x=0, y=1
        )
        phi = thomassen_color(task)
        good += not validate_coloring(pg.real, lists, phi)
    took = time.perf_counter() - t0
    assert good == rounds
    assert took < 60.0
    print(f"boundary tasks: {good}/{rounds} valid in {took:.1f}s -- PASS")


def test_bulk_two_crossing_instances_all_solve():
    solved = pipeline_only = count = 0
    seed = 0
    while count < 500:
        seed += 1
        n = random.Random(seed * 31).randrange(8, 31)
        try:
            inst = gen_random_instance(GenSpec(n=n, crossings=2, seed=seed))
        except ValueError:
            continue
        count += 1
        phi, stats = solve(inst)
        if phi is not None and not validate_coloring(inst.graph, inst.lists, phi):
            solved += 1
            pipeline_only += stats.fallback_invocations == 0
    assert solved == count == 500
    # informational: how often the constructive pipeline finished alone
    print(
        f"two-crossing solves: {solved}/{count} valid, "
        f"pipeline-only rate {pipeline_only / count:.1%} -- PASS"
    )


def _some_drawing(n, edges, rng):
    """A drawable crossing set with at most two crossings, or None."""
    if make_instance(n, edges, {v: [0] for v in range(n)}).plane is not None:
        return ()
    pairs = [
        (e, f)
        for e, f in itertools.combinations(edges, 2)
        if not (set(e) & set(f))
    ]
    rng.shuffle(pairs)
    for pr in pairs:
        inst = make_instance(
            n, edges, {v: [0] for v in range(n)}, crossings=[pr]
        )
        if inst.plane is not None:
            return (pr,)
    doubles = list(itertools.combinations(range(len(pairs)), 2))
    rng.shuffle(doubles)
    for i, j in doubles[:4000]:
        crs = [pairs[i], pairs[j]]
        if len({e for c in crs for e in c}) != 4:
            continue  # an edge can host at most one crossing
        inst = make_instance(
            n, edges, {v: [0] for v in range(n)}, crossings=crs
        )
        if inst.plane is not None:
            return tuple(crs)
    return None


def test_small_graph_catalog_agrees_with_the_oracle():
    atlas = [
        g
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() and nx.is_connected(g)
    ]
    drawn = skipped = agree = total = sat5 = 0
    for idx, g in enumerate(atlas):
        n = g.number_of_nodes()
        edges = sorted(tuple(sorted(e)) for e in g.edges())
        rng = random.Random(idx)
        crs = _some_drawing(n, edges, rng)
        if crs is None:
            skipped += 1  # needs three or more crossings; out of scope
            continue
        drawn += 1
        for _ in range(3):
            lists = {
                v: rng.sample(range(7), rng.choice([3, 4, 5]))
                for v in range(n)
            }
            inst = make_instance(n, edges, lists, crossings=list(crs))
            phi, _ = solve(inst)
            want = exact_list_color(inst.graph, inst.lists)
            total += 1
            agree += (phi is None) == (want is None)
            if phi is not None:
                assert validate_coloring(inst.graph, inst.lists, phi) == []
        lists5 = {v: rng.sample(range(15), 5) for v in range(n)}
        inst5 = make_instance(n, edges, lists5, crossings=list(crs))
        phi5, _ = solve(inst5)
        sat5 += phi5 is not None and not validate_coloring(
            inst5.graph, inst5.lists, phi5
        )
    assert agree == total
    assert sat5 == drawn
    print(
        f"catalog: {drawn} graphs drawn ({skipped} undrawable skipped), "
        f"{agree}/{total} oracle agreements, {sat5}/{drawn} all-5 colourable "
        "-- PASS"
    )


def _gadget_child(inst, index):
    e1, e2 = inst.crossings[index].edges
    for x, xp in (e1, e1[::-1]):
        for y, yp in (e2, e2[::-1]):
            made = crossing_gadget(inst, index, x, xp, y, yp)
            if made is not None:
                return made, (x, xp, y, yp)
    return None, None


def _pull_back_through_gadget(inst):
    made, names = _gadget_child(inst, 0)
    assert made is not None, "no drawable apex orientation"
    child, vtx = made
    x, xp, y, yp = names
    assert child.n == inst.n + 1
    assert len(child.crossings) == len(inst.crossings) - 1 == 1
    (fresh,) = child.lists[vtx]
    assert all(fresh not in inst.lists[v] for v in range(inst.n))
    sub, _ = solve(child)
    assert sub is not None
    assert sub[xp] != fresh
    assert sub[yp] != fresh
    pulled = {v: c for v, c in sub.items() if v != vtx}
    assert validate_coloring(inst.graph, inst.lists, pulled) == []


def test_gadget_round_trips_pull_back_cleanly():
    k34 = parse_instance((FIXTURES / "k34_two_crossings.json").read_text())
    _pull_back_through_gadget(k34)
    done = 0
    seed = 0
    while done < 50:
        seed += 1
        n = random.Random(seed * 17).randrange(8, 26)
        try:
            inst = gen_random_instance(GenSpec(n=n, crossings=2, seed=seed))
        except ValueError:
            continue
        _pull_back_through_gadget(inst)
        done += 1
    print(f"gadget round-trips: K3,4 plus {done}/50 generated -- PASS")


def test_choosability_ground_truths():
    k4 = list(itertools.combinations(range(4), 2))
    k24 = [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)]
    cases = [
        ("C4", 4, _cycle(4), 2, True),
        ("C6", 6, _cycle(6), 2, True),
        ("C5", 5, _cycle(5), 2, False),
        ("C3", 3, _cycle(3), 2, False),
        ("K4", 4, k4, 3, False),
        ("K2,4", 6, k24, 2, False),
    ]
    for name, n, edges, k, expect in cases:
        g = Graph.from_edges(n, edges)
        yes, witness = is_k_choosable(g, k, budget=10_000_000)
        assert yes is expect, name
        if not expect:
            assert sorted(witness) == list(range(n))
            assert all(len(witness[v]) == k for v in witness)
            # the witness really admits no colouring
            assert exact_list_color(g, [witness[v] for v in range(n)]) is None
    print(f"choosability: {len(cases)}/{len(cases)} ground truths -- PASS")


def test_fuzzed_reductions_stay_sound():
    fired = violations = solves = 0
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randrange(8, 25)
        ncr = rng.choice([0, 1, 2])
        tri = ncr <= 1 and rng.random() < 0.4
        try:
            inst = gen_random_instance(
                GenSpec(n=n, crossings=ncr, seed=seed, triangle=tri)
            )
        except ValueError:
            continue
        # the driver re-validates after every fired step and checks child
        # measures, so a full solve is itself the soundness harness
        phi, stats = solve(inst)
        solves += 1
        assert phi is not None
        assert validate_coloring(inst.graph, inst.lists, phi) == []
        fired += stats.steps_applied
        # independently re-fire the first applicable step and re-check
        for step in iter_reduction_steps(inst):
            kids = []

            def child_solver(ch):
                kids.append(ch)
                sub, _ = solve(ch)
                return sub

            try:
                phi2 = step.run(child_solver)
            except RuleInapplicable:
                continue
            if validate_coloring(inst.graph, inst.lists, phi2):
                violations += 1
            if any(measure(ch) >= measure(inst) for ch in kids):
                violations += 1
            break
    assert violations == 0
    print(
        f"reduction fuzz: {solves} solves, {fired} fired steps, "
        f"{violations} violations -- PASS"
    )


def test_endgame_branches_all_reached():
    covered = []
    for param in ESCAPES:
        build, branch = param.values
        inst = build()
        counters: dict = {}
        out = endgame_color(inst, counters)
        assert out is not None
        assert validate_coloring(inst.graph, inst.lists, out) == []
        assert counters[branch] == 1
        covered.append(branch)
    # blocked-step bookkeeping: the reported residuals match a recount
    # (the walk colourer also asserts incremental == from-scratch per step)
    inst = endgame_instance(F1_W, F1_LISTS)
    res = color_along_path(inst, [0, 3, 4, 5])
    assert isinstance(res, EndgameBlocked)
    assert len(res.live) == 3
    for v in (res.path[-1], res.block):
        left = set(inst.lists[v]) - {
            res.psi[u] for u in inst.graph.adj[v] if u in res.psi
        }
        assert left == set(res.live)
    # the wide-blocker recolour only answers synthetic states, but it must
    # answer them correctly
    wide = endgame_instance(
        [(8, 4), (8, 5)],
        {3: [9, 1, 2, 3, 4], **{v: [1, 2, 3, 4, 5] for v in range(4, 9)}},
        n=9,
    )
    st = EndgameBlocked(
        path=(0, 3, 4, 5),
        psi={0: 9, 1: 10, 2: 11, 3: 1, 4: 5},
        block=8,
        live=frozenset({2, 3, 4}),
    )
    out = _escape_slack(wide, st)
    assert isinstance(out, dict)
    assert validate_coloring(wide.graph, wide.lists, out) == []
    covered.append("slack")
    assert sorted(covered) == [
        "detour_far", "detour_near", "fresh_pair", "offset", "slack", "swapped",
    ]
    print(f"endgame branches: {len(covered)}/6 escapes exercised -- PASS")
