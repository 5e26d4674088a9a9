"""Blocked-walk endgame: path selection, charge accounting, escape branches.

Most tests share one skeleton: a pinned triangle 0-1-2, a spine 0-3-4-5
carrying the chord 3-5, and a K4 on {4,5,6,7} whose diagonals 4-6 and 5-7
cross.  The min-score walk is then 0-3-4-5, and whiskers hung off the spine
steer its blocked final step into each escape branch in turn.
"""

import itertools
import random

import pytest

import crosscolor.endgame as endgame_mod
from crosscolor.endgame import (
    EndgameBlocked,
    _escape_slack,
    _lex_shortest,
    color_along_path,
    compute_g,
    endgame_color,
    find_min_score_path,
    handle_T_near_X,
)
from crosscolor.errors import RuleInapplicable
from crosscolor.generate import GenSpec, gen_random_instance
from crosscolor.graphs import Graph, norm_edge
from crosscolor.instance import make_instance, parse_instance
from crosscolor.oracle import validate_coloring
from crosscolor.solver import solve

from conftest import FIXTURES, icosa_instance
from test_drawing import run_under_python_O

FIVE = [0, 1, 2, 3, 4]

TRI = [(0, 1), (1, 2), (0, 2)]
SPINE = [(0, 3), (3, 4), (4, 5), (3, 5)]
K4 = [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
CROSS = [((4, 6), (5, 7))]
PINS = {0: [9], 1: [10], 2: [11]}


def endgame_instance(extra_edges, lists, n=10):
    edges = []
    for e in TRI + SPINE + K4 + list(extra_edges):
        e = norm_edge(*e)
        if e not in edges:
            edges.append(e)
    full = {k: v for k, v in PINS.items()}
    full.update(lists)
    return make_instance(n, edges, full, crossings=CROSS, triangle=(0, 1, 2))


# whiskers 8 and 9 both end up owning the three colours left at the walk's
# last vertex; their exact lists decide which escape works
F1_W = [(8, 0), (8, 3), (8, 5), (9, 0), (9, 3), (9, 4), (1, 8), (8, 6), (9, 2)]
F1_LISTS = {
    3: [9, 1, 2, 3, 4],
    4: [1, 2, 3, 4, 5],
    5: [1, 2, 3, 4, 5],
    6: [1, 2, 3, 4, 5],
    7: [1, 2, 3, 4, 6],
    8: [9, 1, 2, 3, 4],
    9: [9, 1, 2, 3, 4],
}

F2_W = [
    (8, 0), (8, 3), (8, 5), (9, 0), (9, 3), (9, 4), (1, 8), (8, 6),
    (10, 0), (10, 4), (10, 7), (10, 9), (10, 2),
]

F4_W = [(8, 0), (8, 3), (8, 5), (1, 8), (8, 6)]
F4_LISTS = {
    3: [9, 1, 2, 3, 4],
    4: [1, 2, 3, 4, 5],
    5: [1, 2, 3, 4, 5],
    6: [1, 2, 3, 4, 5],
    7: [1, 2, 3, 4, 5],
    8: [1, 3, 4, 5, 9],
}

F6_W = [(8, 0), (8, 3), (8, 5), (9, 0), (9, 3), (9, 2)]
F6_LISTS = {
    3: [9, 1, 2, 3, 4],
    4: [1, 5, 6, 7, 8],
    5: [1, 2, 3, 4],
    6: [1, 2, 3, 4, 5],
    7: [1, 2, 3, 4, 6],
    8: [9, 1, 2, 3, 4],
    9: [9, 1, 2, 3, 4],
}


def f1():
    return endgame_instance(F1_W, F1_LISTS)


# ---------------------------------------------------------------------------
# path choice
# ---------------------------------------------------------------------------


def brute_best_path(inst):
    """Exhaustive stand-in for find_min_score_path.

    Enumerates every simple uncrossed walk t..ab (interior off the triangle
    and the crossing), then mirrors the contract: per end pair only the
    shortest walks compete, pairs whose shortest walk has fewer than four
    vertices drop out, and the survivors race on (score, path).
    """
    g = inst.graph
    (cr,) = inst.crossings
    crossed = set(cr.edges)
    tri = set(inst.triangle)
    xs = {v for e in cr.edges for v in e}
    if xs & tri:
        return None

    def un(u, v):
        return g.has_edge(u, v) and norm_edge(u, v) not in crossed

    buckets: dict = {}
    block = tri | xs

    def grow(path):
        v = path[-1]
        for a in sorted(xs):
            if not un(v, a):
                continue
            for b in sorted(xs):
                if b != a and b not in path and un(a, b):
                    full = path + [a, b]
                    score = 2 * len(full) - (1 if g.has_edge(full[-3], b) else 0)
                    buckets.setdefault((a, b), []).append((score, tuple(full)))
        for w in sorted(g.adj[v]):
            if w not in block and w not in path and un(v, w):
                grow(path + [w])

    for t in sorted(tri):
        grow([t])

    best = None
    for cands in buckets.values():
        kmin = min(len(p) for _, p in cands)
        if kmin < 4:
            continue
        rep = min(c for c in cands if len(c[1]) == kmin)
        if best is None or rep < best:
            best = rep
    return list(best[1]) if best else None


def path_is_admissible(inst, path):
    g = inst.graph
    (cr,) = inst.crossings
    crossed = set(cr.edges)
    tri = set(inst.triangle)
    xs = {v for e in cr.edges for v in e}
    return (
        len(path) >= 4
        and len(set(path)) == len(path)
        and path[0] in tri
        and all(v not in tri and v not in xs for v in path[1:-2])
        and path[-2] in xs
        and path[-1] in xs
        and all(
            g.has_edge(u, v) and norm_edge(u, v) not in crossed
            for u, v in zip(path, path[1:])
        )
    )


def test_min_score_path_prefers_the_chord():
    # 0-3-4-5 and 0-3-5-4 are both shortest; the 3-5 chord breaks the tie
    assert find_min_score_path(f1()) == [0, 3, 4, 5]


def test_min_score_path_matches_exhaustive_search():
    checked = 0
    for seed in range(60):
        try:
            inst = gen_random_instance(
                GenSpec(n=11, crossings=1, triangle=True, seed=seed)
            )
        except ValueError:
            continue  # the drawing left no room for a quiet triangle
        checked += 1
        got = find_min_score_path(inst)
        assert got == brute_best_path(inst)
        if got is not None:
            assert path_is_admissible(inst, got)
    assert checked >= 40


def lex_shortest_reference(g, crossed, allowed, sources, target, chord_to):
    """Layered reference for ``_lex_shortest`` (its earlier implementation).

    A forward search from the sources gives each vertex its distance j;
    layer j then keeps the vertices at forward distance j that reach
    ``target`` through layers j+1, j+2, ... (the last one seeing
    ``chord_to`` on the first try), and the path takes the least vertex of
    each layer next to the previous one.
    """
    ok = set(allowed)

    def nbrs(v):
        return [
            u for u in g.adj[v] if u in ok and norm_edge(u, v) not in crossed
        ]

    dist = {s: 0 for s in sources if s in ok}
    frontier = sorted(dist)
    while frontier:
        nxt = []
        for v in frontier:
            for u in nbrs(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = sorted(set(nxt))
    if target not in dist:
        return None
    d = dist[target]

    def build(require_chord):
        layers = [set() for _ in range(d + 1)]
        layers[d] = {target}
        for j in range(d - 1, -1, -1):
            for v in (u for u in ok if dist.get(u) == j):
                heads = layers[j + 1] & set(nbrs(v))
                if not heads:
                    continue
                if require_chord and j == d - 1 and not g.has_edge(v, chord_to):
                    continue
                layers[j].add(v)
        starts = sorted(layers[0] & sources)
        if not starts:
            return None
        path = [starts[0]]
        for j in range(1, d + 1):
            step = sorted(layers[j] & set(nbrs(path[-1])))
            if not step:
                return None
            path.append(step[0])
        return path

    return build(True) or build(False)


def test_lex_shortest_matches_the_layered_reference():
    rng = random.Random(0)
    found = chorded = 0
    for _ in range(3000):
        n = rng.randint(2, 14)
        p = rng.uniform(0.15, 0.6)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph.from_edges(n, edges)
        crossed = {e for e in edges if rng.random() < 0.2}
        target = rng.randrange(n)
        allowed = [v for v in range(n) if v == target or rng.random() < 0.85]
        sources = {v for v in range(n) if rng.random() < 0.25}
        chord_to = rng.randrange(n)
        args = (g, crossed, allowed, sources, target, chord_to)
        got = _lex_shortest(*args)
        assert got == lex_shortest_reference(*args), args
        if got is not None:
            found += 1
            chorded += len(got) > 1 and g.has_edge(got[-2], chord_to)
    assert found > 1500 and chorded > 500


def test_no_path_without_an_uncrossed_corner_edge():
    # both corner-to-corner edges are the crossed ones, so no walk can land
    inst = make_instance(
        8,
        [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (3, 5), (3, 6), (3, 7),
         (4, 6), (5, 7)],
        {0: [9], 1: [10], 2: [11], **{v: FIVE for v in range(3, 8)}},
        crossings=[((4, 6), (5, 7))],
        triangle=(0, 1, 2),
    )
    assert inst.plane is not None
    assert find_min_score_path(inst) is None
    counters: dict = {}
    assert endgame_color(inst, counters) is None
    assert counters == {"giveup.no_path": 1}


# ---------------------------------------------------------------------------
# charge accounting
# ---------------------------------------------------------------------------


def test_charge_map_picks_top_slots():
    assert compute_g(f1(), [0, 3, 4, 5]) == {4: 8, 3: 9}


PUNTS = [
    pytest.param(
        [(10, 0), (10, 3), (10, 5)], {10: FIVE}, 11, [0, 3, 4, 5],
        "charged twice", id="two-chargers",
    ),
    pytest.param(
        [(1, 3), (1, 4)], {}, 10, [0, 3, 5, 4],
        "crowds the path", id="greedy-corner",
    ),
    pytest.param(
        [(6, 3)], {}, 10, [0, 3, 4, 5],
        "crossing endpoint", id="crossing-endpoint",
    ),
    pytest.param(
        [(10, 0), (10, 3), (10, 4), (10, 5)], {10: FIVE}, 11, [0, 3, 4, 5],
        "holds path slots", id="four-slots",
    ),
]


@pytest.mark.parametrize("extra, more, n, path, message", PUNTS)
def test_charge_map_punts(extra, more, n, path, message):
    inst = endgame_instance(F1_W + extra, {**F1_LISTS, **more}, n=n)
    assert find_min_score_path(inst) == path
    with pytest.raises(RuleInapplicable, match=message):
        compute_g(inst, path)


# ---------------------------------------------------------------------------
# the blocked final step and its escapes
# ---------------------------------------------------------------------------


def test_blocked_state_reports_the_shared_colours():
    inst = f1()
    res = color_along_path(inst, [0, 3, 4, 5])
    assert isinstance(res, EndgameBlocked)
    assert res.path == (0, 3, 4, 5)
    assert res.psi == {0: 9, 1: 10, 2: 11, 3: 1, 4: 5}
    assert res.block == 8
    assert res.live == frozenset({2, 3, 4})
    # recount both residuals from the reported psi: the walk's last vertex
    # and its blocker really are stuck on the same three colours
    for v in (res.path[-1], res.block):
        left = set(inst.lists[v]) - {
            res.psi[u] for u in inst.graph.adj[v] if u in res.psi
        }
        assert left == set(res.live)


ESCAPES = [
    pytest.param(lambda: f1(), "detour_far", id="detour-far"),
    pytest.param(
        lambda: endgame_instance(
            F2_W, {**F1_LISTS, 10: [9, 5, 1, 6, 2]}, n=11
        ),
        "detour_near",
        id="detour-near",
    ),
    pytest.param(
        lambda: endgame_instance(F1_W, {**F1_LISTS, 3: [9, 1, 2, 3, 5]}),
        "offset",
        id="offset",
    ),
    pytest.param(
        lambda: endgame_instance(F4_W, F4_LISTS, n=9), "swapped", id="swapped"
    ),
    pytest.param(
        lambda: endgame_instance(F6_W, F6_LISTS), "fresh_pair", id="fresh-pair"
    ),
]


@pytest.mark.parametrize("build, branch", ESCAPES)
def test_escape_branches(build, branch):
    inst = build()
    assert find_min_score_path(inst) == [0, 3, 4, 5]
    counters: dict = {}
    out = endgame_color(inst, counters)
    assert out is not None
    assert validate_coloring(inst.graph, inst.lists, out) == []
    assert counters == {"blocked": 1, "blocked_b3": 1, branch: 1}
    for t in inst.triangle:
        assert out[t] == min(inst.lists[t])


@pytest.mark.parametrize(
    "name, expected",
    [
        ("geodesic_5of5_s0_path", {"path": 1}),
        ("geodesic_5of5_s15_swapped", {"blocked": 1, "blocked_b3": 1, "swapped": 1}),
        (
            "geodesic_5of5_s56_detour_far",
            {"blocked": 1, "blocked_b3": 1, "detour_far": 1},
        ),
    ],
)
def test_tight_lists_reach_the_endgame_through_solve(name, expected):
    # 42-vertex geodesic drawings with 2 crossings and every list {0,...,4}:
    # R8 fires once and its child is finished by the walk endgame
    inst = parse_instance((FIXTURES / "endgame" / f"{name}.json").read_text())
    phi, stats = solve(inst, use_fallback=False)
    assert validate_coloring(inst.graph, inst.lists, phi) == []
    assert stats.rules["R8"] == 1
    assert stats.endgame == expected


def nothing(*args, **kwargs):
    return None


def punt(*args, **kwargs):
    raise RuleInapplicable("forced punt")


GIVEUPS = [
    pytest.param(
        {"handle_T_near_X": nothing, "find_min_score_path": nothing},
        {"giveup.no_path": 1},
        id="no-path",
    ),
    pytest.param(
        {"color_along_path": punt}, {"giveup.path_punt": 1}, id="path-punt"
    ),
    pytest.param(
        {
            name: nothing
            for name in (
                "_escape_slack",
                "_escape_offset",
                "_escape_fresh_pair",
                "_escape_detour_far",
                "_escape_detour_near",
            )
        },
        {"blocked": 1, "blocked_b3": 1, "giveup.escapes": 1},
        id="escapes",
    ),
]


@pytest.mark.parametrize("patches, expected", GIVEUPS)
def test_every_giveup_is_counted(monkeypatch, patches, expected):
    for name, fake in patches.items():
        monkeypatch.setattr(endgame_mod, name, fake)
    counters: dict = {}
    assert endgame_color(f1(), counters) is None
    assert counters == expected


def test_slack_escape_spends_a_wide_blocker():
    # a genuine block always leaves the blocker at most three colours, so
    # the five-colour slack route only answers a hand-made state
    inst = endgame_instance(
        [(8, 4), (8, 5)],
        {
            3: [9, 1, 2, 3, 4],
            **{v: [1, 2, 3, 4, 5] for v in range(4, 9)},
        },
        n=9,
    )
    st = EndgameBlocked(
        path=(0, 3, 4, 5),
        psi={0: 9, 1: 10, 2: 11, 3: 1, 4: 5},
        block=8,
        live=frozenset({2, 3, 4}),
    )
    out = _escape_slack(inst, st)
    assert isinstance(out, dict)
    assert validate_coloring(inst.graph, inst.lists, out) == []


PATH_CHECKS_UNDER_O = """
from crosscolor import endgame
from crosscolor.instance import make_instance

five = [1, 2, 3, 4, 5]
edges = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (3, 5),
         (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
inst = make_instance(
    8, edges, {0: [9], 1: [10], 2: [11], **{v: five for v in range(3, 8)}},
    crossings=[((4, 6), (5, 7))], triangle=(0, 1, 2),
)
plain = endgame.residual_lists
for path, residuals in (
    ([3, 4, 5], plain),
    # the recount after the first paint disagrees with the running lists
    ([0, 3, 4, 5], lambda g, lists, psi: {} if len(psi) > 3 else plain(g, lists, psi)),
):
    endgame.residual_lists = residuals
    try:
        endgame.color_along_path(inst, path)
    except AssertionError as e:
        print(e)
    else:
        print("unchecked", path)
"""


def test_path_checks_survive_python_O():
    assert run_under_python_O(PATH_CHECKS_UNDER_O) == [
        "path [3, 4, 5] is too short or starts off the triangle",
        "incremental residuals drifted",
    ]


# ---------------------------------------------------------------------------
# triangle already near the crossing
# ---------------------------------------------------------------------------


def test_touching_corner_short_circuits():
    k5 = make_instance(
        5,
        list(itertools.combinations(range(5), 2)),
        {0: [9], 1: [10], 2: [11], 3: FIVE, 4: FIVE},
        crossings=[((0, 3), (1, 4))],
        triangle=(0, 1, 2),
    )
    assert find_min_score_path(k5) is None  # two corners sit on the crossing
    out = handle_T_near_X(k5)
    assert out is not None
    assert validate_coloring(k5.graph, k5.lists, out) == []
    counters: dict = {}
    assert endgame_color(k5, counters) is not None
    assert counters == {"near_x": 1}


def test_bordering_triangle_short_circuits():
    lists = {v: FIVE for v in range(12)}
    lists[2], lists[3], lists[6] = [10], [11], [12]
    inst = icosa_instance(
        crossings=[((0, 1), (5, 8))], lists=lists, triangle=(2, 3, 6)
    )
    counters: dict = {}
    out = endgame_color(inst, counters)
    assert counters == {"near_x": 1}
    assert out is not None
    assert validate_coloring(inst.graph, inst.lists, out) == []
