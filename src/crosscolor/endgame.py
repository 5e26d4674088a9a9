"""The irreducible case: one crossing, a pinned triangle, nothing to shrink.

The plan is to walk a cheapest path from the pinned triangle into the
crossing, colouring as we go so that every colour is forced off the lists
of the vertices that could later choke.  The remaining graph then loses
both crossed edges and is finished by a plane extension whose soft pair is
the two unpinned triangle corners.

A step can become *blocked* only at the last path vertex, and only when a
single off-path vertex holds exactly the three colours the path end still
has.  ``resolve_blocked_endgame`` then tries a fixed table of escapes:
walk the path again with its last two vertices swapped, recolour one tail
vertex and replay the rest of the path, or bend the tail around the
blocker onto a partner corner of the crossing.

Everything here punts (``RuleInapplicable``) rather than guessing when the
geometry it expects is absent; the caller falls back to exhaustive search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Sequence

from .errors import RuleInapplicable
from .graphs import Graph, norm_edge
from .instance import Coloring, Instance
from .thomassen import observation_extend, residual_lists


def _xset(inst: Instance) -> set[int]:
    (cr,) = inst.crossings
    return {v for e in cr.edges for v in e}


def _partner(inst: Instance, v: int) -> int:
    """The other endpoint of the crossed edge through ``v``."""
    (cr,) = inst.crossings
    e = cr.a if v in cr.a else cr.b
    return e[0] if e[1] == v else e[1]


def _soft_pair(inst: Instance, used: int) -> tuple[int, int]:
    a, b = (t for t in inst.triangle if t != used)
    return a, b


def _finish(inst: Instance, psi: Mapping[int, int], used: int) -> Coloring | None:
    """Extend ``psi`` over the rest of the graph, soft pair = unpinned corners.

    The unpinned corners ride along in ``psi`` during path colouring (so
    every choice respects their pinned colours) but are handed back to the
    extension as its soft pair, which re-derives the same two singletons.
    """
    pair = _soft_pair(inst, used)
    seed = {v: c for v, c in psi.items() if v not in pair}
    return observation_extend(inst.plane, inst.lists, seed, pair=pair)


# ---------------------------------------------------------------------------
# the triangle touches, or directly borders, the crossing
# ---------------------------------------------------------------------------


def handle_T_near_X(inst: Instance) -> Coloring | None:
    """Direct seeds when the pinned triangle meets the crossing up close.

    Touching case: a triangle corner u lies on a crossed edge; together with
    one endpoint v of the other crossed edge (uv present, not crossed) the
    whole triangle plus v is coloured and extended -- both crossed edges die,
    so the vacated region merges into a single face holding every deficient
    vertex.  Bordering case: an uncrossed edge t-v1 runs from the triangle
    to a crossed endpoint; we colour {t, v1, v2} where v2 sits on the *other*
    crossed edge, so again both curves die with the region.  (Killing only
    one edge is fatal: the survivor's curve runs through the vacated region
    and splits the deficient vertices over two faces.)  v1's colour is drawn
    from outside all three pinned lists, protecting the soft pair; v2's is
    tried exhaustively, preferring the labelling where t avoids the far
    endpoint of the other edge.
    """
    (cr,) = inst.crossings
    g = inst.graph
    tri = inst.triangle
    crossed = set(cr.edges)
    sigma = {t: min(inst.lists[t]) for t in tri}

    for u in tri:
        for e in cr.edges:
            if u not in e:
                continue
            other = cr.b if e == cr.a else cr.a
            for v in sorted(other):
                if not g.has_edge(u, v) or norm_edge(u, v) in crossed:
                    continue
                psi = dict(sigma)
                free = sorted(
                    set(inst.lists[v])
                    - {psi[w] for w in g.adj[v] if w in psi}
                )
                if not free:
                    continue
                psi[v] = free[0]
                phi = observation_extend(inst.plane, inst.lists, psi)
                if phi is not None:
                    return phi

    xs = _xset(inst)
    if xs & set(tri):
        return None
    forbidden = set().union(*(inst.lists[t] for t in tri))
    for t in tri:
        for v1 in sorted(xs & g.adj_sets[t]):
            if norm_edge(t, v1) in crossed:
                continue
            far = cr.b if v1 in cr.a else cr.a
            for v2 in sorted(
                far, key=lambda v2: (_partner(inst, v2) in g.adj_sets[t], v2)
            ):
                for c1 in sorted(set(inst.lists[v1]) - forbidden):
                    psi = dict(sigma)
                    psi[v1] = c1
                    for c2 in sorted(set(inst.lists[v2])):
                        if any(
                            psi.get(w) == c2 for w in g.adj[v2]
                        ):
                            continue
                        psi[v2] = c2
                        phi = _finish(inst, psi, used=t)
                        if phi is not None:
                            return phi
    return None


# ---------------------------------------------------------------------------
# cheapest path into the crossing
# ---------------------------------------------------------------------------


def find_min_score_path(inst: Instance) -> list[int] | None:
    """Cheapest uncrossed path from the triangle ending on a crossing corner.

    A candidate runs p1 in T, p2..p_{k-2} outside T and X, and finishes on
    an uncrossed edge between endpoints of *different* crossed edges.  Its
    score is 2k, less one when the chord p_{k-2}p_k exists.  Returns the
    best path (score, then lexicographic), or None when every candidate is
    too short for the machinery (k < 4) or no candidate exists.
    """
    (cr,) = inst.crossings
    g = inst.graph
    tri = set(inst.triangle)
    xs = _xset(inst)
    if xs & tri:
        return None
    crossed = set(cr.edges)

    ends = []
    for a in sorted(xs):
        for b in sorted(xs):
            if b == a or not g.has_edge(a, b):
                continue
            if norm_edge(a, b) in crossed:
                continue
            ends.append((a, b))

    best: tuple[int, tuple[int, ...]] | None = None
    for a, b in ends:
        banned = (xs - {a}) | {b}
        allowed = [v for v in range(g.n) if v not in banned]
        phase = _lex_shortest(g, crossed, allowed, tri, a, b)
        if phase is None:
            continue
        path = phase + [b]
        k = len(path)
        if k < 4:
            continue
        score = 2 * k - (1 if g.has_edge(path[-3], b) else 0)
        cand = (score, tuple(path))
        if best is None or cand < best:
            best = cand
    return list(best[1]) if best else None


def _lex_shortest(
    g: Graph,
    crossed: set,
    allowed: Sequence[int],
    sources: set[int],
    target: int,
    chord_to: int,
) -> list[int] | None:
    """Lexicographically smallest shortest source->target path on uncrossed
    edges within ``allowed`` (which holds ``target``), preferring (at equal
    length) paths whose second-to-last vertex also sees ``chord_to``.

    Distances run backwards from ``target``, once freely and once with the
    first step limited to the neighbours that see ``chord_to``.  A vertex
    lies on a shortest path exactly when each step lowers its distance by
    one, so the walk starts at the least nearest source and keeps taking
    the least neighbour one step closer.  The limited table is used when
    some source is as near in it as in the free one.
    """
    ok = set(allowed)

    def nbrs(v: int):
        return [
            u for u in g.adj[v] if u in ok and norm_edge(u, v) not in crossed
        ]

    def distances(first: list[int]) -> dict[int, int]:
        dist = {target: 0, **{u: 1 for u in first}}
        frontier = first
        while frontier:
            nxt = []
            for v in frontier:
                for u in nbrs(v):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return dist

    free = distances(nbrs(target))
    reach = [free[s] for s in sources if s in free]
    if not reach:
        return None
    d = min(reach)
    limited = distances([u for u in nbrs(target) if g.has_edge(u, chord_to)])
    dist = limited if any(limited.get(s) == d for s in sources) else free
    path = [min(s for s in sources if dist.get(s) == d)]
    while path[-1] != target:
        step = dist[path[-1]] - 1
        path.append(min(u for u in nbrs(path[-1]) if dist.get(u) == step))
    return path


# ---------------------------------------------------------------------------
# charging map: off-path vertices that crowd three path slots
# ---------------------------------------------------------------------------


def compute_g(inst: Instance, path: Sequence[int]) -> dict[int, int]:
    """Map path index j (1-based) -> the off-path vertex charged to p_j.

    A vertex with three neighbours on the path must sit outside the
    triangle and the crossing and be alone in charging its top slot, and
    its slots below the last one must span at most two (a neighbour at the
    final slot is exempt from the span rule: rerouting around it cannot
    shorten the path, since the rerouted walk would end off the crossing).
    The two unpinned corners may hold at most two path slots.  Anything
    else breaks the accounting this endgame relies on, so it punts.
    """
    g = inst.graph
    tri = set(inst.triangle)
    xs = _xset(inst)
    pos = {p: i + 1 for i, p in enumerate(path)}
    out: dict[int, int] = {}
    for v in range(inst.n):
        if v in pos:
            continue
        slots = sorted(pos[u] for u in g.adj[v] if u in pos)
        if v in tri and len(slots) > 2:
            raise RuleInapplicable(f"unpinned corner {v} crowds the path")
        if len(slots) < 3:
            continue
        inner = [s for s in slots if s < len(path)]
        if len(slots) > 3 or (len(inner) > 1 and inner[-1] - inner[0] > 2):
            raise RuleInapplicable(f"vertex {v} holds path slots {slots}")
        if v in xs:
            raise RuleInapplicable(f"crossing endpoint {v} crowds the path")
        j = slots[-1]
        if j in out:
            raise RuleInapplicable(f"slots {j} charged twice ({out[j]}, {v})")
        out[j] = v
    return out


# ---------------------------------------------------------------------------
# colouring along the path
# ---------------------------------------------------------------------------


@dataclass
class EndgameBlocked:
    """State at a blocked final step: p_k's live colours all sit on one
    off-path vertex's equally small list."""

    path: tuple[int, ...]
    psi: dict[int, int]
    block: int
    live: frozenset  # the shared three colours


def color_along_path(
    inst: Instance, path: Sequence[int]
) -> Coloring | EndgameBlocked:
    """Colour p1..pk so the rest extends; may report a blocked last step.

    p1 takes its pinned colour, p2 dodges all three pinned lists, and every
    later vertex prefers colours missing from the list of the vertex
    charged to it.  Residual lists are maintained incrementally and
    re-derived from scratch each step as a self-check.
    """
    g = inst.graph
    path = list(path)
    k = len(path)
    if k < 3 or path[0] not in inst.triangle:
        raise AssertionError(f"path {path} is too short or starts off the triangle")
    if not all(g.has_edge(path[i], path[i + 1]) for i in range(k - 1)):
        raise AssertionError(f"path {path} is not a walk of the graph")
    charged = compute_g(inst, path)

    # the unpinned corners count as coloured throughout, so nothing on the
    # path steals their pinned colours from under the closing extension
    psi: dict[int, int] = {t: min(inst.lists[t]) for t in inst.triangle}
    live = residual_lists(g, inst.lists, psi)

    def paint(v: int, c: int) -> None:
        psi[v] = c
        live.pop(v)
        for u in g.adj[v]:
            if u in live:
                live[u].discard(c)
        if live != residual_lists(g, inst.lists, psi):
            raise AssertionError("incremental residuals drifted")

    forbidden = set().union(*(inst.lists[t] for t in inst.triangle))
    p2 = sorted(set(inst.lists[path[1]]) - forbidden)
    if not p2:
        raise RuleInapplicable("second path vertex cannot dodge the pinned lists")
    paint(path[1], p2[0])

    for j in range(3, k + 1):
        v = path[j - 1]
        cand = live[v]
        if not cand:
            raise RuleInapplicable(f"path vertex {v} ran out of colours")
        y = charged.get(j)
        if y is None or len(live[y]) >= 4:
            c = min(cand)
        elif cand - live[y]:
            c = min(cand - live[y])
        else:
            if j != k or not g.has_edge(path[k - 3], path[k - 1]):
                raise RuleInapplicable(
                    f"blocked at slot {j} of {k} without the chord escape"
                )
            return EndgameBlocked(
                tuple(path), dict(psi), y, frozenset(cand)
            )
        paint(v, c)
        for p in path[j:]:
            if len(live[p]) < 3:
                raise RuleInapplicable(f"upcoming path vertex {p} got squeezed")

    phi = _finish(inst, psi, used=path[0])
    if phi is None:
        raise RuleInapplicable("path colouring did not extend")
    return phi


# ---------------------------------------------------------------------------
# blocked-case escapes
# ---------------------------------------------------------------------------


def _hit(counters: dict[str, int], name: str) -> None:
    counters[name] = counters.get(name, 0) + 1


def resolve_blocked_endgame(
    inst: Instance, st: EndgameBlocked, counters: dict[str, int]
) -> Coloring | None:
    """Work around a blocked last step, counting the escape that worked.

    The escapes run in this order: swap the last two path vertices;
    recolour p_{k-2} freely while the blocker's list is still whole
    (``slack``), otherwise from its live colours minus the blocker's
    (``offset``); recolour p_{k-1} off the contested triple
    (``fresh_pair``); reroute the tail to the far partner corner
    (``detour_far``); reroute over the chord to the near partner corner
    (``detour_near``).  None when every escape fails.
    """
    for name, branch in (
        ("swapped", _escape_swapped),
        ("slack", _escape_slack),
        ("offset", _escape_offset),
        ("fresh_pair", _escape_fresh_pair),
        ("detour_far", _escape_detour_far),
        ("detour_near", _escape_detour_near),
    ):
        try:
            phi = branch(inst, st)
        except RuleInapplicable:
            phi = None
        if phi is not None:
            _hit(counters, name)
            return phi
    return None


def _escape_swapped(inst: Instance, st: EndgameBlocked) -> Coloring | None:
    """Walk the path again with its last two vertices swapped."""
    path = list(st.path)
    path[-2:] = path[-1], path[-2]
    if not inst.graph.has_edge(path[-3], path[-2]):
        return None
    res = color_along_path(inst, path)
    return res if isinstance(res, dict) else None


def _escape_slack(inst: Instance, st: EndgameBlocked) -> Coloring | None:
    """Recolour p_{k-2} freely when the blocker's list is untouched with
    p_{k-2} and p_{k-1} uncoloured: any choice leaves it a colour to spare."""
    return _recolor(
        inst, st, -3, lambda live, v: live[v] if len(live[st.block]) == 5 else ()
    )


def _escape_offset(inst: Instance, st: EndgameBlocked) -> Coloring | None:
    """Recolour p_{k-2} from its live colours minus the blocker's, shifting
    their lists apart."""
    return _recolor(inst, st, -3, lambda live, v: live[v] - live[st.block])


def _escape_fresh_pair(inst: Instance, st: EndgameBlocked) -> Coloring | None:
    """Recolour p_{k-1} off the contested triple so p_k escapes it."""
    return _recolor(inst, st, -2, lambda live, v: live[v] - st.live)


def _recolor(
    inst: Instance,
    st: EndgameBlocked,
    i: int,
    pick: Callable[[dict[int, set], int], Collection[int]],
) -> Coloring | None:
    """Uncolour the path from index ``i`` on, give that vertex each colour
    ``pick(live, vertex)`` allows in ascending order, and replay the rest."""
    v, tail = st.path[i], list(st.path[i + 1 :])
    prefix = {u: c for u, c in st.psi.items() if u not in st.path[i:]}
    live = residual_lists(inst.graph, inst.lists, prefix)
    for c in sorted(pick(live, v)):
        phi = _replay_tail(inst, st, {**prefix, v: c}, tail)
        if phi is not None:
            return phi
    return None


def _escape_detour_far(inst: Instance, st: EndgameBlocked) -> Coloring | None:
    """Keep the whole path coloured and end the walk on p_k's partner.

    z' (the other endpoint of p_k's crossed edge) takes a colour off the
    contested triple, so p_k and the blocker keep that triple intact as
    plain boundary vertices of the extension.
    """
    pk1, pk = st.path[-2:]
    zp = _partner(inst, pk)
    if not inst.graph.has_edge(pk1, zp):
        return None
    return _replay_tail(inst, st, dict(st.psi), [zp])


def _escape_detour_near(inst: Instance, st: EndgameBlocked) -> Coloring | None:
    """Cut the corner: ... p_{k-2}, p_k, then p_{k-1}'s partner.

    Uses the chord that every blocked state has.  p_{k-1} is uncoloured
    again and left to the extension; the tail colours must steer around
    both it and the blocker, which the replay's validation enforces.
    """
    pk2, pk1, pk = st.path[-3:]
    z = _partner(inst, pk1)
    if not (inst.graph.has_edge(pk2, pk) and inst.graph.has_edge(pk, z)):
        return None
    psi = {v: c for v, c in st.psi.items() if v != pk1}
    return _replay_tail(inst, st, psi, [pk, z])


def _replay_tail(
    inst: Instance, st: EndgameBlocked, psi: dict[int, int], tail: list[int]
) -> Coloring | None:
    """Colour ``tail`` on top of ``psi``, backtracking over candidates.

    Colours missing from the blocker's list are tried first whenever that
    list is down to three; every complete assignment is handed to the
    extension, whose precondition check rejects any choice that starved a
    vertex.
    """
    if not tail:
        return _finish(inst, psi, used=st.path[0])
    v, rest = tail[0], tail[1:]
    live = residual_lists(inst.graph, inst.lists, psi)
    guard = live.get(st.block, set())
    for c in sorted(live[v], key=lambda c: (len(guard) <= 3 and c in guard, c)):
        psi[v] = c
        phi = _replay_tail(inst, st, psi, rest)
        if phi is not None:
            return phi
        del psi[v]
    return None


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def endgame_color(inst: Instance, counters: dict[str, int]) -> Coloring | None:
    """Full endgame: direct seeds, then the path machinery with escapes.

    Every None is counted under ``giveup.<reason>``: ``no_path`` (no
    triangle-to-crossing walk), ``path_punt`` (the walk's colouring punted)
    or ``escapes`` (a blocked last step that no escape resolved).
    """
    if inst.plane is None:
        raise AssertionError("the endgame needs a drawable instance")
    phi = handle_T_near_X(inst)
    if phi is not None:
        _hit(counters, "near_x")
        return phi
    path = find_min_score_path(inst)
    if path is None:
        _hit(counters, "giveup.no_path")
        return None
    try:
        res = color_along_path(inst, path)
    except RuleInapplicable:
        _hit(counters, "giveup.path_punt")
        return None
    if isinstance(res, dict):
        _hit(counters, "path")
        return res
    _hit(counters, "blocked")
    _hit(counters, f"blocked_b{len(res.live)}")
    phi = resolve_blocked_endgame(inst, res, counters)
    if phi is None:
        _hit(counters, "giveup.escapes")
    return phi
