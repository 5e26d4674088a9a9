"""Structure-removal rules for drawn instances.

Every way the solver can shrink an instance is packaged as a
:class:`ReductionStep`: a rule id, the parameters it fires on, and a runner
that receives ``solve_child`` (the solver's recursive entry point) and
produces a colouring of the *parent*.  Each runner is a module-level
function ``_rX_run(inst, ..., solve_child)`` that the scan binds to its
candidate with :func:`functools.partial`.  Runners raise
:class:`RuleInapplicable` freely when a geometric precondition they could
not cheaply check up front turns out to fail -- the dispatcher just moves
on to the next candidate, and ultimately to the exhaustive fallback.

The scan only runs on drawable instances, so runners read ``inst.plane``
without checking it.  Children must be strictly smaller in the well-order
(crossing count, vertex count, -edge count).  Every runner builds them so
by construction -- each drops a non-empty vertex set or a crossing -- and
the driver's ``solve_child`` asserts it.  The one exception is
:func:`_apex_side`, whose fresh vertices can make a side as large as its
parent; it punts on such a side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .drawing import CrossingPair, cycle_sides
from .errors import CycleSidesError, InvalidColoringError, RuleInapplicable
from .graphs import Graph, articulation, components, norm_edge
from .instance import Coloring, Instance, induced_instance, make_instance
from .planarity import Rotation
from .thomassen import observation_extend

SolveChild = Callable[[Instance], Coloring]


@dataclass(frozen=True)
class ReductionStep:
    rule: str
    params: tuple
    run: Callable[[SolveChild], Coloring]


def measure(inst: Instance) -> tuple[int, int, int]:
    return (len(inst.crossings), inst.n, -inst.graph.m)


def _fresh_colors(inst: Instance, k: int) -> list[int]:
    top = max((c for L in inst.lists for c in L), default=-1)
    return [top + 1 + i for i in range(k)]


def _greedy_psi(g: Graph, lists: Sequence[frozenset], order: Sequence[int]) -> Coloring:
    psi: Coloring = {}
    for v in order:
        used = {psi[u] for u in g.adj[v] if u in psi}
        free = sorted(set(lists[v]) - used)
        if not free:
            raise RuleInapplicable(f"greedy seed colouring stuck at {v}")
        psi[v] = free[0]
    return psi


def _crossed_edges(inst: Instance) -> set[tuple[int, int]]:
    return {e for cr in inst.crossings for e in cr.edges}


def _plus_edges(inst: Instance, extra: Iterable[tuple[int, int]]) -> Instance:
    """Same vertices, lists, crossings and triangle, plus the missing ``extra``.

    The result is a fresh instance: its drawing is embedded anew on read.
    """
    g = inst.graph
    return make_instance(
        inst.n,
        list(g.edges) + [e for e in extra if not g.has_edge(*e)],
        inst.lists,
        [(c.a, c.b) for c in inst.crossings],
        inst.triangle,
    )


def iter_reduction_steps(inst: Instance) -> Iterator[ReductionStep]:
    """All rule candidates, in the fixed (rule, parameter) scan order."""
    if inst.plane is None:
        raise AssertionError("the reduction scan needs a drawable instance")
    return chain(
        _r1_low_degree(inst),
        _r2_cut_or_split(inst),
        _r3_crossed_triangle_edge(inst),
        _r4_separating_triangle(inst),
        _r5_two_cut(inst),
        _r6_separating_square(inst),
        _r7_doubly_crossed(inst),
        _r8_crossing_gadget(inst),
    )


# ---------------------------------------------------------------------------
# R1: delete a vertex of degree <= 4 (outside the pinned triangle)
# ---------------------------------------------------------------------------


def _r1_low_degree(inst: Instance) -> Iterator[ReductionStep]:
    pinned = set(inst.triangle or ())
    for v in range(inst.n):
        if v in pinned:
            continue
        if inst.graph.degree(v) <= 4 and len(inst.lists[v]) > inst.graph.degree(v):
            yield ReductionStep("R1", (v,), partial(_r1_run, inst, v))


def _r1_run(inst: Instance, v: int, solve_child: SolveChild) -> Coloring:
    keep = [u for u in range(inst.n) if u != v]
    child, order = induced_instance(inst, keep, triangle=inst.triangle)
    sub = solve_child(child)
    phi = {order[i]: c for i, c in sub.items()}
    phi[v] = min(inst.lists[v] - {phi[u] for u in inst.graph.adj[v]})
    return phi


# ---------------------------------------------------------------------------
# R2: disconnected graphs, and single cut vertices
# ---------------------------------------------------------------------------


def _config_component(inst: Instance, comps: list[list[int]]) -> dict[int, int]:
    """Map each crossing index (and -1 for the triangle) to its component."""
    where = {}
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    for i, cr in enumerate(inst.crossings):
        ends = {v for e in cr.edges for v in e if v in comp_of}
        owners = {comp_of[v] for v in ends}
        if len(owners) != 1:
            raise RuleInapplicable(f"crossing {i} straddles the cut")
        where[i] = owners.pop()
    if inst.triangle is not None:
        ends = {v for v in inst.triangle if v in comp_of}
        owners = {comp_of[v] for v in ends}
        if len(owners) != 1:
            raise RuleInapplicable("pinned triangle straddles the cut")
        where[-1] = owners.pop()
    return where


def _main_side(inst: Instance, comps: list[list[int]]) -> tuple[dict[int, int], int]:
    """Owner map of the crossings and triangle, and the busiest side.

    The busiest side holds the triangle, then the most crossings, then the
    most vertices; ties go to the side with the smallest vertex.
    """
    where = _config_component(inst, comps)

    def busy(i: int) -> tuple[int, int, int, int]:
        has_t = 1 if where.get(-1) == i else 0
        ncr = sum(1 for k, c in where.items() if k >= 0 and c == i)
        return (has_t, ncr, len(comps[i]), -min(comps[i]))

    return where, max(range(len(comps)), key=busy)


def _r2_cut_or_split(inst: Instance) -> Iterator[ReductionStep]:
    comps = components(inst.graph)
    if len(comps) >= 2:
        yield ReductionStep("R2", ("split",), partial(_r2_split_run, inst, comps))
        return
    for a in sorted(articulation(inst.graph, blocks=False).cuts):
        yield ReductionStep("R2", ("cut", a), partial(_r2_cut_run, inst, a))


def _r2_split_run(
    inst: Instance, comps: list[list[int]], solve_child: SolveChild
) -> Coloring:
    tri = set(inst.triangle or ())
    phi: Coloring = {}
    for comp in comps:
        t = inst.triangle if tri and tri <= set(comp) else None
        child, order = induced_instance(inst, comp, triangle=t)
        sub = solve_child(child)
        phi.update({order[i]: c for i, c in sub.items()})
    return phi


def _r2_cut_run(inst: Instance, a: int, solve_child: SolveChild) -> Coloring:
    comps = components_without(inst.graph, {a})
    where, main = _main_side(inst, comps)
    child, order = induced_instance(
        inst, sorted(set(comps[main]) | {a}), triangle=inst.triangle
    )
    sub = solve_child(child)
    phi = {order[i]: c for i, c in sub.items()}

    free: list[int] = []
    for i in range(len(comps)):
        if i == main:
            continue
        if any(c == i for c in where.values()):
            phi.update(_apex_side(inst, solve_child, comps[i], (a,), phi))
        else:
            free.append(i)
    if free:
        rest = set().union(*(set(comps[i]) for i in free))
        psi = {v: c for v, c in phi.items() if v not in rest}
        full = observation_extend(inst.plane, inst.lists, psi)
        if full is None:
            raise RuleInapplicable("free sides rejected the extension")
        phi = full
    return phi


def components_without(g: Graph, removed: set[int]) -> list[list[int]]:
    seen = set(removed)
    out = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


def _apex_side(
    inst: Instance,
    solve_child: SolveChild,
    comp: list[int],
    cut: tuple[int, ...],
    phi: Coloring,
) -> Coloring:
    """Solve one cut side that carries a crossing, pinning the cut to ``phi``.

    The cut (one vertex for R2, two for R5) is padded to a triangle with
    fresh vertices on fresh colours, ordered ``(cut[0], *fresh, *cut[1:])``:
    ``(a, q1, q2)`` for a cut vertex, ``(u, q, v)`` for a cut pair.
    """
    side, order = induced_instance(inst, sorted(set(comp) | set(cut)))
    back = {old: new for new, old in enumerate(order)}
    fresh = list(range(side.n, side.n + 3 - len(cut)))
    tri = (back[cut[0]], *fresh, *(back[c] for c in cut[1:]))
    lists = dict(enumerate(side.lists))
    lists.update((back[c], {phi[c]}) for c in cut)
    lists.update((q, {f}) for q, f in zip(fresh, _fresh_colors(inst, len(fresh))))
    tri_edges = {norm_edge(tri[i - 1], tri[i]) for i in range(3)}
    child = make_instance(
        side.n + len(fresh),
        sorted(set(side.graph.edges) | tri_edges),
        lists,
        [(c.a, c.b) for c in side.crossings],
        tri,
    )
    if len(child.crossings) > 1 or child.plane is None:
        raise RuleInapplicable("apexed side is not a drawable one-crossing child")
    if not measure(child) < measure(inst):
        # the fresh vertices can outweigh a small remainder of the parent
        raise RuleInapplicable(
            f"child measure {measure(child)} does not drop below {measure(inst)}"
        )
    sub = solve_child(child)
    out = {order[i]: c for i, c in sub.items() if i < side.n}
    if any(out[c] != phi[c] for c in cut):
        raise InvalidColoringError(f"apexed side moved the pinned cut {cut}")
    return {v: c for v, c in out.items() if v not in cut}


# ---------------------------------------------------------------------------
# R3: the pinned triangle has a crossed edge
# ---------------------------------------------------------------------------


def _r3_crossed_triangle_edge(inst: Instance) -> Iterator[ReductionStep]:
    if inst.triangle is None or len(inst.crossings) != 1:
        return
    t = inst.triangle
    tedges = {
        norm_edge(t[0], t[1]),
        norm_edge(t[1], t[2]),
        norm_edge(t[0], t[2]),
    }
    (cr,) = inst.crossings
    for e in sorted(tedges & set(cr.edges)):
        yield ReductionStep("R3", (e,), partial(_r3_run, inst, cr, e))


def _r3_run(
    inst: Instance, cr: CrossingPair, e: tuple[int, int], solve_child: SolveChild
) -> Coloring:
    pg = inst.plane
    f = cr.b if e == cr.a else cr.a
    u, v = e
    (w,) = set(inst.triangle) - set(e)
    d = pg.dummy(0)
    cs = cycle_sides(pg.planar, pg.rotation, [u, d, v, w])
    outside = [p for p in f if p != w]
    x = min(outside)
    far = cs.side_b if cs.vertex_side(x) == 0 else cs.side_a
    keep = sorted({p for p in far if p < pg.n_real} | {u, v, w})
    child, order = induced_instance(inst, keep, triangle=inst.triangle)
    if child.crossings:
        raise RuleInapplicable("triangle side kept a crossing")
    sub = solve_child(child)
    phi = {order[i]: c for i, c in sub.items()}
    psi = {p: c for p, c in phi.items() if p not in (v, w)}
    full = observation_extend(pg, inst.lists, psi, pair=(v, w))
    if full is None:
        raise RuleInapplicable("extension across the crossed edge failed")
    return full


# ---------------------------------------------------------------------------
# R4: separating triangle with all the action on one side
# ---------------------------------------------------------------------------


def _uncrossed_triangles(inst: Instance) -> Iterator[tuple[int, int, int]]:
    g = inst.graph
    hot = _crossed_edges(inst)
    for a in range(g.n):
        for b in g.adj[a]:
            if b <= a or (a, b) in hot:
                continue
            for c in g.adj[b]:
                if c <= b or not g.has_edge(a, c):
                    continue
                if (b, c) in hot or (a, c) in hot:
                    continue
                yield (a, b, c)


def _r4_separating_triangle(inst: Instance) -> Iterator[ReductionStep]:
    for tri in _uncrossed_triangles(inst):
        yield ReductionStep("R4", tri, partial(_ring_run, inst, tri))


def _r6_separating_square(inst: Instance) -> Iterator[ReductionStep]:
    g = inst.graph
    hot = _crossed_edges(inst)
    seen = set()
    for a in range(g.n):
        for b in g.adj[a]:
            if b <= a:
                continue
            for d in g.adj[a]:
                if d <= b or g.has_edge(b, d):
                    continue
                for c in sorted(set(g.adj[b]) & set(g.adj[d])):
                    if c <= a or c == a or g.has_edge(a, c):
                        continue
                    ring = (a, b, c, d)
                    if ring in seen:
                        continue
                    seen.add(ring)
                    if any(
                        norm_edge(ring[i - 1], ring[i]) in hot for i in range(4)
                    ):
                        continue
                    yield ReductionStep("R6", ring, partial(_ring_run, inst, ring))


def _ring_run(
    inst: Instance, ring: tuple[int, ...], solve_child: SolveChild
) -> Coloring:
    """Shared R4/R6 plan: solve the busy side, hand the quiet side the ring.

    For a triangle ring the quiet side becomes a pinned-triangle child; for
    a square ring the quiet side is finished by an extension that releases
    one ring edge as the soft pair.
    """
    pg = inst.plane
    if _bounds_face(pg.rotation, ring):
        raise RuleInapplicable("ring does not separate real vertices")
    cs = cycle_sides(pg.planar, pg.rotation, list(ring))
    real_a = {v for v in cs.side_a if v < pg.n_real}
    real_b = {v for v in cs.side_b if v < pg.n_real}
    if not real_a or not real_b:
        raise RuleInapplicable("ring does not separate real vertices")
    owners = set()
    for i in range(len(inst.crossings)):
        owners.add(cs.vertex_side(pg.dummy(i)))
    if inst.triangle is not None:
        strict = set(inst.triangle) - set(ring)
        if not strict and len(ring) == 4:
            raise RuleInapplicable("pinned triangle shares 3 vertices with a square?")
        for v in strict:
            owners.add(cs.vertex_side(v))
    if None in owners:
        raise RuleInapplicable("a crossing sits on the ring itself")
    if len(owners) > 1:
        raise RuleInapplicable("action on both sides of the ring")
    busy = owners.pop() if owners else 0
    near = real_a if busy == 0 else real_b
    farr = real_b if busy == 0 else real_a
    child1, order1 = induced_instance(
        inst, sorted(near | set(ring)), triangle=inst.triangle
    )
    sub1 = solve_child(child1)
    phi = {order1[i]: c for i, c in sub1.items()}

    if len(ring) == 3:
        a, b, c = ring
        child2, order2 = induced_instance(
            inst,
            sorted(farr | set(ring)),
            lists={a: {phi[a]}, b: {phi[b]}, c: {phi[c]}},
            triangle=ring,
        )
        if child2.crossings:
            raise RuleInapplicable("quiet side kept a crossing")
        sub2 = solve_child(child2)
        for i, col in sub2.items():
            v = order2[i]
            if v in phi and phi[v] != col:
                raise InvalidColoringError(f"quiet side recoloured ring vertex {v}")
            phi[v] = col
        return phi

    # square ring: extend across it, trying each edge as the soft pair
    for k in range(4):
        pair = (ring[k], ring[(k + 1) % 4])
        psi = {v: c for v, c in phi.items() if v not in pair}
        full = observation_extend(pg, inst.lists, psi, pair=pair)
        if full is not None:
            return full
    raise RuleInapplicable("no ring edge admits the extension")


def _bounds_face(rotation: Rotation, ring: Sequence[int]) -> bool:
    """Whether ``ring`` is the boundary walk of one face, in either direction.

    Faces follow ``next(u, v) = (v, rotation[v][pos(u) + 1])``.  A facial
    ring has nothing strictly on its face side, so it separates no vertices;
    checking costs O(len(ring)) rotation lookups, where ``cycle_sides``
    walks every face of the drawing.
    """

    def turn(u: int, v: int) -> int:
        r = rotation[v]
        return r[(r.index(u) + 1) % len(r)]

    k = len(ring)
    return any(
        all(turn(c[i - 1], c[i]) == c[(i + 1) % k] for i in range(k))
        for c in (tuple(ring), tuple(ring[::-1]))
    )


# ---------------------------------------------------------------------------
# R5: two-vertex cuts
# ---------------------------------------------------------------------------


def _r5_two_cut(inst: Instance) -> Iterator[ReductionStep]:
    for u, v, comps in _two_cuts(inst.graph):
        yield ReductionStep("R5", (u, v), partial(_r5_run, inst, u, v, comps))


def _two_cuts(g: Graph) -> Iterator[tuple[int, int, list[list[int]]]]:
    """Every 2-cut ``{u, v}`` (u < v) of G with its components, in (u, v) order.

    One articulation pass per u settles every v: ``{u, v}`` cuts G exactly
    when G - u has three or more components, or two of which ``{v}`` is not
    one, or is connected and has v as a cut vertex.  That is O(n·m) in all;
    components are listed only for the pairs that cut.
    """
    if g.n < 4:
        return
    for u in range(g.n):
        art = articulation(g, u, blocks=False)
        if art.components == 1:
            vs: Iterable[int] = sorted(c for c in art.cuts if c > u)
        elif art.components == 2:
            vs = [v for v in range(u + 1, g.n) if v not in art.isolated]
        else:
            vs = range(u + 1, g.n)
        for v in vs:
            yield u, v, components_without(g, {u, v})


def _r5_run(
    inst: Instance, u: int, v: int, comps: list[list[int]], solve_child: SolveChild
) -> Coloring:
    where, main = _main_side(inst, comps)
    others = [i for i in range(len(comps)) if i != main]
    clean = (
        inst.graph.has_edge(u, v)
        and norm_edge(u, v) not in _crossed_edges(inst)
        and all(not any(c == i for c in where.values()) for i in others)
    )
    if clean:
        child, order = induced_instance(
            inst, sorted(set(comps[main]) | {u, v}), triangle=inst.triangle
        )
        sub = solve_child(child)
        phi = {order[i]: c for i, c in sub.items()}
        psi = {p: c for p, c in phi.items() if p not in (u, v)}
        full = observation_extend(inst.plane, inst.lists, psi, pair=(u, v))
        if full is None:
            raise RuleInapplicable("cut pair rejected the extension")
        return full

    # apex route: force the cut pair apart with a fresh pinned triangle
    side, order1 = induced_instance(
        inst, sorted(set(comps[main]) | {u, v}), triangle=inst.triangle
    )
    child1 = _plus_edges(side, [(order1.index(u), order1.index(v))])
    if child1.plane is None:
        raise RuleInapplicable("busy side will not draw with uv added")
    sub1 = solve_child(child1)
    phi = {order1[i]: c for i, c in sub1.items()}
    for i in others:
        phi.update(_apex_side(inst, solve_child, comps[i], (u, v), phi))
    return phi


# ---------------------------------------------------------------------------
# R7: an edge crossed twice
# ---------------------------------------------------------------------------


def _r7_doubly_crossed(inst: Instance) -> Iterator[ReductionStep]:
    if len(inst.crossings) != 2 or inst.triangle is not None:
        return
    c1, c2 = inst.crossings
    shared = sorted(set(c1.edges) & set(c2.edges))
    for e in shared:
        yield ReductionStep("R7", (e,), partial(_r7_run, inst, e))


def _r7_run(inst: Instance, e: tuple[int, int], solve_child: SolveChild) -> Coloring:
    pg = inst.plane
    c1, c2 = inst.crossings
    f1 = c1.b if c1.a == e else c1.a
    f2 = c2.b if c2.a == e else c2.a
    u, v = e
    joint = set(f1) & set(f2)
    if joint:
        (w,) = joint
        for s in (u, v):
            psi = _greedy_psi(inst.graph, inst.lists, [s, w])
            full = observation_extend(pg, inst.lists, psi)
            if full is not None:
                return full
        raise RuleInapplicable("no anchor pair unlocked the shared corner")
    return _r7_disjoint(inst, pg, e, f1, f2)


def _r7_disjoint(inst, pg, e, f1, f2) -> Coloring:
    """Fence off the twice-crossed edge with a 6-cycle and colour one flank."""
    u, v = e
    # the crossing whose point lies nearer an endpoint owns that endpoint
    near = {}
    for end in (u, v):
        ds = [d for d in pg.planar.adj[end] if pg.is_dummy(d)]
        own = [d for d in ds if e in pg.crossing_of(d).edges]
        if len(own) != 1:
            raise AssertionError(
                "endpoint of a twice-crossed edge sees one of its points"
            )
        near[end] = pg.crossing_of(own[0])
    for u0, v0 in ((u, v), (v, u)):
        fa = near[u0]
        fa_edge = fa.b if fa.a == e else fa.a
        fb_edge = f2 if fa_edge == f1 else f1
        for w1, z1 in (fa_edge, fa_edge[::-1]):
            for w2, z2 in (fb_edge, fb_edge[::-1]):
                ring = [u0, w1, w2, v0, z2, z1]
                phi = _r7_try_ring(inst, ring)
                if phi is not None:
                    return phi
    raise RuleInapplicable("no fencing of the twice-crossed edge worked")


def _r7_try_ring(inst: Instance, ring: list[int]) -> Coloring | None:
    g = inst.graph
    try:
        fat = _plus_edges(inst, [(ring[i - 1], ring[i]) for i in range(6)])
    except ValueError:
        return None
    pg2 = fat.plane
    if pg2 is None:
        return None
    try:
        cs = cycle_sides(pg2.planar, pg2.rotation, ring)
    except CycleSidesError:
        return None
    d0, d1 = pg2.dummy(0), pg2.dummy(1)
    s = cs.vertex_side(d0)
    if s is None or cs.vertex_side(d1) != s:
        return None
    inner = cs.side_a if s == 0 else cs.side_b
    if any(p < pg2.n_real for p in inner):
        return None
    anchors = [ring[0], ring[1], ring[2]]
    if set.intersection(*(set(g.adj[x]) for x in anchors)):
        return None
    psi = _greedy_psi(fat.graph, fat.lists, anchors)
    return observation_extend(pg2, fat.lists, psi)


# ---------------------------------------------------------------------------
# R8: replace one crossing by a pinned gadget triangle
# ---------------------------------------------------------------------------


def _r8_crossing_gadget(inst: Instance) -> Iterator[ReductionStep]:
    if inst.triangle is not None:
        return
    order = sorted(range(len(inst.crossings)), key=lambda i: inst.crossings[i].edges)
    for i in order:
        cr = inst.crossings[i]
        yield ReductionStep("R8", (cr.a, cr.b), partial(_r8_run, inst, i))


def crossing_gadget(
    inst: Instance, index: int, x: int, xp: int, y: int, yp: int
) -> tuple[Instance, int] | None:
    """Child with crossing ``index`` replaced by an apex over its endpoints.

    The crossing's edges disappear; a new vertex v sits where the crossing
    point was, tied to all four endpoints, and the triangle (x, y, v) is
    pinned: x to its own cheapest colour a, y to b, v to a colour c no list
    contains.  The far endpoints trade a (resp. b) for c, so whatever they
    get in the child stays legal across the removed edges -- and v keeps c
    off both of them.  Returns (child, v) or None when it will not draw.
    """
    cr = inst.crossings[index]
    e, f = norm_edge(x, xp), norm_edge(y, yp)
    if {e, f} != set(cr.edges):
        raise AssertionError(f"{e} and {f} are not the edges of crossing {index}")
    a = min(inst.lists[x])
    b = min(inst.lists[y] - {a})
    (c,) = _fresh_colors(inst, 1)
    vtx = inst.n
    edges = [ed for ed in inst.graph.edges if ed not in (e, f)]
    if not inst.graph.has_edge(x, y):
        edges.append((x, y))
    elif norm_edge(x, y) in _crossed_edges(inst):
        return None  # the pinned triangle would carry someone else's crossing
    edges += [(vtx, x), (vtx, xp), (vtx, y), (vtx, yp)]
    lists = {w: inst.lists[w] for w in range(inst.n)}
    lists[x] = {a}
    lists[y] = {b}
    lists[xp] = (inst.lists[xp] - {a}) | {c}
    lists[yp] = (inst.lists[yp] - {b}) | {c}
    lists[vtx] = {c}
    rest = [
        (cc.a, cc.b) for j, cc in enumerate(inst.crossings) if j != index
    ]
    child = make_instance(inst.n + 1, edges, lists, rest, (x, y, vtx))
    if child.plane is None:
        return None
    return child, vtx


def _r8_run(inst: Instance, index: int, solve_child: SolveChild) -> Coloring:
    cr = inst.crossings[index]
    others = [c for j, c in enumerate(inst.crossings) if j != index]
    if any(e in c.edges for c in others for e in cr.edges):
        # the gadget deletes both edges, but the other crossing names one
        raise RuleInapplicable("an edge of the crossing is crossed twice (R7)")
    for x, xp in (cr.a, cr.a[::-1]):
        for y, yp in (cr.b, cr.b[::-1]):
            made = crossing_gadget(inst, index, x, xp, y, yp)
            if made is None:
                continue
            child, vtx = made
            sub = solve_child(child)
            fresh = next(iter(child.lists[vtx]))
            if fresh in (sub[xp], sub[yp]):
                raise InvalidColoringError("gadget child gave the apex colour away")
            return {w: col for w, col in sub.items() if w != vtx}
    raise RuleInapplicable("no orientation of the gadget is drawable")


# ---------------------------------------------------------------------------
# endgame preparation
# ---------------------------------------------------------------------------


def saturate_crossing_clique(inst: Instance) -> Instance | None:
    """Make the four endpoints of the single crossing pairwise adjacent.

    With one crossing the four corner edges can always be drawn hugging the
    crossed edges, but the claim is re-checked by embedding; returns None
    if that fails (the caller then works with the unsaturated instance).
    """
    if len(inst.crossings) != 1:
        raise AssertionError("clique saturation needs exactly one crossing")
    (cr,) = inst.crossings
    x, xp = cr.a
    y, yp = cr.b
    corners = [(x, y), (x, yp), (xp, y), (xp, yp)]
    if all(inst.graph.has_edge(*p) for p in corners):
        return inst
    child = _plus_edges(inst, corners)
    return child if child.plane is not None else None
