"""Drawings with few crossings: planarization and plane-side bookkeeping.

A drawing is a graph plus a list of crossing pairs.  Planarizing replaces
each crossing by a degree-4 vertex appended after the real ids (crossing
``i`` becomes vertex ``n + i``).  When an edge is crossed twice the sequence
of the two crossing points along the edge is not recorded in the input, so
both orders are tried and the first that embeds wins.  No edge may be
crossed more than twice.  The rotation at every dummy alternates its two
curves, so they cross rather than touch; an embedding that misses this is
redone with the order pinned.

A sub-drawing on fewer real vertices is read off an existing embedding by
:func:`restrict_plane` rather than embedded again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .errors import CycleSidesError, InvalidInstanceError
from .graphs import Edge, Graph, norm_edge
from .planarity import (
    Rotation,
    check_euler,
    directed_face_index,
    face_walks,
    try_embedding,
)


@dataclass(frozen=True)
class CrossingPair:
    a: Edge
    b: Edge

    @staticmethod
    def make(e1: tuple[int, int], e2: tuple[int, int]) -> "CrossingPair":
        e1, e2 = norm_edge(*e1), norm_edge(*e2)
        if e2 < e1:
            e1, e2 = e2, e1
        return CrossingPair(e1, e2)

    @property
    def edges(self) -> tuple[Edge, Edge]:
        return (self.a, self.b)


def validate_drawing(g: Graph, crossings: Sequence[CrossingPair]) -> None:
    seen = set()
    times: Counter = Counter()
    for i, cr in enumerate(crossings):
        for e in cr.edges:
            if not g.has_edge(*e):
                raise InvalidInstanceError(f"crossing {i} uses absent edge {e}")
        if set(cr.a) & set(cr.b):
            raise InvalidInstanceError(
                f"crossing {i}: edges {cr.a} and {cr.b} share an endpoint"
            )
        if (cr.a, cr.b) in seen:
            raise InvalidInstanceError(f"crossing {i} repeats an earlier pair")
        seen.add((cr.a, cr.b))
        times.update(cr.edges)
        for e in cr.edges:
            if times[e] > 2:
                raise InvalidInstanceError(
                    f"crossing {i}: edge {e} is crossed more than twice"
                )


@dataclass(frozen=True)
class PlaneGraph:
    """A graph, its planarization, and an embedding of the latter."""

    real: Graph
    planar: Graph
    rotation: Rotation
    crossings: tuple[CrossingPair, ...]

    @property
    def n_real(self) -> int:
        return self.real.n

    def dummy(self, i: int) -> int:
        return self.real.n + i

    def is_dummy(self, v: int) -> bool:
        return v >= self.real.n

    def crossing_of(self, dummy: int) -> CrossingPair:
        return self.crossings[dummy - self.real.n]


def planarize(g: Graph, crossings: Sequence[CrossingPair]) -> PlaneGraph | None:
    """Embed the planarization, or None if this crossing set is not drawable."""
    if not crossings:
        rot = try_embedding(g)
        return None if rot is None else PlaneGraph(g, g, rot, ())

    by_edge: dict[Edge, list[int]] = {}
    for i, cr in enumerate(crossings):
        for e in cr.edges:
            by_edge.setdefault(e, []).append(i)
    for e, c in by_edge.items():
        if len(c) > 2:
            raise InvalidInstanceError(f"edge {e} is crossed more than twice")
    doubled = sorted(e for e, c in by_edge.items() if len(c) == 2)

    for flips in product((False, True), repeat=len(doubled)):
        swap = dict(zip(doubled, flips))
        pedges: list[tuple[int, int]] = []
        along: dict[int, tuple[int, int]] = {}  # dummy -> its neighbours on cr.a
        for u, v in g.edges:
            cs = by_edge.get((u, v))
            if cs is None:
                pedges.append((u, v))
                continue
            order = cs[::-1] if swap.get((u, v)) else cs
            path = [u, *(g.n + i for i in order), v]
            pedges += zip(path, path[1:])
            for k in range(1, len(path) - 1):
                if crossings[path[k] - g.n].a == (u, v):
                    along[path[k]] = (path[k - 1], path[k + 1])
        pg = Graph.from_edges(g.n + len(crossings), pedges)
        for i in range(len(crossings)):
            if pg.degree(g.n + i) != 4:
                raise InvalidInstanceError(
                    f"crossing {i}: its dummy has degree {pg.degree(g.n + i)}, not 4"
                )
        rot = try_embedding(pg)
        if rot is not None and not _alternates(rot, along):
            rot = _embed_alternating(pg, along)
        if rot is not None:
            return PlaneGraph(g, pg, rot, tuple(crossings))
    return None


def _alternates(rot: Rotation, along: dict[int, tuple[int, int]]) -> bool:
    """Whether every dummy's rotation puts its two curves crosswise."""
    return all(
        (rot[d].index(x) - rot[d].index(y)) % 4 == 2 for d, (x, y) in along.items()
    )


def _embed_alternating(
    planar: Graph, along: dict[int, tuple[int, int]]
) -> Rotation | None:
    """An embedding of ``planar`` in which every dummy's curves cross.

    The embedder is free to make two curves touch at a dummy when nothing
    else pins them (a tree, say).  Here each edge at a dummy is subdivided
    next to it and the four new vertices are joined in a ring in crosswise
    order; the wheel so made has one embedding up to reflection, so the
    dummy's rotation follows the ring.  Ring and subdivisions are then
    stripped.  None when no such embedding exists.
    """
    n = planar.n
    sub: dict[tuple[int, int], int] = {}  # (dummy, neighbour) -> new vertex
    for d in along:
        for x in planar.adj[d]:
            sub[(d, x)] = n + len(sub)
    edges = []
    for a, b in planar.edges:
        path = [a, sub.get((a, b)), sub.get((b, a)), b]
        path = [p for p in path if p is not None]
        edges += zip(path, path[1:])
    for d, (x0, x1) in along.items():
        y0, y1 = (y for y in planar.adj[d] if y not in (x0, x1))
        ring = [sub[(d, x0)], sub[(d, y0)], sub[(d, x1)], sub[(d, y1)]]
        edges += zip(ring, ring[1:] + ring[:1])
    rot2 = try_embedding(Graph.from_edges(n + len(sub), edges))
    if rot2 is None:
        return None
    home = {s: de for de, s in sub.items()}

    def seen_from(v: int, w: int) -> int:
        if w < n:
            return w
        d, x = home[w]
        return x if v == d else d

    rot: Rotation = tuple(tuple(seen_from(v, w) for w in rot2[v]) for v in range(n))
    check_euler(planar, rot)
    return rot


def restrict_plane(pg: PlaneGraph, real: Graph, order: Sequence[int]) -> PlaneGraph:
    """The drawing restricted to the real vertices ``order``.

    ``real, order`` is ``pg.real.induced(keep)`` for the kept vertices; the
    result shares ``real``.  Nothing is re-embedded: every surviving curve
    keeps its place.  Deleted vertices take their edge curves with them.  A
    crossing whose four endpoints all survive keeps its dummy, renumbered
    ``n_child + i`` for its index ``i`` among the surviving crossings.  A
    crossing that loses one edge is smoothed: the surviving curve runs
    straight through the dummy (two slots on in its rotation).  A crossing
    that loses both disappears.  An edge crossed twice therefore keeps its
    order of crossing points.
    """
    back = {old: new for new, old in enumerate(order)}
    kept = list(order)  # old ids of the child's planar vertices, in new order
    crossings: list[CrossingPair] = []
    for i, cr in enumerate(pg.crossings):
        (a0, a1), (b0, b1) = cr.edges
        if all(v in back for v in (a0, a1, b0, b1)):
            back[pg.dummy(i)] = len(kept)
            kept.append(pg.dummy(i))
            crossings.append(
                CrossingPair.make((back[a0], back[a1]), (back[b0], back[b1]))
            )
    rot = pg.rotation

    def reach(x: int, y: int) -> int | None:
        # follow the curve from x through y past dropped dummies
        while y not in back and pg.is_dummy(y):
            r = rot[y]
            x, y = y, r[(r.index(x) + 2) % 4]
        return back.get(y)

    rows = []
    for x in kept:
        ends = (reach(x, y) for y in rot[x])
        rows.append(tuple(z for z in ends if z is not None))
    rotation: Rotation = tuple(rows)
    planar = real
    if crossings:
        planar = Graph.from_edges(
            len(kept), [(u, z) for u, row in enumerate(rows) for z in row if u < z]
        )
    check_euler(planar, rotation)
    return PlaneGraph(real, planar, rotation, tuple(crossings))


@dataclass(frozen=True)
class CycleSides:
    """The two sides into which a cycle cuts a connected plane graph."""

    cycle: tuple[int, ...]
    side_a: frozenset  # vertices strictly on the side of face((c0, c1))
    side_b: frozenset

    def vertex_side(self, v: int) -> int | None:
        """0/1 for strict-side vertices, None for cycle vertices."""
        if v in self.side_a:
            return 0
        if v in self.side_b:
            return 1
        if v not in self.cycle:
            raise CycleSidesError(f"vertex {v} is on neither side nor the cycle")
        return None


def cycle_sides(planar: Graph, rotation: Rotation, cycle: Sequence[int]) -> CycleSides:
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        raise CycleSidesError(f"{list(cycle)} is not a simple cycle")
    cedges = set()
    for i in range(k):
        if not planar.has_edge(cycle[i - 1], cycle[i]):
            raise CycleSidesError(f"cycle edge {(cycle[i - 1], cycle[i])} missing")
        cedges.add(norm_edge(cycle[i - 1], cycle[i]))

    walks = face_walks(rotation)
    fidx = directed_face_index(walks)

    parent = list(range(len(walks)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in planar.edges:
        if (u, v) in cedges:
            continue
        a, b = find(fidx[(u, v)]), find(fidx[(v, u)])
        if a != b:
            parent[a] = b
    roots = {find(f) for f in range(len(walks))}
    if len(roots) != 2:
        raise CycleSidesError(
            f"cycle splits the plane into {len(roots)} parts; "
            "graph must be connected and the cycle simple"
        )
    root_a = find(fidx[(cycle[0], cycle[1])])

    on_c = set(cycle)
    side_a: set[int] = set()
    side_b: set[int] = set()
    for f, w in enumerate(walks):
        tgt = side_a if find(f) == root_a else side_b
        tgt.update(v for v in w if v not in on_c)
    if side_a & side_b:
        raise CycleSidesError("vertex appears strictly on both sides")
    return CycleSides(tuple(cycle), frozenset(side_a), frozenset(side_b))
