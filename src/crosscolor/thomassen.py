"""List colouring of plane graphs, and colouring by subtraction.

``thomassen_color`` solves a :class:`BoundaryTask`: a plane graph where the
vertices of one designated face may have lists cut down to 3 colours (and a
distinguished adjacent pair on it down to 1), everyone else holding 5.  The
engine is the classical recursion: split along a chord of the outer cycle,
or peel the outer neighbour of ``x`` opposite ``y`` after reserving two of
its colours, which costs the peeled vertex's inner fan at most two list
entries.  Chord sides and peeled vertices share one work stack, so
nothing recurses.  Blocks are handled by colouring the block containing
``xy`` first and walking the block tree outward, breadth-first through a
vertex -> blocks index; inner faces are triangulated up front so every
2-connected piece stays 2-connected throughout.

``observation_extend`` is the glue used everywhere else in the package: given
a partial colouring ``psi`` of some set S, it subtracts the used colours from
the neighbours' lists, restricts the drawing to the remainder, checks that
all shortened lists sit together on one face per component, and colours the
remainder in one engine run on the restricted drawing.  Both entry points
hand the engine one ``(component, x, y)`` piece per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .drawing import PlaneGraph, restrict_plane
from .errors import InvalidColoringError, TaskPreconditionError
from .graphs import Graph, articulation, components
from .oracle import validate_coloring
from .planarity import Rotation, check_euler, face_walks

Coloring = dict[int, int]
Piece = tuple[list[int], int, int | None]


def trace_face(
    rotation: Sequence[Sequence[int]], scope: set[int] | None, u: int, v: int
) -> list[int]:
    """Boundary walk of the face left of directed edge (u, v).

    ``scope`` restricts to an induced subgraph: slots outside it are skipped,
    which is exactly the embedding the subgraph inherits.
    """

    def succ(y: int, x: int) -> int:
        row = [w for w in rotation[y] if scope is None or w in scope]
        return row[(row.index(x) + 1) % len(row)]

    walk = []
    cx, cy = u, v
    while True:
        walk.append(cx)
        cx, cy = cy, succ(cy, cx)
        if (cx, cy) == (u, v):
            return walk


@dataclass(frozen=True)
class BoundaryTask:
    """Plane list-colouring task with one softened face.

    The outer face is the one traced from the directed edge ``(x, y)``; x
    and y must be adjacent.  List sizes: at least 3 on that walk, at least
    5 off it, and at least 1 on x and y themselves (unequal when both are
    singletons).  Components not containing x need 5 everywhere.
    """

    graph: Graph
    rotation: Rotation
    lists: tuple[frozenset, ...]
    x: int
    y: int


def validate_task(task: BoundaryTask) -> None:
    g = task.graph
    check_euler(g, task.rotation)
    if not (0 <= task.x < g.n and 0 <= task.y < g.n) or task.x == task.y:
        raise TaskPreconditionError(f"bad pair ({task.x}, {task.y})")
    if not g.has_edge(task.x, task.y):
        raise TaskPreconditionError(f"pair ({task.x}, {task.y}) is not an edge")
    if any(not task.lists[v] for v in range(g.n)):
        raise TaskPreconditionError("empty colour list")
    lx, ly = task.lists[task.x], task.lists[task.y]
    if len(lx) == 1 and lx == ly:
        raise TaskPreconditionError("x and y share a single colour")
    walk = set(trace_face(task.rotation, None, task.x, task.y))
    comps = components(g)
    for comp in comps:
        on_task = task.x in comp
        for v in comp:
            need = 5
            if on_task and v in (task.x, task.y):
                need = 1
            elif on_task and v in walk:
                need = 3
            if len(task.lists[v]) < need:
                raise TaskPreconditionError(
                    f"vertex {v} holds {len(task.lists[v])} colours, needs {need}"
                )


def thomassen_color(task: BoundaryTask) -> Coloring:
    """Proper colouring from the lists of a valid task (always succeeds)."""
    validate_task(task)
    g = task.graph
    pieces: list[Piece] = []
    for comp in components(g):
        if task.x in comp:
            pieces.append((comp, task.x, task.y))
        elif len(comp) == 1:
            pieces.append((comp, comp[0], None))
        else:
            pieces.append((comp, comp[0], g.adj[comp[0]][0]))
    phi = _color_pieces(g, task.rotation, task.lists, pieces)
    bad = validate_coloring(g, task.lists, phi)
    if bad:
        raise InvalidColoringError(
            f"boundary recursion produced an invalid colouring: {bad}"
        )
    return phi


def _color_pieces(
    g: Graph, rotation: Rotation, lists: Sequence[frozenset], pieces: list[Piece]
) -> Coloring:
    """Colour every ``(comp, x, y)`` piece with outer face(x -> y) in one run.

    A lone vertex comes with ``y = None`` and takes its least colour.  The
    caller has settled the :class:`BoundaryTask` conditions of every piece.
    """
    eng = _Engine(g, rotation, lists)
    for comp, x, y in pieces:
        if y is None:
            eng.phi[x] = min(eng.lists[x])
        else:
            eng.color_component(set(comp), x, y)
    return eng.phi


class _Engine:
    """Mutable state for one colouring run over a whole plane graph.

    The rotation rows and adjacency sets are copies: triangulation inserts
    helper diagonals into them.  Colouring a supergraph properly colours the
    task graph, and the final validation runs against the original.  The
    blocks (as vertex sets) come from one pass over the original graph,
    and ``at[v]`` lists the blocks holding v in block order.
    """

    def __init__(self, g: Graph, rotation: Rotation, lists: Sequence[frozenset]):
        self.adj: list[set[int]] = [set(a) for a in g.adj]
        self.rot: list[list[int]] = [list(r) for r in rotation]
        self.lists: list[set[int]] = [set(s) for s in lists]
        self.phi: Coloring = {}
        self.blocks: list[set[int]] = [
            {v for e in blk for v in e} for blk in articulation(g).blocks
        ]
        self.at: list[list[int]] = [[] for _ in range(g.n)]
        for b, blk in enumerate(self.blocks):
            for v in blk:
                self.at[v].append(b)

    # -- block layer --------------------------------------------------

    def color_component(self, scope: set[int], x: int, y: int) -> None:
        """Colour one connected component, outer face = face(x -> y).

        The block holding xy goes first.  The block tree is then walked
        breadth-first: each block takes its uncoloured neighbour blocks in
        block order, entering each at the one vertex they share.
        """
        self._pin_pair(x, y)
        root = next(b for b in self.at[x] if y in self.blocks[b])
        self._color_block(self.blocks[root], x, y)
        done, queue, reached = {root}, [root], set()
        for pi in queue:
            parent = self.blocks[pi]
            fresh = parent - reached
            reached |= fresh
            for bi in sorted({b for v in fresh for b in self.at[v]} - done):
                child = self.blocks[bi]
                (c,) = parent & child
                a = self._corner_hunt(c, parent, child)
                walk = trace_face(self.rot, child, a, c)
                self._color_block(child, c, walk[(walk.index(c) + 1) % len(walk)])
                done.add(bi)
                queue.append(bi)
        if reached != scope:
            raise AssertionError("block tree is disconnected")

    def _pin_pair(self, x: int, y: int) -> None:
        """Shrink x to a single colour compatible with y (see case (b))."""
        lx, ly = self.lists[x], self.lists[y]
        if len(lx) > 1:
            avoid = ly if len(ly) == 1 else set()
            self.lists[x] = {min(lx - avoid)}

    def _corner_hunt(self, c: int, parent: set[int], child: set[int]) -> int:
        """Neighbour a of c in the child block whose corner faces the parent.

        Blocks at a cut vertex nest like parentheses in its rotation; the
        child-block face that contains the already-coloured parent block is
        the gap found by scanning backwards from any parent slot.
        """
        row = self.rot[c]
        ref = next(i for i, w in enumerate(row) if w in parent and w != c)
        for off in range(1, len(row) + 1):
            w = row[(ref - off) % len(row)]
            if w in child:
                return w
        raise AssertionError("cut vertex has no slot in its own block")

    # -- one 2-connected block ----------------------------------------

    def _color_block(self, bscope: set[int], x: int, y: int) -> None:
        if len(bscope) > 2:
            self._triangulate(bscope, x, y)
        self._recurse(set(bscope), x, y)

    def _color_edge(self, x: int, y: int) -> None:
        first, second = (y, x) if len(self.lists[y]) == 1 else (x, y)
        if first not in self.phi:
            self.phi[first] = min(self.lists[first])
        if second not in self.phi:
            self.phi[second] = min(self.lists[second] - {self.phi[first]})

    def _triangulate(self, scope: set[int], x: int, y: int) -> None:
        """Add diagonals until every inner face of the block is a triangle."""
        inner: list[list[int]] = []
        seen = {(x, y)}
        outer = trace_face(self.rot, scope, x, y)
        for i, u in enumerate(outer):
            seen.add((u, outer[(i + 1) % len(outer)]))
        for u in sorted(scope):
            for v in sorted(self.adj[u] & scope):
                if (u, v) in seen:
                    continue
                w = trace_face(self.rot, scope, u, v)
                for i, a in enumerate(w):
                    seen.add((a, w[(i + 1) % len(w)]))
                inner.append(w)
        for f in inner:
            self._fan_face(f)

    def _fan_face(self, face: list[int]) -> None:
        while len(face) > 3:
            for i in range(len(face)):
                u, v, w = face[i - 1], face[i], face[(i + 1) % len(face)]
                if w not in self.adj[u]:
                    self._add_diagonal(u, v, w)
                    face = face[:i] + face[i + 1 :] if i else face[1:]
                    break
            else:  # two crossing diagonals would both have to exist
                raise AssertionError("face admits no ear")

    def _add_diagonal(self, u: int, v: int, w: int) -> None:
        """Insert edge uw across the corner u-v-w of a face."""
        self.adj[u].add(w)
        self.adj[w].add(u)
        self.rot[u].insert(self.rot[u].index(v), w)
        self.rot[w].insert(self.rot[w].index(v) + 1, u)

    def _recurse(self, scope: set[int], x: int, y: int) -> None:
        """Colour a block scope with outer face(x -> y) off one work stack.

        A scope item ``(scope, x, y)`` peels outer neighbours of x until a
        chord or an edge is left; a chord split stacks its far side, then its
        near side.  Each peel stacks ``(v, w, c1, c2)``, so peeled vertices
        take their colours last-first, after everything stacked above them.
        A scope entered with x or y already coloured pins that list.
        """
        work: list[tuple] = [(scope, x, y)]
        while work:
            item = work.pop()
            if len(item) == 4:
                v, w, c1, c2 = item
                self.phi[v] = c1 if self.phi[w] != c1 else c2
                continue
            scope, x, y = item
            for u in (x, y):
                if u in self.phi:
                    self.lists[u] = {self.phi[u]}
            while len(scope) > 2:
                cyc = trace_face(self.rot, scope, x, y)
                if len(set(cyc)) != len(cyc):
                    raise AssertionError("outer walk is not a simple cycle")
                chord = self._find_chord(cyc)
                if chord is not None:
                    i, j = chord
                    if i == 0:
                        cyc_xy, cyc_far = cyc[: j + 1], cyc[j:] + [cyc[0]]
                    else:
                        cyc_xy, cyc_far = cyc[j:] + cyc[: i + 1], cyc[i : j + 1]
                    far = self._far_side(scope, cyc_far)
                    near = (scope - far - set(cyc_far)) | set(cyc_xy)
                    u, w = cyc[i], cyc[j]
                    sc2 = far | set(cyc_far)
                    probe = trace_face(self.rot, sc2, u, w)
                    if set(probe) != set(cyc_far) or len(probe) != len(cyc_far):
                        u, w = w, u
                    work += [(sc2, u, w), (near, x, y)]
                    break
                # no chord: peel the outer neighbour of x opposite y
                v, w = cyc[-1], cyc[-2]
                cx = min(self.lists[x])
                c1, c2 = sorted(self.lists[v] - {cx})[:2]
                for h in self.adj[v] & scope:
                    if h not in (x, w):
                        self.lists[h] -= {c1, c2}
                scope.remove(v)
                work.append((v, w, c1, c2))
            else:
                self._color_edge(x, y)

    def _find_chord(self, cyc: list[int]) -> tuple[int, int] | None:
        p = len(cyc)
        for i in range(p - 1):
            ai = self.adj[cyc[i]]
            for j in range(i + 2, p):
                if i == 0 and j == p - 1:
                    continue
                if cyc[j] in ai:
                    return (i, j)
        return None

    def _far_side(self, scope: set[int], cyc_far: list[int]) -> set[int]:
        """Vertices strictly inside the chord cycle ``cyc_far``, away from x and y.

        Every scope is a near-triangulation: its outer walk is a simple cycle
        (``_recurse`` checks this) and every inner face is a triangle
        (``_triangulate``).  So nothing hangs on the two chord ends alone, and
        the far side is what the far arc reaches without passing through them.
        """
        seen = set(cyc_far)
        stack = cyc_far[1:-1]
        while stack:
            for w in self.adj[stack.pop()] & scope:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen - set(cyc_far)


# ---------------------------------------------------------------------------
# subtract and extend
# ---------------------------------------------------------------------------


def residual_lists(
    g: Graph, lists: Sequence[frozenset], psi: Mapping[int, int]
) -> dict[int, set]:
    """Lists of G - dom(psi) less the colours used next door, as fresh sets."""
    out = {}
    for v in range(g.n):
        if v in psi:
            continue
        drop = {psi[u] for u in g.adj[v] if u in psi}
        out[v] = set(lists[v])
        out[v] -= drop
    return out


def observation_extend(
    pg: PlaneGraph,
    lists: Sequence[frozenset],
    psi: Mapping[int, int],
    pair: tuple[int, int] | None = None,
) -> Coloring | None:
    """Extend ``psi`` to all of the graph by colouring the plane remainder.

    ``pair`` optionally dictates which two adjacent vertices must serve as
    the soft pair of their component (their shortened lists may drop to 1).
    Returns None when the preconditions fail; never returns an improper
    colouring (the result is validated).
    """
    bad, plan = _plan_extension(pg, lists, psi, pair)
    if bad:
        return None
    sub, rot, order, res, pieces = plan
    phi: Coloring = dict(psi)
    for v, c in _color_pieces(sub, rot, res, pieces).items():
        phi[order[v]] = c
    errors = validate_coloring(pg.real, lists, phi)
    if errors:
        raise InvalidColoringError(f"extension broke the colouring: {errors}")
    return phi


def _plan_extension(pg, lists, psi, pair):
    bad: list[tuple[str, int | None]] = []
    g = pg.real
    for u, c in psi.items():
        if c not in lists[u]:
            bad.append(("psi-off-list", u))
    for u, v in g.edges:
        if u in psi and v in psi and psi[u] == psi[v]:
            bad.append(("psi-monochromatic-edge", u))
    if pair is not None:
        pu, pv = pair
        if pu in psi or pv in psi:
            bad.append(("pair-unavailable", min(pair)))
        elif not g.has_edge(pu, pv):
            bad.append(("pair-not-edge", min(pair)))
    if bad:
        return bad, None
    sub, order = g.induced([v for v in range(g.n) if v not in psi])
    rest = restrict_plane(pg, sub, order)
    if rest.crossings:
        return [("crossing-survives", None)], None
    rot = rest.rotation
    back = {old: new for new, old in enumerate(order)}
    res = residual_lists(g, lists, psi)
    short = {back[v] for v, L in res.items() if len(L) <= 4}
    for v, L in res.items():
        if not L:
            bad.append(("empty-list", v))
    if bad:
        return bad, None

    walks = face_walks(rot)
    comp_list = components(sub)
    want = None
    if pair is not None:
        want = (back[pair[0]], back[pair[1]])
    pieces: list[Piece] = []
    for comp in comp_list:
        cset = set(comp)
        small = sorted(v for v in cset & short if len(res[order[v]]) <= 2)
        forced = want if want and want[0] in cset else None
        if forced is None and small:
            if len(small) > 2:
                bad.append(("too-many-small", order[small[2]]))
                continue
            if len(small) == 2:
                a, b = small
                if not sub.has_edge(a, b):
                    bad.append(("small-pair-not-adjacent", order[a]))
                    continue
                la, lb = res[order[a]], res[order[b]]
                if len(la) == 1 and la == lb:
                    bad.append(("small-pair-equal-singletons", order[a]))
                    continue
                forced = (a, b)
        elif forced is not None:
            stray = [v for v in small if v not in forced]
            if stray:
                bad.append(("small-not-on-pair", order[stray[0]]))
                continue
            la, lb = res[order[forced[0]]], res[order[forced[1]]]
            if len(la) == 1 and la == lb:
                bad.append(("small-pair-equal-singletons", order[forced[0]]))
                continue
        need = cset & short
        if len(comp) == 1:
            pieces.append((comp, comp[0], None))
            continue
        found = _face_for(walks, cset, need, forced, small)
        if found is None:
            witness = min(need) if need else comp[0]
            bad.append(("no-common-face", order[witness]))
            continue
        pieces.append((comp, *found))
    plan = (sub, rot, order, [res[v] for v in order], pieces)
    return bad, (None if bad else plan)


def _face_for(walks, cset, need, forced, small):
    """Pick (x, y) consecutive on a face walk of this component covering ``need``.

    A dictated pair must appear as consecutive walk entries (in either
    direction); failing that, a vertex whose list fell to <= 2 must itself
    become x.  Walks are scanned in tracing order, so the choice is stable.
    """
    for w in walks:
        if w[0] not in cset:
            continue
        if not need <= set(w):
            continue
        k = len(w)
        if forced is not None:
            for i in range(k):
                a, b = w[i], w[(i + 1) % k]
                if (a, b) == forced or (b, a) == forced:
                    return a, b
            continue
        anchor = small[0] if small else (min(need) if need else w[0])
        i = w.index(anchor)
        return w[i], w[(i + 1) % k]
    return None
