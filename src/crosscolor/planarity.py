"""Planarity testing and combinatorial embeddings.

The embedder is the left-right planarity test (Brandes, *The Left-Right
Planarity Test*, 2009, after de Fraysseix and Rosenstiehl), which decides
planarity and yields a rotation system in linear time.  It runs in three
depth-first passes over the whole graph, so disconnected graphs and cut
vertices need no special handling:

1. orientation: a DFS forest orients every edge (tree edges downwards, back
   edges upwards) and records each edge's two lowest return points, which
   give its nesting depth;
2. testing: a second DFS, visiting out-edges by nesting depth, merges the
   return edges of sibling subtrees into a stack of conflict pairs, each a
   left and a right interval of edges that must lie on opposite sides; a
   pair that needs both sides at once proves the graph nonplanar;
3. embedding: each edge's side, resolved along its chain of references,
   signs its nesting depth; out-edges are reordered by the signed depth and
   a third DFS threads every back edge into the rotation at its upper end.

All three passes use explicit stacks, so no input depth reaches Python's
recursion limit.  The solver embeds a drawing once; sub-instances that only
delete vertices restrict that embedding
(:func:`crosscolor.drawing.restrict_plane`) instead of calling the embedder.

An embedding is represented as a rotation system: ``rotation[v]`` is the
cyclic order of neighbours around ``v``.  Face tracing follows the rule
``next(u, v) = (v, rotation[v][pos(u) + 1])``; everything downstream (outer
walks, chord sides, crossing regions) sticks to that convention.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, components

Rotation = tuple[tuple[int, ...], ...]


def try_embedding(g: Graph) -> Rotation | None:
    """Rotation system of a planar embedding, or None."""
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return None
    dfs = _orient(g)
    side = _lr_sides(dfs)
    if side is None:
        return None
    rot = _embed(dfs, side)
    check_euler(g, rot)
    return rot


def face_walks(rotation: Rotation) -> list[list[int]]:
    """All face boundary walks of a rotation system.

    Each walk lists the tail of every directed edge on the face in order;
    every directed edge appears in exactly one walk.
    """
    pos = [{u: i for i, u in enumerate(r)} for r in rotation]
    seen: set[tuple[int, int]] = set()
    walks = []
    for u in range(len(rotation)):
        for v in rotation[u]:
            if (u, v) in seen:
                continue
            walk = []
            x, y = u, v
            while (x, y) not in seen:
                seen.add((x, y))
                walk.append(x)
                r = rotation[y]
                x, y = y, r[(pos[y][x] + 1) % len(r)]
            walks.append(walk)
    return walks


def directed_face_index(walks: list[list[int]]) -> dict[tuple[int, int], int]:
    """Map each directed edge to the index of the face walk it lies on."""
    out: dict[tuple[int, int], int] = {}
    for f, w in enumerate(walks):
        for i in range(len(w)):
            out[(w[i], w[(i + 1) % len(w)])] = f
    return out


def check_euler(g: Graph, rotation: Rotation) -> None:
    """Raise AssertionError unless ``rotation`` is a genus-zero embedding of ``g``."""
    if len(rotation) != g.n:
        raise AssertionError(
            f"rotation has {len(rotation)} rows for a graph on {g.n} vertices"
        )
    for v in range(g.n):
        if tuple(sorted(rotation[v])) != g.adj[v]:
            raise AssertionError(
                f"rotation at {v} is not a permutation of its neighbours"
            )
    comps = components(g)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    fcount = [0] * len(comps)
    for w in face_walks(rotation):
        fcount[comp_of[w[0]]] += 1
    for ci, comp in enumerate(comps):
        nv = len(comp)
        ne = sum(g.degree(v) for v in comp) // 2
        nf = fcount[ci] if ne else 1
        if nv - ne + nf != 2:
            raise AssertionError(
                f"component {ci}: V-E+F = {nv}-{ne}+{nf} != 2"
            )


# ---------------------------------------------------------------------------
# left-right planarity test
#
# Edges are numbered in the order the first DFS orients them; edge e runs
# from src[e] to dst[e], and -1 stands for "no edge" throughout.
# ---------------------------------------------------------------------------


class _Dfs(NamedTuple):
    """The oriented DFS forest of phase 1."""

    n: int
    height: list[int]  # depth in the forest; roots are at 0
    parent_edge: list[int]  # tree edge into each vertex
    src: list[int]
    dst: list[int]
    lowpt: list[int]
    nesting: list[int]
    roots: list[int]


def _orient(g: Graph) -> _Dfs:
    """Phase 1: orient every edge along a DFS forest and rank it by nesting.

    ``lowpt[e]`` and ``lowpt2[e]`` are the lowest and second-lowest heights
    that edges from e's subtree (e itself included) return to.  An edge
    nests by ``2 * lowpt``, plus one when it is chordal (returns to two
    distinct heights below its tail).
    """
    adj = g.adj
    height = [-1] * g.n
    parent_edge = [-1] * g.n
    src: list[int] = []
    dst: list[int] = []
    lowpt: list[int] = []
    lowpt2: list[int] = []
    nesting: list[int] = []
    roots = []

    def settle(e: int, hv: int, f: int) -> None:
        # e (tail at height hv) is final: rank it, fold it into f = pe(tail)
        lo, lo2 = lowpt[e], lowpt2[e]
        nesting[e] = 2 * lo + (lo2 < hv)
        if f < 0:
            return
        if lo < lowpt[f]:
            lowpt2[f] = min(lowpt[f], lo2)
            lowpt[f] = lo
        elif lo > lowpt[f]:
            lowpt2[f] = min(lowpt2[f], lo)
        else:
            lowpt2[f] = min(lowpt2[f], lo2)

    for root in range(g.n):
        if height[root] != -1:
            continue
        height[root] = 0
        roots.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, nbrs = work[-1]
            hv = height[v]
            pe = parent_edge[v]
            up = src[pe] if pe >= 0 else -1
            for w in nbrs:
                hw = height[w]
                if hw == -1:  # tree edge
                    parent_edge[w] = len(src)
                    height[w] = hv + 1
                    src.append(v)
                    dst.append(w)
                    lowpt.append(hv)
                    lowpt2.append(hv)
                    nesting.append(0)
                    work.append((w, iter(adj[w])))
                    break
                if hw < hv and w != up:  # back edge to an ancestor
                    e = len(src)
                    src.append(v)
                    dst.append(w)
                    lowpt.append(hw)
                    lowpt2.append(hv)
                    nesting.append(0)
                    settle(e, hv, pe)
                # else: the tree edge to the parent, or a back edge from a
                # descendant, both oriented already
            else:
                work.pop()
                if pe >= 0:
                    settle(pe, hv - 1, parent_edge[up])
    return _Dfs(g.n, height, parent_edge, src, dst, lowpt, nesting, roots)


def _out_edges(n: int, src: list[int], key: list[int], span: int) -> list[list[int]]:
    """Each vertex's out-edges in ascending ``key`` (keys in range(span)).

    A bucket sort, so linear; ties keep edge-id order.
    """
    buckets: list[list[int]] = [[] for _ in range(span)]
    for e, k in enumerate(key):
        buckets[k].append(e)
    out: list[list[int]] = [[] for _ in range(n)]
    for b in buckets:
        for e in b:
            out[src[e]].append(e)
    return out


def _lr_sides(dfs: _Dfs) -> list[int] | None:
    """Phase 2: a left/right partition of the edges, or None if none exists.

    While the DFS runs, ``side[e]`` is relative: e lies on the same side as
    ``ref[e]`` when it is +1 and on the other when it is -1.  The returned
    sides are absolute (+1 right, -1 left).  A conflict pair is a list
    ``[left.low, left.high, right.low, right.high]`` of edge ids; an
    interval is empty when its ends are -1.
    """
    height, parent_edge = dfs.height, dfs.parent_edge
    src, dst, lowpt = dfs.src, dfs.dst, dfs.lowpt
    m = len(src)
    out = _out_edges(dfs.n, src, dfs.nesting, 2 * dfs.n + 2)
    ref = [-1] * m
    side = [1] * m
    lowpt_edge = [-1] * m
    bottom: list[list[int] | None] = [None] * m  # top of S when e was entered
    S: list[list[int]] = []

    def add_constraints(ei: int, e: int) -> bool:
        pll = plh = prl = prh = -1
        # merge the return edges of ei into P.right
        while True:
            q = S.pop()
            ql, qh, rl, rh = q
            if ql != -1:
                ql, qh, rl, rh = rl, rh, ql, qh
            if ql != -1:
                return False
            if lowpt[rl] > lowpt[e]:  # merge intervals
                if prl == -1:
                    prh = rh
                else:
                    ref[prl] = rh
                prl = rl
            else:  # align with e's lowest return edge
                ref[rl] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        # merge the conflicting return edges of ei's earlier siblings into P.left
        lo = lowpt[ei]
        while S:
            ql, qh, rl, rh = S[-1]
            left_hit = qh != -1 and lowpt[qh] > lo
            right_hit = rh != -1 and lowpt[rh] > lo
            if not (left_hit or right_hit):
                break
            S.pop()
            if right_hit:
                ql, qh, rl, rh = rl, rh, ql, qh
                if left_hit:
                    return False
            # the part below lowpt(ei) joins P.right
            if prl != -1:
                ref[prl] = rh
            if rl != -1:
                prl = rl
            if pll == -1:
                plh = qh
            else:
                ref[pll] = qh
            pll = ql
        if pll != -1 or prl != -1:
            S.append([pll, plh, prl, prh])
        return True

    def lowest(p: list[int]) -> int:
        if p[0] == -1:
            return lowpt[p[2]]
        if p[2] == -1:
            return lowpt[p[0]]
        return min(lowpt[p[0]], lowpt[p[2]])

    def remove_back_edges(e: int) -> None:
        u = src[e]
        hu = height[u]
        # drop whole conflict pairs that return to u
        while S and lowest(S[-1]) == hu:
            p = S.pop()
            if p[0] != -1:
                side[p[0]] = -1
        if S:  # trim the top pair's intervals at u
            p = S[-1]
            h = p[1]
            while h != -1 and dst[h] == u:
                h = ref[h]
            p[1] = h
            if h == -1 and p[0] != -1:  # left just emptied
                ref[p[0]] = p[2]
                side[p[0]] = -1
                p[0] = -1
            h = p[3]
            while h != -1 and dst[h] == u:
                h = ref[h]
            p[3] = h
            if h == -1 and p[2] != -1:  # right just emptied
                ref[p[2]] = p[0]
                side[p[2]] = -1
                p[2] = -1
        if lowpt[e] < hu:  # e takes the side of a return edge of the top pair
            # Brandes takes the higher high when both sides are non-empty,
            # but then the pick cannot matter.  add_constraints rejects a
            # two-sided pair unless e is u's first out-edge; and every edge
            # of such a pair returns above lowpt(e), so a later out-edge
            # with e's nesting conflicts with both sides.  That leaves e
            # the only out-edge of least nesting, which sits between u's
            # left and right out-edges whatever its sign.
            _, hl, _, hr = S[-1]
            ref[e] = hl if hr == -1 else hr

    def integrate(ei: int, v: int) -> bool:
        # fold the return edges of out-edge ei into v's parent edge
        if lowpt[ei] >= height[v]:
            return True
        e = parent_edge[v]
        if ei == out[v][0]:
            lowpt_edge[e] = lowpt_edge[ei]
            return True
        return add_constraints(ei, e)

    nxt = [0] * dfs.n  # index of each vertex's next out-edge
    for root in dfs.roots:
        work = [root]
        while work:
            v = work[-1]
            ov = out[v]
            i = nxt[v]
            while i < len(ov):
                ei = ov[i]
                i += 1
                bottom[ei] = S[-1] if S else None
                w = dst[ei]
                if parent_edge[w] == ei:  # tree edge: descend
                    nxt[v] = i
                    work.append(w)
                    break
                lowpt_edge[ei] = ei
                S.append([-1, -1, ei, ei])
                if not integrate(ei, v):
                    return None
            else:
                work.pop()
                e = parent_edge[v]
                if e >= 0:
                    remove_back_edges(e)
                    if not integrate(e, src[e]):
                        return None

    # resolve relative sides along the reference chains
    for e in range(m):
        chain = []
        x = e
        while ref[x] != -1:
            chain.append(x)
            x = ref[x]
        s = side[x]
        for y in reversed(chain):
            s *= side[y]
            side[y] = s
            ref[y] = -1
    return side


def _embed(dfs: _Dfs, side: list[int]) -> Rotation:
    """Phase 3: the rotation system from the signed nesting order.

    Half-edge ``2e`` sits at ``src[e]`` and ``2e + 1`` at ``dst[e]``; each
    vertex keeps its half-edges in a circular doubly linked list.
    """
    n, parent_edge, src, dst = dfs.n, dfs.parent_edge, dfs.src, dfs.dst
    m = len(src)
    span = 2 * n + 2
    key = [span + d * s for d, s in zip(dfs.nesting, side)]
    out = _out_edges(n, src, key, 2 * span)
    succ = [0] * (2 * m)
    pred = [0] * (2 * m)
    first = [-1] * n
    for v, ov in enumerate(out):
        if not ov:
            continue
        hs = [2 * e for e in ov]
        for a, b in zip(hs, hs[1:] + hs[:1]):
            succ[a] = b
            pred[b] = a
        first[v] = hs[0]

    def insert_after(a: int, h: int) -> None:
        b = succ[a]
        succ[a] = h
        pred[h] = a
        succ[h] = b
        pred[b] = h

    left_ref = [-1] * n  # half-edge before which the next left back edge goes
    right_ref = [-1] * n  # half-edge after which right back edges go
    nxt = [0] * n
    for root in dfs.roots:
        work = [root]
        while work:
            v = work[-1]
            ov = out[v]
            i = nxt[v]
            while i < len(ov):
                ei = ov[i]
                i += 1
                w = dst[ei]
                h = 2 * ei + 1
                if parent_edge[w] == ei:  # tree edge: w's half leads w's list
                    if first[w] == -1:
                        succ[h] = pred[h] = h
                    else:
                        insert_after(pred[first[w]], h)
                    first[w] = h
                    left_ref[v] = right_ref[v] = 2 * ei
                    nxt[v] = i
                    work.append(w)
                    break
                if side[ei] == 1:
                    insert_after(right_ref[w], h)
                else:
                    insert_after(pred[left_ref[w]], h)
                    left_ref[w] = h
            else:
                work.pop()

    rows = []
    for v in range(n):
        row = []
        h = start = first[v]
        if h != -1:
            while True:
                e = h >> 1
                row.append(src[e] if h & 1 else dst[e])
                h = succ[h]
                if h == start:
                    break
        rows.append(tuple(row))
    return tuple(rows)
