"""Reference planarity checks that only the tests use.

``planar_by_minors`` is a deliberately independent slow oracle (reduction to
Wagner's theorem plus exhaustive minor-model search) used to cross-check the
embedder.  ``kuratowski_witness`` shrinks a nonplanar graph to an
edge-minimal nonplanar subgraph by repeated embedding attempts.
"""

from __future__ import annotations

from dataclasses import dataclass

from crosscolor.graphs import Edge, Graph, articulation, norm_edge
from crosscolor.planarity import Rotation, try_embedding


class NonplanarGraphError(ValueError):
    """An embedding was demanded of a graph that has none."""


def is_planar(g: Graph) -> bool:
    return try_embedding(g) is not None


def compute_embedding(g: Graph) -> Rotation:
    rot = try_embedding(g)
    if rot is None:
        raise NonplanarGraphError(f"graph with {g.n} vertices is not planar")
    return rot


# ---------------------------------------------------------------------------
# nonplanarity witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KuratowskiWitness:
    kind: str  # "K5" or "K33"
    edges: tuple[Edge, ...]
    branch_vertices: tuple[int, ...]


def kuratowski_witness(g: Graph) -> KuratowskiWitness:
    """Edge-minimal nonplanar subgraph, classified by its branch degrees."""
    if try_embedding(g) is not None:
        raise ValueError("witness requested for a planar graph")
    edges = list(g.edges)
    i = 0
    while i < len(edges):
        trial = edges[:i] + edges[i + 1 :]
        if try_embedding(Graph.from_edges(g.n, trial)) is None:
            edges = trial
        else:
            i += 1
    sub = Graph.from_edges(g.n, edges)
    branch = tuple(v for v in range(g.n) if sub.degree(v) >= 3)
    degs = sorted(sub.degree(v) for v in branch)
    if degs == [4] * 5:
        kind = "K5"
    elif degs == [3] * 6:
        kind = "K33"
    else:  # pragma: no cover - would contradict Kuratowski's theorem
        raise AssertionError(f"minimal nonplanar subgraph, branch degs {degs}")
    return KuratowskiWitness(kind, tuple(edges), branch)


# ---------------------------------------------------------------------------
# independent oracle: Wagner's theorem by brute-force minor search
# ---------------------------------------------------------------------------

_ORACLE_LIMIT = 18


def planar_by_minors(g: Graph) -> bool:
    """Slow reference check: planar iff no K5 and no K33 minor.

    Degree-(<=2) reductions preserve planarity in both directions, so the
    model search only ever sees smallish kernels.  Refuses graphs whose
    kernel stays above ``_ORACLE_LIMIT`` vertices.
    """
    g = _shrink(g)
    for blk, _ in _block_subgraphs(g):
        blk = _shrink(blk)
        if blk.m < 9:
            continue
        h, _ = blk.induced([v for v in range(blk.n) if blk.degree(v) > 0])
        if h.n > _ORACLE_LIMIT:
            raise ValueError(f"minor oracle limited to {_ORACLE_LIMIT} vertices")
        if _has_k5_model(h) or _has_k33_model(h):
            return False
    return True


def _shrink(g: Graph) -> Graph:
    """Delete degree-<=1 vertices and smooth degree-2 vertices, to a fixpoint."""
    edges = set(g.edges)
    alive = set(range(g.n))
    changed = True
    while changed:
        changed = False
        deg: dict[int, set[int]] = {v: set() for v in alive}
        for u, v in edges:
            deg[u].add(v)
            deg[v].add(u)
        for v in sorted(alive):
            nb = deg[v]
            if len(nb) <= 1:
                alive.discard(v)
                edges -= {norm_edge(v, u) for u in nb}
                changed = True
                break
            if len(nb) == 2:
                a, b = sorted(nb)
                alive.discard(v)
                edges -= {norm_edge(v, a), norm_edge(v, b)}
                edges.add(norm_edge(a, b))
                changed = True
                break
    return Graph.from_edges(g.n, edges)


def _block_subgraphs(g: Graph):
    for blk in articulation(g).blocks:
        vs = sorted({v for e in blk for v in e})
        sub, order = Graph.from_edges(g.n, blk).induced(vs)
        yield sub, order


def _connected_masks(g: Graph) -> list[int]:
    adjbit = [0] * g.n
    for u, v in g.edges:
        adjbit[u] |= 1 << v
        adjbit[v] |= 1 << u
    out = []
    for mask in range(1, 1 << g.n):
        low = mask & -mask
        reach = low
        while True:
            grow = reach
            for v in range(g.n):
                if reach >> v & 1:
                    grow |= adjbit[v] & mask
            if grow == reach:
                break
            reach = grow
        if reach == mask:
            out.append(mask)
    return out


def _mask_nbrs(g: Graph, masks: list[int]) -> dict[int, int]:
    adjbit = [0] * g.n
    for u, v in g.edges:
        adjbit[u] |= 1 << v
        adjbit[v] |= 1 << u
    out = {}
    for m in masks:
        nb = 0
        for v in range(g.n):
            if m >> v & 1:
                nb |= adjbit[v]
        out[m] = nb & ~m
    return out


def _has_k5_model(g: Graph) -> bool:
    masks = _connected_masks(g)
    nbr = _mask_nbrs(g, masks)
    masks.sort(key=lambda m: (m & -m, m))

    def grow(chosen: list[int], used: int, lo: int) -> bool:
        if len(chosen) == 5:
            return True
        for m in masks:
            if (m & -m) <= lo or m & used:
                continue
            if any(not (nbr[c] & m) for c in chosen):
                continue
            if grow(chosen + [m], used | m, m & -m):
                return True
        return False

    return grow([], 0, 0)


def _has_k33_model(g: Graph) -> bool:
    masks = _connected_masks(g)
    nbr = _mask_nbrs(g, masks)
    masks.sort(key=lambda m: (m & -m, m))

    def pick_b(a: list[int], b: list[int], used: int, lo: int) -> bool:
        if len(b) == 3:
            return True
        for m in masks:
            if (m & -m) <= lo or m & used:
                continue
            if any(not (nbr[x] & m) for x in a):
                continue
            if pick_b(a, b + [m], used | m, m & -m):
                return True
        return False

    def pick_a(a: list[int], used: int, lo: int) -> bool:
        if len(a) == 3:
            return pick_b(a, [], used, a[0] & -a[0])
        for m in masks:
            if (m & -m) <= lo or m & used:
                continue
            if pick_a(a + [m], used | m, m & -m):
                return True
        return False

    return pick_a([], 0, 0)
