"""Immutable simple graphs on vertex set {0..n-1}, plus graph6 I/O.

Vertices are always dense integer ids.  Sub-instances produced by the solver
relabel into this form and keep their own back-maps; nothing in here knows
about lists, crossings or triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import Graph6Error

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; ``adj[v]`` is a sorted tuple of neighbours."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))

    @cached_property
    def adj_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(nb) for nb in self.adj)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(
            (u, v) for u in range(self.n) for v in self.adj[u] if u < v
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj_sets[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def induced(self, keep: Sequence[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph on ``keep``; second value maps new id -> old id."""
        order = tuple(sorted(set(keep)))
        back = {old: new for new, old in enumerate(order)}
        edges = [
            (back[u], back[v])
            for u, v in self.edges
            if u in back and v in back
        ]
        return Graph.from_edges(len(order), edges), order


# ---------------------------------------------------------------------------
# connectivity helpers (work on any Sequence-of-neighbour-iterables)
# ---------------------------------------------------------------------------


def components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    out: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


class Articulation(NamedTuple):
    """Biconnected structure of ``G - skip`` (all of G when nothing is skipped)."""

    blocks: list[list[Edge]]  # edge lists; a bridge is a two-vertex block
    cuts: set[int]  # articulation vertices
    components: int  # connected components, isolated vertices included
    isolated: set[int]  # vertices with no neighbour but ``skip``


def articulation(
    g: Graph, skip: int | None = None, *, blocks: bool = True
) -> Articulation:
    """Blocks, cut vertices and components of G with ``skip`` deleted.

    Iterative Hopcroft–Tarjan, linear in the size of G; isolated vertices
    yield no block.  One pass per vertex u gives every 2-cut {u, v}.  With
    ``blocks=False`` the edge stack is not kept and ``blocks`` comes back
    empty, which saves about a third of a pass for callers that read only
    cut vertices and components.
    """
    adj = g.adj
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    found: list[list[Edge]] = []
    cuts: set[int] = set()
    isolated: set[int] = set()
    components = 0
    estack: list[Edge] = []
    timer = 0

    for root in range(g.n):
        if disc[root] != -1 or root == skip:
            continue
        components += 1
        root_children = 0
        disc[root] = low[root] = timer
        timer += 1
        # (vertex, its neighbours not yet looked at) work stack
        work = [(root, iter(adj[root]))]
        while work:
            u, nbrs = work[-1]
            for w in nbrs:
                if w == skip:
                    continue
                if disc[w] == -1:
                    if blocks:
                        estack.append((u, w))
                    parent[w] = u
                    disc[w] = low[w] = timer
                    timer += 1
                    if u == root:
                        root_children += 1
                    work.append((w, iter(adj[w])))
                    break
                if w != parent[u] and disc[w] < disc[u]:
                    if blocks:
                        estack.append((u, w))
                    if disc[w] < low[u]:
                        low[u] = disc[w]
            else:
                work.pop()
                if not work:
                    continue
                p = work[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
                if low[u] >= disc[p]:
                    if blocks:
                        # pop the block of the tree edge (p, u)
                        blk: list[Edge] = []
                        while estack:
                            e = estack.pop()
                            blk.append(e if e[0] < e[1] else (e[1], e[0]))
                            if e == (p, u):
                                break
                        found.append(blk)
                    if p != root:
                        cuts.add(p)
        if root_children == 0:
            isolated.add(root)
        elif root_children >= 2:
            cuts.add(root)
    return Articulation(found, cuts, components, isolated)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

_HEADER = b">>graph6<<"


def _bits(data: bytes, start: int) -> Iterator[int]:
    for off in range(start, len(data)):
        b = data[off]
        if not (63 <= b <= 126):
            raise Graph6Error(f"byte 0x{b:02x} outside graph6 range", off)
        x = b - 63
        for shift in (5, 4, 3, 2, 1, 0):
            yield (x >> shift) & 1


def parse_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 value (optional standard header allowed)."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.rstrip(b"\r\n")
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    if not data:
        raise Graph6Error("empty input", 0)

    pos = 0
    if data[0] == 126:  # '~'
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte vertex counts not supported", 1)
        if len(data) < 4:
            raise Graph6Error("truncated long vertex count", len(data))
        n = 0
        for off in range(1, 4):
            b = data[off]
            if not (63 <= b <= 126):
                raise Graph6Error(f"byte 0x{b:02x} outside graph6 range", off)
            n = (n << 6) | (b - 63)
        if n <= 62:
            raise Graph6Error("long form used for small n", 0)
        pos = 4
    else:
        b = data[0]
        if not (63 <= b <= 126):
            raise Graph6Error(f"byte 0x{b:02x} outside graph6 range", 0)
        n = b - 63
        pos = 1

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos != need:
        raise Graph6Error(
            f"expected {need} payload bytes for n={n}, got {len(data) - pos}",
            pos,
        )
    edges = []
    stream = _bits(data, pos)
    k = 0
    for v in range(1, n):
        for u in range(v):
            if next(stream) == 1:
                edges.append((u, v))
            k += 1
    # remaining padding must be zero
    pad_off = pos + k // 6
    for bit in stream:
        if bit:
            raise Graph6Error("nonzero padding bits", pad_off)
    return Graph.from_edges(n, edges)


def emit_graph6(g: Graph) -> bytes:
    if g.n > 258047:
        raise Graph6Error(f"n={g.n} too large to encode")
    if g.n <= 62:
        head = bytes([g.n + 63])
    else:
        head = bytes(
            [126, 63 + (g.n >> 12), 63 + ((g.n >> 6) & 63), 63 + (g.n & 63)]
        )
    buf = bytearray(head)
    acc = 0
    fill = 0
    for v in range(1, g.n):
        row = g.adj_sets[v]
        for u in range(v):
            acc = (acc << 1) | (1 if u in row else 0)
            fill += 1
            if fill == 6:
                buf.append(acc + 63)
                acc, fill = 0, 0
    if fill:
        buf.append((acc << (6 - fill)) + 63)
    return bytes(buf)
