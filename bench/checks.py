"""Correctness checks that share no code with the program.

Colourings are checked against the benchmark's own edge and list data.
Inputs are checked against the theorem's hypotheses, and for drawability
with ``networkx.check_planarity`` on the benchmark's own planarization.
Every function returns a list of faults; empty means the check passed.
"""

from __future__ import annotations

from corpora import Drawing, GridTask, face_left_of


def coloring_faults(n: int, edges, lists, phi) -> list[str]:
    if not isinstance(phi, dict):
        return [f"no colouring returned ({type(phi).__name__})"]
    out = []
    if set(phi) != set(range(n)):
        out.append(f"coloured {len(phi)} of {n} vertices")
    for v in range(n):
        if v in phi and phi[v] not in lists[v]:
            out.append(f"vertex {v} has colour {phi[v]} outside its list")
    for u, v in edges:
        if u in phi and phi.get(u) == phi.get(v):
            out.append(f"edge {u}-{v} is monochromatic")
    return out


def recolor_to_neighbour(edges, phi: dict) -> dict:
    """``phi`` with one endpoint of the first edge given its neighbour's colour."""
    u, v = edges[0]
    bad = dict(phi)
    bad[u] = phi[v]
    return bad


def _planarized(n: int, edges, crossings):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    for i, (e, f) in enumerate(crossings):
        d = ("x", i)
        for a, b in (e, f):
            g.remove_edge(a, b)
            g.add_edges_from([(a, d), (d, b)])
    return g


def drawing_faults(d: Drawing, min_degree: int) -> list[str]:
    import networkx as nx

    out = []
    edge_set = set(d.edges)
    if len(d.crossings) > 2:
        out.append(f"{len(d.crossings)} crossings")
    crossed = [e for pair in d.crossings for e in pair]
    if len(set(crossed)) != len(crossed):
        out.append("an edge is crossed twice")
    for e, f in d.crossings:
        if e not in edge_set or f not in edge_set or set(e) & set(f):
            out.append(f"crossing {e} x {f} is not two disjoint edges")
    if any(len(set(lst)) < 5 for lst in d.lists):
        out.append("a list has fewer than 5 colours")
    degree = [0] * d.n
    for u, v in d.edges:
        degree[u] += 1
        degree[v] += 1
    if min(degree) < min_degree:
        out.append(f"minimum degree {min(degree)} < {min_degree}")
    if not out and not nx.check_planarity(_planarized(d.n, d.edges, d.crossings))[0]:
        out.append("planarization is not planar")
    return out


def grid_faults(t: GridTask) -> list[str]:
    import networkx as nx

    out = []
    nbrs = [set() for _ in range(t.n)]
    for u, v in t.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    if any(sorted(t.rotation[v]) != sorted(nbrs[v]) for v in range(t.n)):
        out.append("rotation is not a permutation of the neighbours")
        return out
    seen, faces = set(), 0
    for u in range(t.n):
        for v in t.rotation[u]:
            if (u, v) not in seen:
                walk = face_left_of(t.rotation, u, v)
                seen.update(zip(walk, walk[1:] + walk[:1]))
                faces += 1
    if t.n - len(t.edges) + faces != 2:
        out.append("rotation is not a plane embedding")
    if not nx.check_planarity(nx.Graph(list(t.edges)))[0]:
        out.append("graph is not planar")
    outer = face_left_of(t.rotation, t.x, t.y)
    if sorted(outer) != sorted(t.boundary) or len(outer) != 4 * (t.k - 1):
        out.append("face left of (x, y) is not the grid boundary")
    ring = set(t.boundary)
    for v in range(t.n):
        want = 1 if v in (t.x, t.y) else 3 if v in ring else 5
        if len(set(t.lists[v])) != want:
            out.append(f"vertex {v} holds {len(t.lists[v])} colours, want {want}")
    if t.lists[t.x] == t.lists[t.y]:
        out.append("x and y are precoloured alike")
    return out
