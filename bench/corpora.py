"""Input generators for the benchmark's three corpora.

Every input is a function of one ``random.Random`` and nothing else, so a
workload seed fixes the whole sequence of inputs.  None of the generators
embeds anything: drawings are built from face lists, and grid rotations
come straight from coordinates.  Vertex ids are shuffled on every input,
so no two operations in a run see the same labelled graph.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PALETTE = 15
LIST_SIZE = 5

Edge = tuple[int, int]
Face = tuple[int, int, int]

# The regular icosahedron as 20 triangles on vertices 0..11.
ICOSAHEDRON: tuple[Face, ...] = (
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
)


def norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Drawing:
    """A raw drawn instance: what a caller hands to ``make_instance``."""

    n: int
    edges: tuple[Edge, ...]
    lists: tuple[tuple[int, ...], ...]
    crossings: tuple[tuple[Edge, Edge], ...]


@dataclass(frozen=True)
class GridTask:
    """A triangulated k x k grid with a softened outer face.

    ``rotation`` is the embedding read off the coordinates; ``boundary`` is
    the outer cycle (as vertex ids) and ``x``/``y`` the precoloured pair on
    it, oriented so that the face left of ``(x, y)`` is the outer one.
    """

    k: int
    n: int
    edges: tuple[Edge, ...]
    rotation: tuple[tuple[int, ...], ...]
    lists: tuple[tuple[int, ...], ...]
    boundary: tuple[int, ...]
    x: int
    y: int


def edges_of(faces: list[Face] | tuple[Face, ...]) -> set[Edge]:
    return {norm(u, v) for a, b, c in faces for u, v in ((a, b), (b, c), (a, c))}


def loop_subdivide(faces: list[Face] | tuple[Face, ...]) -> list[Face]:
    """One step of loop subdivision: split every triangle into four."""
    n = 1 + max(v for f in faces for v in f)
    mid: dict[Edge, int] = {}
    for e in sorted(edges_of(faces)):
        mid[e] = n
        n += 1
    out: list[Face] = []
    for a, b, c in faces:
        ab, bc, ca = mid[norm(a, b)], mid[norm(b, c)], mid[norm(c, a)]
        out += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return out


def geodesic_faces(levels: int) -> list[Face]:
    """Icosahedral geodesic triangulation with 10 * 4**levels + 2 vertices."""
    faces = list(ICOSAHEDRON)
    for _ in range(levels):
        faces = loop_subdivide(faces)
    return faces


def crossing_sites(
    faces: list[Face], rng: random.Random, count: int
) -> list[tuple[Edge, Edge]]:
    """``count`` crossings on vertex-disjoint quadrilaterals.

    A site is an edge uv together with the apexes x, y of its two faces,
    xy not yet an edge; the new edge xy is drawn through uv, so the result
    is drawable by construction.
    """
    edges = edges_of(faces)
    apexes: dict[Edge, list[int]] = {}
    for a, b, c in faces:
        for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
            apexes.setdefault(norm(u, v), []).append(w)
    sites = []
    for uv in sorted(apexes):
        ws = apexes[uv]
        if len(ws) == 2 and ws[0] != ws[1] and norm(*ws) not in edges:
            sites.append((uv, norm(*ws)))
    rng.shuffle(sites)
    picked: list[tuple[Edge, Edge]] = []
    used: set[int] = set()
    for uv, xy in sites:
        quad = set(uv) | set(xy)
        if not used & quad:
            picked.append((uv, xy))
            used |= quad
            if len(picked) == count:
                return picked
    raise ValueError(f"only {len(picked)} of {count} disjoint crossing sites")


def random_lists(n: int, rng: random.Random) -> list[tuple[int, ...]]:
    return [tuple(sorted(rng.sample(range(PALETTE), LIST_SIZE))) for _ in range(n)]


def drawing_from_faces(
    n: int, faces: list[Face], crossings: int, rng: random.Random
) -> Drawing:
    """Relabel at random, add crossing edges on disjoint sites, draw lists."""
    sites = crossing_sites(faces, rng, crossings)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = edges_of(faces) | {xy for _, xy in sites}

    def relabel(e: Edge) -> Edge:
        return norm(perm[e[0]], perm[e[1]])

    return Drawing(
        n=n,
        edges=tuple(sorted(relabel(e) for e in edges)),
        lists=tuple(random_lists(n, rng)),
        crossings=tuple((relabel(uv), relabel(xy)) for uv, xy in sites),
    )


def stacked_drawing(rng: random.Random, n: int, crossings: int) -> Drawing:
    """Random stacked triangulation (the package's own generator), crossed."""
    # imported late: run.py puts the checkout's src/ on the path first
    from crosscolor.generate import random_plane_triangulation

    _, faces = random_plane_triangulation(n, rng)
    return drawing_from_faces(n, faces, crossings, rng)


def geodesic_drawing(
    rng: random.Random, faces: list[Face], crossings: int
) -> Drawing:
    n = 1 + max(v for f in faces for v in f)
    return drawing_from_faces(n, faces, crossings, rng)


def grid_task(rng: random.Random, k: int) -> GridTask:
    """Boundary task on a k x k grid, one random diagonal per cell."""
    n = k * k
    perm = list(range(n))
    rng.shuffle(perm)
    pos = {perm[i * k + j]: (i, j) for i in range(k) for j in range(k)}
    at = {p: v for v, p in pos.items()}
    edges: set[Edge] = set()
    for i in range(k):
        for j in range(k):
            v = at[(i, j)]
            if j + 1 < k:
                edges.add(norm(v, at[(i, j + 1)]))
            if i + 1 < k:
                edges.add(norm(v, at[(i + 1, j)]))
            if i + 1 < k and j + 1 < k:
                if rng.random() < 0.5:
                    edges.add(norm(v, at[(i + 1, j + 1)]))
                else:
                    edges.add(norm(at[(i, j + 1)], at[(i + 1, j)]))
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)

    def angle(v: int, w: int) -> float:
        (a, b), (c, d) = pos[v], pos[w]
        return math.atan2(d - b, c - a)

    rotation = tuple(
        tuple(sorted(nbrs[v], key=lambda w: angle(v, w))) for v in range(n)
    )
    ring = (
        [(0, j) for j in range(k)]
        + [(i, k - 1) for i in range(1, k)]
        + [(k - 1, j) for j in range(k - 2, -1, -1)]
        + [(i, 0) for i in range(k - 2, 0, -1)]
    )
    boundary = tuple(at[p] for p in ring)
    s = rng.randrange(len(boundary))
    x, y = boundary[s], boundary[(s + 1) % len(boundary)]
    if len(face_left_of(rotation, x, y)) != len(boundary):
        x, y = y, x
    lists = random_lists(n, rng)
    for v in boundary:
        lists[v] = tuple(sorted(rng.sample(lists[v], 3)))
    cx = rng.choice(lists[x])
    cy = rng.choice([c for c in lists[y] if c != cx])
    lists[x], lists[y] = (cx,), (cy,)
    return GridTask(
        k=k,
        n=n,
        edges=tuple(sorted(edges)),
        rotation=rotation,
        lists=tuple(lists),
        boundary=boundary,
        x=x,
        y=y,
    )


def face_left_of(rotation, u: int, v: int) -> list[int]:
    """Boundary walk from directed edge (u, v): next(a, b) = (b, rot[b][pos(a)+1])."""
    walk = []
    a, b = u, v
    while True:
        walk.append(a)
        row = rotation[b]
        a, b = b, row[(row.index(a) + 1) % len(row)]
        if (a, b) == (u, v):
            return walk
