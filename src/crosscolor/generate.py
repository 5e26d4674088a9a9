"""Random drawn instances and boundary tasks for tests and experiments.

Graphs come from stacked (Apollonian) triangulations: repeatedly pick a
face and plant a new vertex inside it.  These are 3-connected for n >= 4,
so the embedding the planarity code recovers matches the construction and
face bookkeeping done here stays truthful.

A crossing is injected by picking an edge uv and joining the apexes x, y
of its two incident triangles with a new edge drawn straight through uv.
The planarized picture replaces the quadrilateral x-u-y-v by four
triangles around a dummy, so the result is drawable by construction.
Two crossings use vertex-disjoint quadrilaterals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import norm_edge
from .instance import Instance, make_instance
from .planarity import face_walks
from .thomassen import BoundaryTask

Face = tuple[int, int, int]


@dataclass(frozen=True)
class GenSpec:
    """Knobs for :func:`gen_random_instance`."""

    n: int
    crossings: int = 0
    seed: int = 0
    palette: int = 15
    list_size: int = 5
    triangle: bool = False


def random_plane_triangulation(
    n: int, rng: random.Random
) -> tuple[list[tuple[int, int]], list[Face]]:
    """Edges and faces of a random stacked triangulation on n >= 3 vertices."""
    if n < 3:
        raise ValueError("triangulations need at least 3 vertices")
    edges = {(0, 1), (0, 2), (1, 2)}
    faces: list[Face] = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {norm_edge(a, v), norm_edge(b, v), norm_edge(c, v)}
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return sorted(edges), faces


def _cross_sites(
    edges: set[tuple[int, int]], faces: list[Face], rng: random.Random, count: int
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Pick ``count`` crossings on vertex-disjoint quadrilaterals.

    Each site is (uv, xy): uv an existing edge, x and y the apexes of its
    two faces, xy not yet an edge.  Raises when the graph offers too few
    disjoint sites, which only happens for tiny or degenerate layouts.
    """
    by_edge: dict[tuple[int, int], list[int]] = {}
    for a, b, c in faces:
        for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
            by_edge.setdefault(norm_edge(u, v), []).append(w)
    sites = []
    for uv, apexes in by_edge.items():
        if len(apexes) != 2:
            continue
        x, y = apexes
        if x != y and norm_edge(x, y) not in edges:
            sites.append((uv, norm_edge(x, y)))
    rng.shuffle(sites)
    picked: list[tuple[tuple[int, int], tuple[int, int]]] = []
    used: set[int] = set()
    for uv, xy in sites:
        quad = set(uv) | set(xy)
        if used & quad:
            continue
        picked.append((uv, xy))
        used |= quad
        if len(picked) == count:
            return picked
    raise ValueError(
        f"only found {len(picked)} of {count} disjoint crossing sites"
    )


def gen_random_instance(spec: GenSpec) -> Instance:
    """A drawn instance matching ``spec``; deterministic in ``spec.seed``."""
    if spec.triangle and spec.crossings > 1:
        raise ValueError("a pinned triangle goes with at most one crossing")
    if spec.list_size + 3 > spec.palette and spec.triangle:
        raise ValueError("palette too small to pin a triangle disjointly")
    rng = random.Random(spec.seed)
    for _ in range(64):
        edges, faces = random_plane_triangulation(spec.n, rng)
        edge_set = set(edges)
        try:
            sites = (
                _cross_sites(edge_set, faces, rng, spec.crossings)
                if spec.crossings
                else []
            )
        except ValueError:
            continue  # this triangulation is too tight; redraw
        touched = {v for uv, xy in sites for v in uv + xy}
        quiet = [f for f in faces if not (set(f) & touched)]
        if spec.triangle and not quiet:
            continue  # the crossings shade every face; redraw
        break
    else:
        raise ValueError(
            f"no room for {spec.crossings} crossings at n={spec.n}"
            + (" plus an untouched triangle" if spec.triangle else "")
        )
    crossings = []
    for uv, xy in sites:
        edge_set.add(xy)
        crossings.append((uv, xy))

    triangle = None
    lists: dict[int, list[int]] = {}
    if spec.triangle:
        triangle = quiet[rng.randrange(len(quiet))]
        # pins live above the working palette so random lists cannot clash
        for t, c in zip(triangle, range(spec.palette, spec.palette + 3)):
            lists[t] = [c]
    for v in range(spec.n):
        if v not in lists:
            lists[v] = sorted(rng.sample(range(spec.palette), spec.list_size))
    inst = make_instance(
        spec.n,
        sorted(edge_set),
        lists,
        crossings=crossings,
        triangle=triangle,
    )
    if inst.plane is None:
        raise AssertionError("construction promised a drawing")
    return inst


def random_boundary_task(
    n: int, seed: int = 0, palette: int = 15
) -> BoundaryTask:
    """A valid boundary task on a random near-triangulation.

    Deleting one vertex of a stacked triangulation opens its link into a
    longer face; the task softens a random face of the result to 3-lists
    and pins two adjacent vertices on it.
    """
    rng = random.Random(seed)
    edges, _ = random_plane_triangulation(n + 1, rng)
    gone = rng.randrange(n + 1)
    keep = [v for v in range(n + 1) if v != gone]
    back = {v: i for i, v in enumerate(keep)}
    inst = make_instance(
        n,
        [
            (back[u], back[v])
            for u, v in edges
            if u != gone and v != gone
        ],
        {v: [0, 1, 2, 3, 4] for v in range(n)},
    )
    pg = inst.plane
    if pg is None:
        raise AssertionError("a plane triangulation minus a vertex has no drawing")
    walks = face_walks(pg.rotation)
    walk = max(walks, key=len) if rng.random() < 0.5 else walks[
        rng.randrange(len(walks))
    ]
    lists = [
        frozenset(rng.sample(range(palette), 5)) for _ in range(n)
    ]
    x, y = walk[0], walk[1]
    out = list(lists)
    for v in walk:
        out[v] = frozenset(rng.sample(sorted(lists[v]), 3))
    cx = min(out[x])
    cy = min(set(out[y]) - {cx})
    out[x] = frozenset({cx})
    out[y] = frozenset({cy})
    return BoundaryTask(
        graph=pg.real,
        rotation=pg.rotation,
        lists=tuple(out),
        x=x,
        y=y,
    )
