"""Problem instances: a drawn graph, colour lists, optional precoloured triangle.

Two input shapes are meaningful to the solver:

* no triangle: at most two crossings, every list has at least 5 colours;
* triangle: at most one crossing, the three triangle vertices carry
  pairwise-distinct singleton lists, everyone else at least 5.

Anything structurally sound but outside those shapes can still be built
with :func:`make_instance` -- the solver routes such instances straight to
the exhaustive fallback.  The JSON parser is stricter: files are the
solver's front door, so out-of-shape documents are rejected outright
(drawability is the one thing it leaves to the lazy planarization).

A root instance embeds its planarization on first use.  A sub-instance
from :func:`induced_instance` instead inherits its parent's drawing: its
``plane`` is the parent's restricted to the kept vertices, so one solve
embeds once however many deletion children it builds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .drawing import (
    CrossingPair,
    PlaneGraph,
    planarize,
    restrict_plane,
    validate_drawing,
)
from .errors import InvalidInstanceError
from .graphs import Graph

Coloring = dict[int, int]


@dataclass(frozen=True)
class Instance:
    graph: Graph
    crossings: tuple[CrossingPair, ...]
    lists: tuple[frozenset, ...]
    triangle: tuple[int, int, int] | None = None
    # (parent, new->old order) when built by induced_instance
    _drawn_in: tuple["Instance", tuple[int, ...]] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def plane(self) -> PlaneGraph | None:
        """Embedded planarization, or None when the crossing set is undrawable.

        Restricted from the parent's drawing when there is one to inherit.
        """
        if self._drawn_in is not None:
            parent, order = self._drawn_in
            if parent.plane is not None:
                return restrict_plane(parent.plane, self.graph, order)
        return planarize(self.graph, self.crossings)


def make_instance(
    n: int,
    edges: Iterable[tuple[int, int]],
    lists: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
    crossings: Sequence[tuple[tuple[int, int], tuple[int, int]]] = (),
    triangle: tuple[int, int, int] | None = None,
) -> Instance:
    """Convenience constructor; validates like the JSON parser."""
    return _checked_instance(Graph.from_edges(n, edges), lists, crossings, triangle)


def _checked_instance(
    g: Graph,
    lists: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
    crossings: Sequence[tuple[tuple[int, int], tuple[int, int]]],
    triangle: tuple[int, int, int] | None,
) -> Instance:
    """The checks of :func:`make_instance`, on an already built graph."""
    n = g.n
    crs = tuple(CrossingPair.make(a, b) for a, b in crossings)
    validate_drawing(g, crs)
    if isinstance(lists, Mapping):
        missing = set(range(n)) - set(lists)
        if missing:
            raise InvalidInstanceError(f"no colour list for vertices {sorted(missing)}")
        ls = tuple(frozenset(lists[v]) for v in range(n))
    else:
        if len(lists) != n:
            raise InvalidInstanceError(f"{len(lists)} lists for {n} vertices")
        ls = tuple(frozenset(x) for x in lists)
    if triangle is not None:
        t = tuple(triangle)
        if len(t) != 3 or len(set(t)) != 3:
            raise InvalidInstanceError(f"triangle {t} is not three distinct vertices")
        if not all(0 <= v < n for v in t):
            raise InvalidInstanceError(f"triangle {t} out of range")
        for i in range(3):
            if not g.has_edge(t[i], t[(i + 1) % 3]):
                raise InvalidInstanceError(f"triangle {t} is missing edge")
        triangle = (t[0], t[1], t[2])
    return Instance(g, crs, ls, triangle)


def mode_violations(inst: Instance) -> list[str]:
    """Why the instance falls outside the two solver input shapes (empty = fine)."""
    out = []
    t = set(inst.triangle) if inst.triangle else set()
    limit = 1 if inst.triangle else 2
    if len(inst.crossings) > limit:
        out.append(f"{len(inst.crossings)} crossings (limit {limit} here)")
    for v in range(inst.n):
        size = len(inst.lists[v])
        if v in t:
            if size != 1:
                out.append(f"triangle vertex {v} has {size} colours, wants 1")
        elif size < 5:
            out.append(f"vertex {v} has only {size} colours")
    if inst.triangle:
        seen = [next(iter(inst.lists[v])) for v in inst.triangle if len(inst.lists[v]) == 1]
        if len(set(seen)) != len(seen):
            out.append("triangle precolours are not pairwise distinct")
    if inst.plane is None:
        out.append("crossing set is not drawable")
    return out


def instance_mode(inst: Instance) -> str | None:
    """'plain' (no triangle) or 'triangle', None if outside both shapes."""
    if mode_violations(inst):
        return None
    return "triangle" if inst.triangle else "plain"


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

_KEYS = {"n", "edges", "crossings", "lists", "triangle"}


def parse_instance(data: str | bytes | dict) -> Instance:
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise InvalidInstanceError(f"bad JSON: {e}") from e
    if not isinstance(data, dict):
        raise InvalidInstanceError("instance must be a JSON object")
    extra = set(data) - _KEYS
    if extra:
        raise InvalidInstanceError(f"unknown keys {sorted(extra)}")
    for key in ("n", "edges", "lists"):
        if key not in data:
            raise InvalidInstanceError(f"missing key '{key}'")
    n = data["n"]
    if not isinstance(n, int) or n < 0:
        raise InvalidInstanceError(f"bad vertex count {n!r}")

    def pair(x, what) -> tuple[int, int]:
        if (
            not isinstance(x, (list, tuple))
            or len(x) != 2
            or not all(isinstance(v, int) for v in x)
        ):
            raise InvalidInstanceError(f"bad {what} {x!r}")
        return (x[0], x[1])

    raw_crossings = data.get("crossings") or []
    for key, raw in (("edges", data["edges"]), ("crossings", raw_crossings)):
        if not isinstance(raw, (list, tuple)):
            raise InvalidInstanceError(f"{key} must be a list")
    edges = [pair(e, "edge") for e in data["edges"]]
    crossings = []
    for c in raw_crossings:
        if not isinstance(c, dict) or set(c) != {"a", "b"}:
            raise InvalidInstanceError(f"bad crossing {c!r}")
        crossings.append((pair(c["a"], "crossing edge"), pair(c["b"], "crossing edge")))
    raw_lists = data["lists"]
    if not isinstance(raw_lists, dict):
        raise InvalidInstanceError("lists must map vertex -> colours")
    lists: dict[int, list[int]] = {}
    for k, v in raw_lists.items():
        try:
            vid = int(k)
        except ValueError:
            raise InvalidInstanceError(f"bad lists key {k!r}") from None
        if not isinstance(v, list) or not all(isinstance(c, int) for c in v):
            raise InvalidInstanceError(f"bad colour list for {k!r}")
        lists[vid] = v
    if set(lists) != set(range(n)):
        raise InvalidInstanceError("lists keys must be exactly 0..n-1")
    tri = data.get("triangle")
    triangle = None
    if tri is not None:
        if (
            not isinstance(tri, (list, tuple))
            or len(tri) != 3
            or not all(isinstance(v, int) for v in tri)
        ):
            raise InvalidInstanceError(f"bad triangle {tri!r}")
        triangle = (tri[0], tri[1], tri[2])
    try:
        inst = make_instance(n, edges, lists, crossings, triangle)
    except ValueError as e:
        raise InvalidInstanceError(str(e)) from e
    shape = [m for m in mode_violations(inst) if "drawable" not in m]
    if shape:
        raise InvalidInstanceError("; ".join(shape))
    return inst


def emit_instance(inst: Instance) -> dict:
    out: dict = {
        "n": inst.n,
        "edges": [list(e) for e in inst.graph.edges],
        "lists": {str(v): sorted(inst.lists[v]) for v in range(inst.n)},
    }
    if inst.crossings:
        out["crossings"] = [
            {"a": list(c.a), "b": list(c.b)} for c in inst.crossings
        ]
    if inst.triangle is not None:
        out["triangle"] = list(inst.triangle)
    return out


def dump_instance(inst: Instance) -> str:
    return json.dumps(emit_instance(inst), indent=1)


# ---------------------------------------------------------------------------
# sub-instances
# ---------------------------------------------------------------------------


def induced_instance(
    inst: Instance,
    keep: Sequence[int],
    lists: Mapping[int, Iterable[int]] | None = None,
    triangle: tuple[int, int, int] | None = None,
) -> tuple[Instance, tuple[int, ...]]:
    """Sub-instance on ``keep`` (old ids); returns it plus new->old order.

    A crossing survives only if both of its edges do; a crossing that loses
    an edge loses its crossing point with it.  ``lists`` entries (old ids)
    override the inherited lists; ``triangle`` is given in old ids.  The
    child's drawing, when read, is restricted from ``inst``'s.
    """
    sub, order = inst.graph.induced(keep)
    back = {old: new for new, old in enumerate(order)}
    crs = [
        ((back[c.a[0]], back[c.a[1]]), (back[c.b[0]], back[c.b[1]]))
        for c in inst.crossings
        if all(v in back for e in c.edges for v in e)
    ]
    new_lists = {}
    for old in order:
        src = inst.lists[old] if lists is None or old not in lists else lists[old]
        new_lists[back[old]] = src
    tri = None
    if triangle is not None:
        tri = (back[triangle[0]], back[triangle[1]], back[triangle[2]])
    child = _checked_instance(sub, new_lists, crs, tri)
    return replace(child, _drawn_in=(inst, order)), order
