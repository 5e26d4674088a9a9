"""Top-level pipeline: plane bases, reduction scan, endgame, fallback.

Dispatch for a shape-conforming instance:

1. planar, no triangle: one boundary-task sweep colours it outright;
   planar with a pinned triangle: extend from one corner (works whenever
   the triangle bounds a face; otherwise the scan below splits on it);
2. scan the reduction rules in order and fire the first candidate whose
   runner does not punt, recursing on strictly smaller children;
3. one crossing plus a pinned triangle and nothing fired: saturate the
   crossing corners into a clique and run the endgame walk;
4. anything still standing goes to exhaustive search (unless disabled).

Instances outside the two supported shapes skip straight to step 4; for
them ``None`` (no colouring exists) is a legitimate outcome.  For
conforming instances it is not, so that outcome raises
``TheoremViolationError`` -- either a bug, or a counterexample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .endgame import endgame_color
from .errors import (
    InvalidColoringError,
    PipelineIncompleteError,
    RuleInapplicable,
    TheoremViolationError,
)
from .instance import Coloring, Instance, instance_mode, mode_violations
from .oracle import DEFAULT_BUDGET, exact_list_color, validate_coloring
from .reductions import iter_reduction_steps, measure, saturate_crossing_clique
from .thomassen import observation_extend

RULE_IDS = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8")


@dataclass
class SolveStats:
    rules: dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in RULE_IDS}
    )
    endgame: dict[str, int] = field(default_factory=dict)
    fallback_invocations: int = 0
    steps_applied: int = 0
    max_depth: int = 0
    wall_time_ms: float = 0.0

    def as_dict(self) -> dict:
        return {
            "rules": dict(self.rules),
            "endgame": dict(self.endgame),
            "fallback_invocations": self.fallback_invocations,
            "steps_applied": self.steps_applied,
            "max_depth": self.max_depth,
            "wall_time_ms": round(self.wall_time_ms, 3),
        }


def solve(
    inst: Instance,
    *,
    use_fallback: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Coloring | None, SolveStats]:
    """Colour the instance from its lists.

    Returns ``(coloring, stats)``.  ``None`` only ever comes back for
    instances outside the supported shapes, where exhaustive search showed
    no colouring exists.  Raises ``PipelineIncompleteError`` when the
    constructive pipeline punts everywhere and the fallback is disabled,
    and ``BudgetExceededError`` when exhaustive search blows its budget.
    """
    stats = SolveStats()
    t0 = time.perf_counter()
    try:
        if instance_mode(inst) is None:
            phi = _fallback(inst, stats, use_fallback, budget)
        else:
            phi = _solve(inst, stats, use_fallback, budget, 0)
    finally:
        stats.wall_time_ms = (time.perf_counter() - t0) * 1000.0
    if phi is not None:
        bad = validate_coloring(inst.graph, inst.lists, phi)
        if bad:
            raise InvalidColoringError(f"solver produced a bad colouring: {bad}")
    return phi, stats


def _solve(
    inst: Instance,
    stats: SolveStats,
    use_fallback: bool,
    budget: int,
    depth: int,
) -> Coloring | None:
    """Colour a shape-conforming instance.

    ``solve`` checks the root's shape and ``solve_child`` each child's, so
    the check runs once per instance.
    """
    stats.max_depth = max(stats.max_depth, depth)
    if inst.n == 0:
        return {}
    if not inst.crossings:
        phi = _planar_base(inst)
        if phi is not None:
            return phi

    parent = measure(inst)

    def solve_child(child: Instance) -> Coloring:
        m = measure(child)
        if not m < parent:
            raise AssertionError(f"child {m} not below parent {parent}")
        bad = mode_violations(child)
        if bad:
            raise AssertionError(f"reduction built an out-of-shape child: {bad}")
        sub = _solve(child, stats, use_fallback, budget, depth + 1)
        if sub is None:
            raise AssertionError("shape-conforming child came back uncolourable")
        return sub

    for step in iter_reduction_steps(inst):
        try:
            phi = step.run(solve_child)
        except (RuleInapplicable, PipelineIncompleteError):
            continue
        bad = validate_coloring(inst.graph, inst.lists, phi)
        if bad:
            raise InvalidColoringError(
                f"{step.rule}{step.params} recombined badly: {bad}"
            )
        stats.rules[step.rule] += 1
        stats.steps_applied += 1
        return phi

    if inst.triangle is not None and len(inst.crossings) == 1:
        work = saturate_crossing_clique(inst) or inst
        phi = endgame_color(work, stats.endgame)
        if phi is not None:
            bad = validate_coloring(inst.graph, inst.lists, phi)
            if bad:
                raise InvalidColoringError(f"endgame recombined badly: {bad}")
            return phi

    return _fallback(inst, stats, use_fallback, budget)


def _planar_base(inst: Instance) -> Coloring | None:
    pg = inst.plane
    if pg is None or pg.crossings:
        raise AssertionError("planar base needs a crossing-free drawing")
    if inst.triangle is None:
        return observation_extend(pg, inst.lists, {})
    for pin in inst.triangle:
        pair = tuple(t for t in inst.triangle if t != pin)
        psi = {pin: min(inst.lists[pin])}
        phi = observation_extend(pg, inst.lists, psi, pair=pair)
        if phi is not None:
            return phi
    return None


def _fallback(
    inst: Instance, stats: SolveStats, use_fallback: bool, budget: int
) -> Coloring | None:
    if not use_fallback:
        raise PipelineIncompleteError(
            f"constructive pipeline exhausted on an n={inst.n} sub-instance"
        )
    stats.fallback_invocations += 1
    phi = exact_list_color(inst.graph, inst.lists, budget=budget)
    if phi is None and instance_mode(inst) is not None:
        raise TheoremViolationError(
            "shape-conforming instance admits no list colouring"
        )
    return phi
