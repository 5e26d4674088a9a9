"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces each traced public function at every module
binding inside ``crosscolor`` (``solver`` and ``reductions`` import their
helpers by name, so patching the defining module alone would miss them).
A span's self time is its duration minus the time its nested spans cover.
Spans are aggregated in memory per name; nothing is written while the
workload runs.

The reduction scan is traced as a generator: ``reductions.scan`` times each
``next()`` on the candidate stream, and every candidate's runner is wrapped
so that its punts (``RuleInapplicable``/``PipelineIncompleteError``) and
successes are counted per rule.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter

# Public functions timed as spans, as (module, function).
SPANS = (
    ("planarity", "try_embedding"),
    ("drawing", "planarize"),
    ("drawing", "cycle_sides"),
    ("drawing", "restrict_plane"),
    ("instance", "make_instance"),
    ("instance", "induced_instance"),
    ("reductions", "components_without"),
    ("thomassen", "thomassen_color"),
    ("thomassen", "observation_extend"),
    ("endgame", "endgame_color"),
    ("oracle", "validate_coloring"),
    ("oracle", "exact_list_color"),
    ("solver", "solve"),
)
RULES = tuple(f"R{i}" for i in range(1, 9))
# Event names ``endgame_color`` and ``resolve_blocked_endgame`` count.
ENDGAME_EVENTS = (
    "near_x", "path", "blocked", "swapped", "slack", "offset",
    "fresh_pair", "detour_far", "detour_near",
)
SOLVER_STATS = ("steps_applied", "max_depth", "fallback_invocations")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for mod, fn in SPANS:
        out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_ms", "ms")]
    out += [("thomassen.observation_extend.declined", "count")]
    out += [("reductions.scan.self_ms", "ms"), ("reductions.scan.candidates", "count")]
    for r in RULES:
        out += [(f"reductions.{r}.{s}", "count") for s in ("candidates", "punts", "fired")]
        out += [(f"reductions.{r}.self_ms", "ms")]
    out += [(f"endgame.{e}", "count") for e in ENDGAME_EVENTS]
    out += [(f"solver.{s}", "count") for s in SOLVER_STATS]
    return out


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._covered: list[int] = []  # per open span: ns its children took

    def _enter(self) -> int:
        self._covered.append(0)
        return time.perf_counter_ns()

    def _leave(self, name: str, t0: int) -> None:
        dt = time.perf_counter_ns() - t0
        self.calls[name] += 1
        self.self_ns[name] += dt - self._covered.pop()
        if self._covered:
            self._covered[-1] += dt

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, t0)

        return traced

    def install(self) -> None:
        import crosscolor.errors as errors
        import crosscolor.reductions as reductions
        import crosscolor.thomassen as thomassen

        punt = (errors.RuleInapplicable, errors.PipelineIncompleteError)
        tracer = self

        def rule_run(step):
            name = f"reductions.{step.rule}"

            def run(solve_child):
                t0 = tracer._enter()
                try:
                    phi = step.run(solve_child)
                except punt:
                    tracer.counts[f"{name}.punts"] += 1
                    raise
                finally:
                    tracer._leave(name, t0)
                tracer.counts[f"{name}.fired"] += 1
                return phi

            return run

        orig_scan = reductions.iter_reduction_steps

        def iter_reduction_steps(inst):
            steps = orig_scan(inst)
            while True:
                t0 = tracer._enter()
                try:
                    step = next(steps, None)
                finally:
                    tracer._leave("reductions.scan", t0)
                if step is None:
                    return
                tracer.counts["reductions.scan.candidates"] += 1
                tracer.counts[f"reductions.{step.rule}.candidates"] += 1
                yield dataclasses.replace(step, run=rule_run(step))

        # id(original) -> (original, replacement)
        swap = {}
        for mod, fn in SPANS:
            orig = getattr(sys.modules[f"crosscolor.{mod}"], fn)
            swap[id(orig)] = (orig, self.span(f"{mod}.{fn}", orig))
        orig_extend = thomassen.observation_extend
        timed_extend = swap[id(orig_extend)][1]

        def observation_extend(*args, **kwargs):
            phi = timed_extend(*args, **kwargs)
            if phi is None:
                tracer.counts["thomassen.observation_extend.declined"] += 1
            return phi

        swap[id(orig_extend)] = (orig_extend, observation_extend)
        swap[id(orig_scan)] = (orig_scan, iter_reduction_steps)
        for name, module in list(sys.modules.items()):
            if name != "crosscolor" and not name.startswith("crosscolor."):
                continue
            for attr, value in list(vars(module).items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def add_solve_stats(self, stats) -> None:
        for event in ENDGAME_EVENTS:
            self.counts[f"endgame.{event}"] += stats.endgame.get(event, 0)
        self.counts["solver.steps_applied"] += stats.steps_applied
        self.counts["solver.fallback_invocations"] += stats.fallback_invocations
        self.counts["solver.max_depth"] = max(
            self.counts["solver.max_depth"], stats.max_depth
        )

    def metrics(self) -> dict[str, dict]:
        out = {}
        for name, unit in metric_names():
            base, stat = name.rsplit(".", 1)
            if stat == "calls":
                value = self.calls[base]
            elif stat == "self_ms":
                value = self.self_ns[base] / 1e6
            else:
                value = self.counts[name]
            out[name] = {"value": value, "unit": unit}
        return out
