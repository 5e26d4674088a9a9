"""Benchmark for crosscolor: one workload, one single-threaded process.

    python3 bench/run.py --workload geodesic-2x --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the run times operations for ``--seconds`` seconds and
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed number
of operations (set by ``--seconds`` and the workload) with per-layer spans
installed, and reports the per-layer metrics.  Every output is checked by
``checks.py``; the last line of stdout is one JSON object.  The full record
of the run goes to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

import checks  # noqa: E402
import corpora  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 10


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random], Any]  # seeded input generator
    kind: str  # "drawing": make_instance + solve; "grid": thomassen_color
    min_degree: int  # hypothesis checked on drawings
    nominal_s: float  # typical seconds per operation; sizes traced runs


GEODESIC_42 = corpora.geodesic_faces(1)

WORKLOADS = {
    "stacked-2x": Workload(
        lambda rng: corpora.stacked_drawing(rng, 50, 2), "drawing", 3, 0.4
    ),
    "geodesic-2x": Workload(
        lambda rng: corpora.geodesic_drawing(rng, GEODESIC_42, 2), "drawing", 5, 0.18
    ),
    "grid-plane": Workload(lambda rng: corpora.grid_task(rng, 20), "grid", 0, 1.25),
}


def fresh_import() -> dict[str, Any]:
    """Import the package from ``src/`` anew, dropping any earlier copy."""
    for name in [m for m in sys.modules if m.split(".")[0] == "crosscolor"]:
        del sys.modules[name]
    pkg = importlib.import_module("crosscolor")
    if Path(pkg.__file__).resolve().parent != SRC / "crosscolor":
        raise ImportError(f"crosscolor came from {pkg.__file__}, not {SRC}")
    return {m: sys.modules[f"crosscolor.{m}"] for m in ("graphs", "instance", "solver", "thomassen")}


class Runner:
    """Turns a raw input into the program's argument and runs one operation."""

    def __init__(self, kind: str, mods: dict[str, Any]):
        self.kind, self.mods = kind, mods
        self.tracer: Tracer | None = None

    def prepare(self, item):
        if self.kind == "drawing":
            return item  # make_instance is part of the operation
        thomassen = self.mods["thomassen"]
        return thomassen.BoundaryTask(
            graph=self.mods["graphs"].Graph.from_edges(item.n, item.edges),
            rotation=item.rotation,
            lists=tuple(frozenset(lst) for lst in item.lists),
            x=item.x,
            y=item.y,
        )

    def run(self, arg) -> dict:
        if self.kind == "grid":
            return self.mods["thomassen"].thomassen_color(arg)
        inst = self.mods["instance"].make_instance(
            arg.n, arg.edges, arg.lists, crossings=arg.crossings
        )
        phi, stats = self.mods["solver"].solve(inst)
        if self.tracer is not None:
            self.tracer.add_solve_stats(stats)
        return phi


def op_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not (SRC / "crosscolor" / "__init__.py").is_file():
        print(f"no crosscolor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def make(i: int):
        return wl.make(op_rng(args.workload, args.seed, i))

    # Set-up is the import plus the first input.  It is repeated, half before
    # and half after the timed loop so that the samples see the machine at
    # both ends of the run, and the median is reported.  The first sample
    # runs from the start of this script.
    setup: list[float] = []

    def set_up(t0: float):
        runner = Runner(wl.kind, fresh_import())
        first = runner.prepare(make(0))
        setup.append(time.perf_counter() - t0)
        return runner, first

    runner, first = set_up(T_START)
    for _ in range(SETUP_REPEATS // 2 - 1):
        runner, first = set_up(time.perf_counter())

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
    trace_ops = math.ceil(args.seconds / wl.nominal_s)

    op_ms: list[float] = []
    errors: list[str] = []
    bad_outputs: list[str] = []
    first_ok = None
    begin = time.perf_counter()
    i = 0
    while True:
        if args.trace:
            if i >= trace_ops:
                break
        elif i and time.perf_counter() - begin >= args.seconds:
            break
        item = make(i)
        arg = first if i == 0 else runner.prepare(item)
        t0 = time.perf_counter()
        try:
            phi = runner.run(arg)
        except Exception as e:  # a crash is a failed operation, not a dead run
            op_ms.append((time.perf_counter() - t0) * 1e3)
            errors.append(f"op {i}: {type(e).__name__}: {e}"[:300])
        else:
            op_ms.append((time.perf_counter() - t0) * 1e3)
            faults = checks.coloring_faults(item.n, item.edges, item.lists, phi)
            if faults:
                bad_outputs.append(f"op {i}: {faults[:3]}")
            elif first_ok is None:
                first_ok = (item, phi)
        i += 1
    elapsed_ops_s = sum(op_ms) / 1e3
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup) < SETUP_REPEATS:
        set_up(time.perf_counter())

    # Hypotheses of every input, regenerated from its seed (networkx is
    # imported only now, so it stays out of set-up time and peak memory).
    input_faults = []
    for j in range(i):
        item = make(j)
        if wl.kind == "grid":
            faults = checks.grid_faults(item)
        else:
            faults = checks.drawing_faults(item, wl.min_degree)
        if faults:
            input_faults.append(f"input {j}: {faults[:3]}")
    self_test = False
    if first_ok is not None:
        item, phi = first_ok
        bad = checks.recolor_to_neighbour(item.edges, phi)
        self_test = bool(checks.coloring_faults(item.n, item.edges, item.lists, bad))

    attempted = len(op_ms)
    failed = len(errors) + len(bad_outputs)
    correct = self_test and not bad_outputs and not input_faults
    if args.trace:
        metrics = tracer.metrics()
    else:
        metrics = {
            "solve_ms.p50": {"value": statistics.median(op_ms), "unit": "ms"},
            "solves_per_s": {"value": attempted / elapsed_ops_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        op_ms=op_ms,
        setup_samples_s=setup,
        errors=errors,
        bad_outputs=bad_outputs,
        input_faults=input_faults,
        checker_self_test=self_test,
    )
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in errors + bad_outputs + input_faults:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
