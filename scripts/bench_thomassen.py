#!/usr/bin/env python3
"""Time the plane-graph list-colouring engine across instance sizes.

Each recursion step either colours a vertex outright or splits along a
chord.  The engine is not near-linear: every chord split recomputes the
sides of the chord over all faces, which makes it roughly quadratic, and
the recursion is one Python frame per step, so large grids (35x35 and up)
hit RecursionError.  Example:

    python3 scripts/bench_thomassen.py --sizes 50 100 200 400 800
"""

import argparse
import random
import statistics
import time

from crosscolor.generate import random_plane_triangulation
from crosscolor.instance import make_instance
from crosscolor.oracle import validate_coloring
from crosscolor.thomassen import BoundaryTask, thomassen_color, trace_face


def one_task(n: int, seed: int) -> BoundaryTask:
    rng = random.Random(seed)
    edges, _ = random_plane_triangulation(n, rng)
    pg = make_instance(n, edges, {v: [0] for v in range(n)}).plane
    walk = trace_face(pg.rotation, None, 0, 1)
    lists = [frozenset(rng.sample(range(15), 5)) for _ in range(n)]
    for v in walk:
        lists[v] = frozenset(rng.sample(sorted(lists[v]), 3))
    cx = min(lists[0])
    cy = min(set(lists[1]) - {cx})
    lists[0], lists[1] = frozenset({cx}), frozenset({cy})
    return BoundaryTask(
        graph=pg.real, rotation=pg.rotation, lists=tuple(lists), x=0, y=1
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[50, 100, 200, 400, 800])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)

    print(f"{'n':>6} {'median ms':>10} {'ms/vertex':>10}")
    for n in args.sizes:
        times = []
        for rep in range(args.repeats):
            task = one_task(n, seed=rep)
            t0 = time.perf_counter()
            phi = thomassen_color(task)
            times.append((time.perf_counter() - t0) * 1000)
            assert validate_coloring(task.graph, task.lists, phi) == []
        med = statistics.median(times)
        print(f"{n:>6} {med:>10.2f} {med / n:>10.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
