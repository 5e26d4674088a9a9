#!/usr/bin/env python3
"""Bulk-solve random drawn instances and tabulate how the pipeline won.

Prints the final route of each solve (planar base, reduction, endgame or
fallback), the rules fired and the endgame events.  Examples:

    PYTHONPATH=src python3 scripts/fuzz_solve.py --count 300 --crossings 2 --n-max 40
    PYTHONPATH=src python3 scripts/fuzz_solve.py --count 500 --crossings 1 --triangle

The generated instances are stacked triangulations, which always keep a
vertex of degree 3, so they reach no endgame: all 500 solves of the
second example end by reduction, with R1 only, and ``--crossings 2``
does the same.  For the endgame, use the
``geodesic-5of5`` corpus of ``scripts/solve_digest.py``.  ``--triangle``
goes with at most one crossing: no instance pins a triangle next to two.

Run from the root of a checkout, or drop ``PYTHONPATH=src`` after
``pip install -e .``.
"""

import argparse
import collections
import random
import sys
import time

from crosscolor.generate import GenSpec, gen_random_instance
from crosscolor.oracle import validate_coloring
from crosscolor.solver import solve


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--n-min", type=int, default=8)
    ap.add_argument("--n-max", type=int, default=30)
    ap.add_argument("--crossings", type=int, default=2, choices=(0, 1, 2))
    ap.add_argument("--triangle", action="store_true")
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--no-fallback", action="store_true")
    args = ap.parse_args(argv)
    if args.triangle and args.crossings > 1:
        # every draw would be refused, and the loop would never finish
        ap.error("--triangle goes with at most one crossing")

    routes = collections.Counter()
    rules = collections.Counter()
    endgame = collections.Counter()
    depths = []
    fallbacks = 0
    cramped = 0
    t0 = time.perf_counter()
    done = 0
    seed = args.seed0
    while done < args.count:
        n = random.Random(seed * 31 + 7).randrange(args.n_min, args.n_max + 1)
        spec = GenSpec(
            n=n, crossings=args.crossings, seed=seed, triangle=args.triangle
        )
        seed += 1
        try:
            inst = gen_random_instance(spec)
        except ValueError:
            cramped += 1
            continue
        phi, stats = solve(inst, use_fallback=not args.no_fallback)
        bad = validate_coloring(inst.graph, inst.lists, phi)
        if bad:
            print(f"INVALID coloring at seed {spec.seed}: {bad}", file=sys.stderr)
            return 1
        if stats.fallback_invocations:
            routes["fallback"] += 1
        elif stats.endgame:
            routes["endgame"] += 1
        elif stats.steps_applied:
            routes["reduction"] += 1
        else:
            routes["planar-base"] += 1
        rules.update(stats.rules)
        endgame.update(stats.endgame)
        depths.append(stats.max_depth)
        fallbacks += stats.fallback_invocations
        done += 1
    took = time.perf_counter() - t0

    print(f"{done} instances in {took:.1f}s ({1000 * took / done:.1f} ms each), "
          f"{cramped} draws skipped as cramped")
    print(f"fallback invocations: {fallbacks}")
    print(f"max recursion depth: {max(depths) if depths else 0}")
    print("final route:")
    for key, cnt in routes.most_common():
        print(f"  {key}: {cnt} ({cnt / done:.1%})")
    print("rule usage:")
    for rule in sorted(rules):
        if rules[rule]:
            print(f"  {rule}: {rules[rule]}")
    if endgame:
        print("endgame events:")
        for key in sorted(endgame):
            print(f"  {key}: {endgame[key]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
