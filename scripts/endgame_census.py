#!/usr/bin/env python3
"""Census of endgame events on random pinned-triangle instances.

Counts, over many one-crossing instances with a precoloured triangle, how
often the solver finishes in the planar base, a reduction rule, the
near-crossing shortcut, the plain walk, or a blocked-walk escape.

    PYTHONPATH=src python3 scripts/endgame_census.py --count 500

Run from the root of a checkout, or drop ``PYTHONPATH=src`` after
``pip install -e .``.
"""

import argparse
import collections

from crosscolor.generate import GenSpec, gen_random_instance
from crosscolor.solver import solve


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--n-min", type=int, default=8)
    ap.add_argument("--n-max", type=int, default=26)
    ap.add_argument("--seed0", type=int, default=0)
    args = ap.parse_args(argv)

    outcome = collections.Counter()
    events = collections.Counter()
    done = 0
    seed = args.seed0
    while done < args.count:
        n = args.n_min + (seed % (args.n_max - args.n_min + 1))
        spec = GenSpec(n=n, crossings=1, seed=seed, triangle=True)
        seed += 1
        try:
            inst = gen_random_instance(spec)
        except ValueError:
            continue
        phi, stats = solve(inst)
        assert phi is not None
        done += 1
        events.update(stats.endgame)
        if stats.fallback_invocations:
            outcome["fallback"] += 1
        elif stats.endgame:
            outcome["endgame"] += 1
        elif stats.steps_applied:
            outcome["reduction"] += 1
        else:
            outcome["planar-base"] += 1

    print(f"{done} instances")
    print("final route:")
    for key, cnt in outcome.most_common():
        print(f"  {key}: {cnt} ({cnt / done:.1%})")
    if events:
        print("endgame event counters:")
        for key in sorted(events):
            print(f"  {key}: {events[key]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
