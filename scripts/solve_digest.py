#!/usr/bin/env python3
"""Print one SHA-256 per corpus over every colouring and its solve counters.

Two checkouts whose solver behaves the same print the same lines, so a
change that should not move any output can be checked by running this
script in both and comparing.  Each digest covers, per input and in order,
the colouring (as ``(vertex, colour)`` pairs in dict order) and
``SolveStats.as_dict()`` without ``wall_time_ms``.  The corpora are:

* ``fixtures``: the JSON instances under ``tests/fixtures``;
* ``gen-0x``, ``gen-1x-triangle``, ``gen-2x``: ``gen_random_instance`` at
  n=30, seeds 0-39, with 0 crossings, 1 crossing plus a pinned triangle,
  and 2 crossings;
* ``stacked-2x``, ``geodesic-2x``: 30 drawings each from the benchmark's
  generators in ``bench/corpora.py`` (imported, not modified);
* ``geodesic-5of5``: the 42-vertex geodesic drawing with 2 crossings,
  seeds 0-149, with every list set to {0,...,4}.  These tight lists are
  the only fixed corpus that drives the walk endgame through its blocked
  step, its ``swapped`` and ``detour_far`` escapes and the exhaustive
  fallback (seeds 40, 41, 104, 128, 140 and 149 fall back, each after
  ``giveup.path_punt``).  It takes about 2 s.
* ``geodesic-162``: the 162-vertex geodesic drawing
  (``corpora.geodesic_faces(2)``) with 2 crossings, seeds 0-9.  At this
  size a per-vertex 2-cut scan would dominate each solve, so the corpus
  pins the rule scan where it costs the most.  It takes about 0.4 s.

Run from anywhere; the package and the generators are imported from the
checkout that holds this script:

    python3 scripts/solve_digest.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import corpora  # noqa: E402
from crosscolor.generate import GenSpec, gen_random_instance  # noqa: E402
from crosscolor.instance import make_instance, parse_instance  # noqa: E402
from crosscolor.solver import solve  # noqa: E402

GEN_SEEDS = range(40)
BENCH_INPUTS = 30
TIGHT_SEEDS = range(150)
LARGE_INPUTS = 10


def fixtures():
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.json")):
        yield parse_instance(path.read_text())


def generated(crossings: int, triangle: bool):
    for seed in GEN_SEEDS:
        spec = GenSpec(n=30, crossings=crossings, seed=seed, triangle=triangle)
        yield gen_random_instance(spec)


def drawings(make, count=BENCH_INPUTS):
    for i in range(count):
        d = make(random.Random(i))
        yield make_instance(d.n, d.edges, d.lists, crossings=d.crossings)


def tight_geodesic():
    faces = corpora.geodesic_faces(1)
    for seed in TIGHT_SEEDS:
        d = corpora.geodesic_drawing(random.Random(seed), faces, 2)
        yield make_instance(d.n, d.edges, [range(5)] * d.n, crossings=d.crossings)


def digest(instances) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for inst in instances:
        phi, stats = solve(inst)
        record = stats.as_dict()
        del record["wall_time_ms"]
        pairs = None if phi is None else list(phi.items())
        h.update(json.dumps([pairs, record]).encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def main() -> int:
    geodesic = corpora.geodesic_faces(1)
    geodesic162 = corpora.geodesic_faces(2)
    corpus = {
        "fixtures": fixtures(),
        "gen-0x": generated(0, False),
        "gen-1x-triangle": generated(1, True),
        "gen-2x": generated(2, False),
        "stacked-2x": drawings(lambda rng: corpora.stacked_drawing(rng, 50, 2)),
        "geodesic-2x": drawings(lambda rng: corpora.geodesic_drawing(rng, geodesic, 2)),
        "geodesic-5of5": tight_geodesic(),
        "geodesic-162": drawings(
            lambda rng: corpora.geodesic_drawing(rng, geodesic162, 2), LARGE_INPUTS
        ),
    }
    for name, instances in corpus.items():
        count, hexdigest = digest(instances)
        print(f"{name:16} {count:3} {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
