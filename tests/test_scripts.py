"""The command-line scripts under ``scripts/``, run as a user runs them."""

import os
import pathlib
import subprocess
import sys

import crosscolor

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(pathlib.Path(crosscolor.__file__).resolve().parents[1])


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=30,
    )


def test_fuzz_solve_refuses_a_triangle_with_two_crossings():
    # no generated instance pins a triangle next to two crossings, so the
    # draw loop would skip every seed forever
    out = run_script("fuzz_solve.py", "--crossings", "2", "--triangle")
    assert out.returncode == 2
    assert "at most one crossing" in out.stderr


def test_fuzz_solve_runs_a_small_batch():
    out = run_script("fuzz_solve.py", "--count", "3", "--n-max", "12")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("3 instances")
