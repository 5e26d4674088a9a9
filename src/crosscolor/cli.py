"""Command-line front end.

Five subcommands: ``solve`` / ``oracle`` consume instance JSON files,
``verify`` checks a proposed coloring against one, ``gen`` manufactures
instances, ``choosable`` decides k-choosability of a graph6 graph.
Results go to stdout as JSON; anything meant for humans goes to stderr.

Exit codes: 0 success (or property true), 1 property false / violations
found, 2 unsatisfiable or pipeline gave up, 3 invalid input, 4 search
budget exhausted, 5 internal fault (a theorem violation, the recursion
limit, or a failed self-check); every error comes as a JSON
``{"error": ...}`` document, never as a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .errors import (
    BudgetExceededError,
    InvalidInstanceError,
    PipelineIncompleteError,
)
from .generate import GenSpec, gen_random_instance
from .graphs import parse_graph6
from .instance import dump_instance, parse_instance
from .oracle import DEFAULT_BUDGET, exact_list_color, is_k_choosable, validate_coloring
from .solver import solve

OK, FALSE, UNSAT, BAD_INPUT, OVER_BUDGET, INTERNAL = 0, 1, 2, 3, 4, 5

# TheoremViolationError and InvalidColoringError are AssertionErrors.
INTERNAL_FAULTS = (AssertionError, RecursionError)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_instance(path: str):
    try:
        with open(path, "rb") as fh:
            return parse_instance(fh.read())
    except OSError as e:
        raise InvalidInstanceError(f"{path}: {e}") from e


def _fault_message(e: BaseException) -> str:
    return f"internal fault: {type(e).__name__}: {e}"


def _coloring_doc(phi: dict[int, int] | None) -> dict | None:
    if phi is None:
        return None
    return {str(v): c for v, c in sorted(phi.items())}


def _solve_one(path: str, use_fallback: bool, budget: int) -> tuple[int, dict]:
    """Worker for ``solve``; returns (exit code, result document)."""
    try:
        inst = _load_instance(path)
    except InvalidInstanceError as e:
        return BAD_INPUT, {"file": path, "error": str(e)}
    try:
        phi, stats = solve(inst, use_fallback=use_fallback, budget=budget)
    except PipelineIncompleteError as e:
        return UNSAT, {"file": path, "error": str(e), "colors": None}
    except BudgetExceededError as e:
        return OVER_BUDGET, {"file": path, "error": str(e)}
    except INTERNAL_FAULTS as e:
        return INTERNAL, {"file": path, "error": _fault_message(e), "colors": None}
    doc = {
        "file": path,
        "colors": _coloring_doc(phi),
        "stats": stats.as_dict(),
    }
    return (OK if phi is not None else UNSAT), doc


def _cmd_solve(args) -> int:
    budget = args.budget
    jobs = max(1, args.jobs)
    work = [(f, not args.no_fallback, budget) for f in args.file]
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_solve_one, *zip(*work)))
    else:
        results = [_solve_one(*w) for w in work]
    stats_out = []
    code = OK
    for rc, doc in results:
        code = max(code, rc)
        stats_out.append({"file": doc["file"], "stats": doc.get("stats")})
        if "error" in doc:
            _diag(f"{doc['file']}: {doc['error']}")
        if len(results) == 1:
            doc = dict(doc)
            del doc["file"]
        _emit(doc)
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump(stats_out if len(stats_out) > 1 else stats_out[0], fh, indent=1)
    return code


def _cmd_verify(args) -> int:
    inst = _load_instance(args.file)
    try:
        with open(args.coloring) as fh:
            raw = json.load(fh)
        if isinstance(raw, dict) and isinstance(raw.get("colors"), dict):
            raw = raw["colors"]
        coloring = {int(v): int(c) for v, c in raw.items()}
    except (OSError, ValueError, AttributeError) as e:
        raise InvalidInstanceError(f"{args.coloring}: {e}") from e
    bad = validate_coloring(inst.graph, inst.lists, coloring)
    _emit({"ok": not bad, "violations": bad})
    return OK if not bad else FALSE


def _cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        crossings=args.crossings,
        seed=args.seed,
        palette=args.palette,
        list_size=args.list_size,
        triangle=args.triangle,
    )
    try:
        inst = gen_random_instance(spec)
    except ValueError as e:
        raise InvalidInstanceError(str(e)) from e
    text = dump_instance(inst)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    _diag(f"seed={spec.seed} n={spec.n} crossings={spec.crossings}")
    return OK


def _cmd_choosable(args) -> int:
    g = parse_graph6(args.graph6)
    yes, witness = is_k_choosable(g, args.k, budget=args.budget, palette=args.palette)
    doc: dict = {"k": args.k, "choosable": yes}
    if witness is not None:
        doc["witness"] = {str(v): cs for v, cs in sorted(witness.items())}
    _emit(doc)
    return OK if yes else FALSE


def _cmd_oracle(args) -> int:
    inst = _load_instance(args.file)
    phi = exact_list_color(inst.graph, inst.lists, budget=args.budget)
    _emit({"colors": _coloring_doc(phi)})
    return OK if phi is not None else UNSAT


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crosscolor",
        description="List-color graphs drawn with at most two crossings.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="color an instance file constructively")
    p.add_argument("file", nargs="+")
    p.add_argument("--no-fallback", action="store_true")
    p.add_argument("--stats", metavar="PATH")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="check a coloring against an instance")
    p.add_argument("file")
    p.add_argument("coloring")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gen", help="emit a random drawn instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--crossings", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--palette", type=int, default=15)
    p.add_argument("--list-size", type=int, default=5)
    p.add_argument("--triangle", action="store_true")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("choosable", help="decide k-choosability of a graph6 graph")
    p.add_argument("graph6")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--palette", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=_cmd_choosable)

    p = sub.add_parser("oracle", help="exhaustive list-coloring of an instance file")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=_cmd_oracle)
    return ap


def run_cli(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvalidInstanceError as e:
        _diag(str(e))
        _emit({"error": str(e)})
        return BAD_INPUT
    except BudgetExceededError as e:
        _diag(str(e))
        _emit({"error": str(e)})
        return OVER_BUDGET
    except INTERNAL_FAULTS as e:
        _diag(_fault_message(e))
        _emit({"error": _fault_message(e)})
        return INTERNAL


def main(argv: list[str] | None = None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    raise SystemExit(main())
