"""Command-line interface: solve, exact, verify, gen, bench.

Exit codes: 0 success, 1 infeasibility/violation/budget, 2 usage errors
(argparse's own convention).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from .clustering import ClusteringError
from .configlp import CoverLpError
from .eap import EapError
from .gapclasses import GapClassError
from .instances import (
    InstanceFormatError,
    OracleBudgetError,
    exact_optimum,
    generate_random,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
    verify_allocation,
)
from .matching import MatchingError
from .pipeline import PipelineError, solve
from .rat import rat_from_str, rat_to_str
from .ratlp import LpError

SOLVE_ERRORS = (
    PipelineError,
    LpError,
    CoverLpError,
    GapClassError,
    ClusteringError,
    MatchingError,
    EapError,
    OracleBudgetError,
    InstanceFormatError,
    ValueError,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="santaclaus",
        description=(
            "Restricted max-min fair allocation: certified 12-approximation "
            "solver, exact oracle and instance tooling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance with the certified pipeline")
    p_solve.add_argument("--input", required=True, help="instance JSON file")
    p_solve.add_argument("--out", required=True, help="allocation JSON output")
    p_solve.add_argument("--report", help="optional solve-report JSON output")

    p_exact = sub.add_parser("exact", help="exhaustive optimum for small instances")
    p_exact.add_argument("--input", required=True)

    p_verify = sub.add_parser("verify", help="recompute an allocation's minimum load")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--alloc", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--machines", type=int, required=True)
    p_gen.add_argument("--jobs", type=int, required=True)
    p_gen.add_argument("--max-size", type=int, required=True)
    p_gen.add_argument("--density", required=True, help='rational "P/Q" in (0,1]')
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="solve every instance in a directory")
    p_bench.add_argument("--suite", required=True, help="directory of instance JSON files")
    p_bench.add_argument("--out", required=True, help="CSV output path")
    return parser


def _load_instance(path: str):
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def cmd_solve(args) -> int:
    inst = _load_instance(args.input)
    report = solve(inst)
    Path(args.out).write_text(
        serialize_allocation(report.allocation) + "\n", encoding="utf-8"
    )
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
    print(
        f"T={rat_to_str(report.T)} branch={report.branch} "
        f"min_value={rat_to_str(report.allocation.min_value)} "
        f"t_search_lower={report.counters['t_search_lower']} "
        f"t_search_upper={report.counters['t_search_upper']} "
        f"clp_solves={report.counters['clp_solves']} "
        f"price_proofs={report.counters['price_proofs']}"
    )
    return 0


def cmd_exact(args) -> int:
    inst = _load_instance(args.input)
    value = exact_optimum(inst)
    print(f"optimum={rat_to_str(value)}")
    return 0


def cmd_verify(args) -> int:
    inst = _load_instance(args.input)
    alloc = parse_allocation(Path(args.alloc).read_text(encoding="utf-8"))
    value = verify_allocation(inst, alloc)
    print(f"min_value={rat_to_str(value)}")
    if value != alloc.min_value:
        print(
            f"violation: allocation claims {rat_to_str(alloc.min_value)}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_gen(args) -> int:
    density = rat_from_str(args.density)
    inst = generate_random(
        m=args.machines,
        n=args.jobs,
        max_size=args.max_size,
        density=density,
        seed=args.seed,
    )
    Path(args.out).write_text(serialize_instance(inst) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    suite = sorted(Path(args.suite).glob("*.json"))
    if not suite:
        print(f"no instances under {args.suite}", file=sys.stderr)
        return 1
    rows = []
    for path in suite:
        inst = _load_instance(str(path))
        started = time.perf_counter()
        report = solve(inst)
        millis = (time.perf_counter() - started) * 1000
        try:
            opt = rat_to_str(exact_optimum(inst))
        except OracleBudgetError:
            opt = ""
        rows.append(
            {
                "instance": path.name,
                "m": inst.machine_count,
                "n": inst.job_count,
                "T": rat_to_str(report.T),
                "OPT": opt,
                "alg_value": rat_to_str(report.allocation.min_value),
                "ratio": (
                    rat_to_str(report.certified_ratio_bound)
                    if report.certified_ratio_bound is not None
                    else ""
                ),
                "millis": f"{millis:.1f}",
            }
        )
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["instance", "m", "n", "T", "OPT", "alg_value", "ratio", "millis"],
        )
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} instances)")
    return 0


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "solve": cmd_solve,
        "exact": cmd_exact,
        "verify": cmd_verify,
        "gen": cmd_gen,
        "bench": cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SOLVE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
