#!/usr/bin/env python3
"""Solve benchmark for the certified restricted Santa Claus solver.

Usage, from the repository root:

    python3 perfbench/run.py --workload uniform-random --seed 0 --seconds 36 --trace 0

One client in one process solves seeded instances (``workloads.py``) through
the public ``santaclaus.solve``, each after the previous one returns: a closed
loop with no threads and no pool.  Every solve passes a correctness gate
(``gate``).  The package is imported from ``src`` and never modified.

``--trace 0`` times solves with nothing patched and reports the end-to-end
metrics.  ``--trace 1`` is a separate run that solves the workload's traced
batch alternately untraced and with every layer boundary wrapped
(``layertrace.py``), repeats the traced solves in a child process with another
hash seed, fails unless the exact counts agree, and reports per-layer metrics.

Machine speed on a shared host drifts by up to 2x within seconds, so every
reported time is rescaled to a reference speed: a fixed stdlib ``Fraction``
loop (``probe``) runs between solves, and a solve's wall time is multiplied by
PROBE_REFERENCE_S over the mean of the probes around it.  The probe shares no
code with the package, so a change to the package cannot move it.  The raw
wall-clock figures are printed on the provenance line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines give the
provenance, any failures and, for traced runs, the full per-span table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from layertrace import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Instances per workload.  The reference prefix is always solved in full,
# whatever --seconds says: ratios and reference T are taken over it.  It takes
# under half of a 36 s run, so a machine at half speed still ends on time.  The
# traced batch is what a traced run solves.  Timed runs cycle over POOL.
BATCH = {
    "uniform-random": {"reference": 48, "traced": 16},
    "unit-clustered": {"reference": 24, "traced": 8},
    "all-small": {"reference": 64, "traced": 32},
}
POOL = 320
DEFAULT_SEED = 0
REFERENCE_T = HERE / "reference_T.json"
SETUP_PROBES = 2  # extra set-ups in fresh processes, for a median of three
HARD_STOP_S = 150.0
# The probe's typical time on a quiet Intel Xeon 2.1 GHz vCPU.
PROBE_TERMS = 2500
PROBE_REFERENCE_S = 0.010

# Exact counts a traced run must reproduce in a second process: span call
# counts (metric -> span name), then counts the tracer and reports accumulate.
SPAN_CALLS = {
    "ratlp.solve_lp.calls": "ratlp.solve_lp",
    "ratlp.solve_feasibility.calls": "ratlp.solve_feasibility",
    "configlp.cover_lp.calls": "configlp.cover_lp",
    "configlp.pricing.calls": "configlp.pricing",
    "rounding.calls": "rounding.round_assignment",
    "matching.calls": "matching.find_perfect_matching",
}
# Solve report counter -> metric name.
REPORT_COUNTERS = {
    "clp_solves": "configlp.clp_solves",
    "master_solves": "configlp.master_solves",
    "matching_steps": "matching.steps",
    "small_rounded_jobs": "rounding.rounded_jobs",
    "composites": "clustering.composites",
    "supers": "clustering.supers",
}
EXACT_COUNTS = (*SPAN_CALLS, "ratlp.tableau_cells", *REPORT_COUNTERS.values())


def load_package():
    """Import ``santaclaus`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "santaclaus" / "__init__.py").is_file():
        sys.exit(f"perfbench: no santaclaus package under {SRC}")
    sys.path.insert(0, str(SRC))
    import santaclaus

    if Path(santaclaus.__file__).resolve().parent != SRC / "santaclaus":
        sys.exit(f"perfbench: imported santaclaus from {santaclaus.__file__}, not {SRC}")
    return santaclaus


def probe() -> float:
    """Seconds taken by a fixed stdlib ``Fraction`` loop: the machine-speed gauge."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - t0


def rescale(seconds: float, *probes: float) -> float:
    """``seconds`` of wall time at the speed the probes saw, at reference speed."""
    return seconds * PROBE_REFERENCE_S * len(probes) / sum(probes)


def set_up(workload: str, seed: int, count: int):
    """Import, generate ``count`` instances and solve one warm-up instance.

    The warm-up instance is the same for every seed and is not in the batch.
    Returns the package, the instances and the rescaled seconds this took.
    """
    before = probe()
    t0 = time.perf_counter()
    santaclaus = load_package()
    from workloads import instances  # imports santaclaus, so only after load_package

    batch = instances(workload, seed, count)
    santaclaus.solve(instances(workload, "warm-up", 1)[0])
    elapsed = time.perf_counter() - t0
    return santaclaus, batch, rescale(elapsed, before, probe())


def gate(santaclaus, workload: str, inst, report, ref_T) -> str | None:
    """Return why ``report`` is wrong for ``inst``, or None when it passes."""
    alloc = report.allocation
    try:
        value = santaclaus.verify_allocation(inst, alloc)
    except ValueError as exc:
        return f"allocation invalid: {exc}"
    if value != alloc.min_value:
        return f"claimed min_value {alloc.min_value}, verified {value}"
    floor = 5 * report.T / 12 if report.branch == "no-upper" else report.T / 12
    if alloc.min_value < floor:
        return f"min_value {alloc.min_value} below the {report.branch} floor {floor}"
    if workload == "all-small" and report.branch != "no-upper":
        return f"all-small instance took the {report.branch} branch"
    if ref_T is not None and report.T != ref_T:
        return f"T {report.T} differs from the reference {ref_T}"
    return None


def reference_T(workload: str, seed: int) -> list[Fraction]:
    """T of the first instances under the default seed; empty for other seeds."""
    if seed != DEFAULT_SEED:
        return []
    with open(REFERENCE_T) as fh:
        return [Fraction(t) for t in json.load(fh)[workload]]


def tail(sorted_values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(sorted_values)
    pct = max(0, 100 * (n - 10) // n)
    rank = max(1, -(-pct * n // 100))
    return pct, sorted_values[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def provenance(args, **fields) -> str:
    return "provenance: " + json.dumps({
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "workload": args.workload, "seed": args.seed, "trace": args.trace, **fields,
    })


class Batch:
    """Solves instances in order, gates each result and records failures."""

    def __init__(self, santaclaus, workload: str, instances, refs):
        self.santaclaus = santaclaus
        self.workload = workload
        self.instances = instances
        self.refs = refs
        self.attempted = 0
        self.failures: list[str] = []

    def solve(self, k: int, tracer: Tracer | None = None):
        """Solve instance ``k`` (cycling); return (report or None, wall seconds)."""
        i = k % len(self.instances)
        inst = self.instances[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = self.santaclaus.solve(inst)
            else:
                report = tracer.call("pipeline.solve", self.santaclaus.solve, inst)
        except Exception as exc:  # a failed solve is counted, not fatal
            self.failures.append(f"instance {k}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        why = gate(self.santaclaus, self.workload, inst, report,
                   self.refs[i] if i < len(self.refs) else None)
        if why is not None:
            self.failures.append(f"instance {k}: {why}")
            return None, elapsed
        return report, elapsed

    def solve_traced(self, k: int, tracer: Tracer) -> None:
        with tracer.installed():
            report, _ = self.solve(k, tracer)
        if report is not None:
            for key, name in REPORT_COUNTERS.items():
                tracer.counts[name] += report.counters.get(key, 0)


def timed_run(args) -> dict:
    start = time.perf_counter()
    santaclaus, instances, own_setup = set_up(args.workload, args.seed, POOL)
    setups = [own_setup]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            check=True, capture_output=True, text=True, timeout=60,
        )
        setups.append(float(out.stdout.strip().splitlines()[-1]))

    reference = BATCH[args.workload]["reference"]
    batch = Batch(santaclaus, args.workload, instances, reference_T(args.workload, args.seed))
    times: list[float] = []
    raw: list[float] = []
    probes: list[float] = []
    ratios: list[Fraction] = []
    gc.collect()
    deadline = time.perf_counter() + args.seconds
    k = 0
    before = probe()
    while k < reference or time.perf_counter() < deadline:
        if time.perf_counter() - start > HARD_STOP_S:
            batch.failures.append(f"stopped after {k} solves at the {HARD_STOP_S:.0f} s limit")
            break
        report, elapsed = batch.solve(k)
        after = probe()
        times.append(rescale(elapsed, before, after))
        raw.append(elapsed)
        probes.append(after)
        before = after
        if k < reference and report is not None and report.certified_ratio_bound is not None:
            ratios.append(report.certified_ratio_bound)
        k += 1

    times.sort()
    pct, tail_s = tail(times)
    print(provenance(
        args, seconds=args.seconds, solves=len(times), pool=len(instances),
        reference_instances=reference, ratio_instances=len(ratios), tail_percentile=pct,
        failure_rate=len(batch.failures) / batch.attempted,
        probe_median_ms=statistics.median(probes) * 1000,
        wall_throughput=len(raw) / sum(raw), wall_p50_ms=statistics.median(raw) * 1000,
        certified_ratio_max=float(max(ratios, default=0)),
    ))
    for line in batch.failures[:20]:
        print("failure: " + line)
    return result(batch, {
        "solve_throughput": (len(times) / sum(times), "1/s"),
        "solve_p50_ms": (statistics.median(times) * 1000, "ms"),
        "solve_tail_ms": (tail_s * 1000, "ms"),
        "certified_ratio_mean": (float(sum(ratios) / len(ratios)) if ratios else 0.0, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })


def exact_counts(tracer: Tracer) -> dict[str, int]:
    counts = {name: tracer.calls(span) for name, span in SPAN_CALLS.items()}
    counts.update((name, tracer.counts[name]) for name in EXACT_COUNTS if name not in counts)
    return counts


def traced_run(args) -> dict:
    santaclaus, instances, _ = set_up(args.workload, args.seed, BATCH[args.workload]["traced"])
    batch = Batch(santaclaus, args.workload, instances, reference_T(args.workload, args.seed))
    tracer = Tracer()
    untraced_s = 0.0
    probes = []
    # Untraced and traced solves of one instance run back to back, so that
    # the overhead ratio compares them at the same machine speed.
    for k in range(len(instances)):
        probes.append(probe())
        untraced_s += batch.solve(k)[1]
        batch.solve_traced(k, tracer)
    counts = exact_counts(tracer)

    env = dict(os.environ, PYTHONHASHSEED=str(1 + args.seed))
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--counts-probe"],
        check=True, capture_output=True, text=True, timeout=120, env=env,
    )
    again = json.loads(out.stdout.strip().splitlines()[-1])
    for name in EXACT_COUNTS:
        if counts[name] != again[name]:
            batch.failures.append(f"count {name} not exact: {counts[name]}, then {again[name]}")

    scale = rescale(1.0, *probes)
    solve_s = tracer.busy("pipeline.solve")
    layers = tracer.layer_self_times()
    print(provenance(args, traced_instances=len(instances),
                     probe_median_ms=statistics.median(probes) * 1000))
    for line in batch.failures[:20]:
        print("failure: " + line)
    print("spans: " + json.dumps({
        name: {"calls": c, "busy_s": round(b * scale, 6), "self_s": round(s * scale, 6)}
        for name, (c, b, s) in sorted(tracer.spans.items())
    }))
    print("layer_self_share: " + json.dumps(
        {layer: round(s / solve_s, 4) for layer, s in sorted(layers.items())}))
    masters = counts["configlp.master_solves"]
    covers = counts["configlp.cover_lp.calls"]
    metrics = {name: (value, "count") for name, value in counts.items()}
    metrics.update({
        "ratlp.solve_lp.busy_s": (tracer.busy("ratlp.solve_lp") * scale, "s"),
        "ratlp.self_s": (layers.get("ratlp", 0.0) * scale, "s"),
        "configlp.cover_lp.self_s": (tracer.self_time("configlp.cover_lp") * scale, "s"),
        "configlp.self_s": (layers.get("configlp", 0.0) * scale, "s"),
        "configlp.improving_round_ratio": ((masters - covers) / masters, "ratio"),
        "configlp.cover_lp.infeasible_ratio": (
            tracer.counts["configlp.cover_lp.infeasible"] / covers, "ratio"),
        "configlp.pricing.busy_s": (tracer.busy("configlp.pricing") * scale, "s"),
        "gapclasses.busy_s": (tracer.busy("gapclasses") * scale, "s"),
        "instances.verify.busy_s": (tracer.busy("instances.verify") * scale, "s"),
        "pipeline.branch.busy_s": (tracer.busy("pipeline.branch") * scale, "s"),
        "pipeline.self_s": (layers.get("pipeline", 0.0) * scale, "s"),
        "trace.solve_s": (solve_s * scale, "s"),
        "trace_overhead": (solve_s / untraced_s, "ratio"),
    })
    return result(batch, metrics)


def result(batch: Batch, metrics: dict) -> dict:
    return {
        "correct": not batch.failures,
        "attempted": batch.attempted,
        "failed": len(batch.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BATCH))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--counts-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        print(set_up(args.workload, args.seed, POOL)[2])
        return 0
    if args.counts_probe:
        santaclaus, instances, _ = set_up(args.workload, args.seed, BATCH[args.workload]["traced"])
        batch = Batch(santaclaus, args.workload, instances, [])
        tracer = Tracer()
        for k in range(len(instances)):
            batch.solve_traced(k, tracer)
        print(json.dumps(exact_counts(tracer)))
        return 0
    out = traced_run(args) if args.trace else timed_run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
