"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every threshold here is an exact rational comparison; there are no numeric
tolerances anywhere in this suite.
"""

import json
from fractions import Fraction
from random import Random

import pytest

from santaclaus.clustering import (
    build_big_graph,
    check_cluster_properties,
    eliminate_cycles,
    extract_clusters,
)
from santaclaus.configlp import (
    check_mclp,
    clp_to_alp,
    find_T,
    machine_pools,
    solve_clp_feasibility,
)
from santaclaus.eap import EapSolution, check_eap, eap_from_matching, member_value, restrict_eap
from santaclaus.gapclasses import build_gap_instance, classify_jobs, classify_machines
from santaclaus.instances import (
    Instance,
    JobSpec,
    exact_optimum,
    generate_random,
    serialize_instance,
)
from santaclaus.matching import exhaustive_matching, find_perfect_matching
from santaclaus.pipeline import solve
from santaclaus.rounding import round_assignment
from conftest import handmade_super_case, mixed_instance, weights_of

F = Fraction
DENSITIES = [F(1, 4), F(1, 2), F(3, 4), F(1)]


def verdict(name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {mark}{suffix}")


def guarantee_suite_instances(count=300):
    for seed in range(count):
        m = 1 + seed % 5
        n = 1 + (seed // 5) % 10
        density = DENSITIES[seed % 4]
        yield generate_random(m=m, n=n, max_size=20, density=density, seed=seed)


def test_guarantee_suite():
    violations = []
    solved = 0
    for k, inst in enumerate(guarantee_suite_instances(300)):
        report = solve(inst)
        opt = exact_optimum(inst)
        solved += 1
        if report.T > 0 and report.allocation.min_value < report.T / 12:
            violations.append(f"instance {k}: below T/12")
        if opt > 0 and report.allocation.min_value < opt / 12:
            violations.append(f"instance {k}: below OPT/12")
    verdict(
        "guarantee suite (min_value >= T/12 and >= OPT/12 on 300 instances)",
        not violations,
        f"{solved} solved",
    )
    assert not violations, violations[:5]


def test_relaxation_soundness():
    bad_bound = []
    bad_monotone = []
    for k, inst in enumerate(guarantee_suite_instances(300)):
        T = find_T(inst)
        if T < exact_optimum(inst):
            bad_bound.append(k)
    sampled = 0
    seed = 0
    while sampled < 100:
        m = 1 + seed % 3
        inst = generate_random(m=m, n=4, max_size=4, density=DENSITIES[seed % 4], seed=1000 + seed)
        seed += 1
        total = inst.total_size()
        if total == 0:
            continue
        T = int(find_T(inst))
        feasible_set = [
            tau for tau in range(1, total + 1)
            if solve_clp_feasibility(inst, F(tau)) is not None
        ]
        if feasible_set != list(range(1, T + 1)):
            bad_monotone.append(seed - 1)
        sampled += 1
    ok = not bad_bound and not bad_monotone
    verdict(
        "relaxation soundness (T >= OPT everywhere; feasibility monotone on 100 samples)",
        ok,
    )
    assert not bad_bound, bad_bound[:5]
    assert not bad_monotone, bad_monotone[:5]


def all_small_instances():
    # each machine owns a private pool of 13+ unit jobs plus a shared handful
    rng = Random(99)
    for trial in range(20):
        m = 1 + trial % 3
        jobs = []
        for i in range(m):
            for _ in range(13 + rng.randrange(4)):
                jobs.append(JobSpec(size=1, eligible=frozenset({i})))
        for _ in range(rng.randrange(3)):
            jobs.append(JobSpec(size=1, eligible=frozenset(range(m))))
        yield Instance(machine_count=m, jobs=tuple(jobs))


def test_no_upper_branch_strength():
    violations = []
    runs = 0
    for k, inst in enumerate(all_small_instances()):
        report = solve(inst)
        runs += 1
        if report.branch != "no-upper":
            violations.append(f"instance {k}: branch {report.branch}")
        elif report.allocation.min_value < 5 * report.T / 12:
            violations.append(f"instance {k}: value below 5T/12")
    verdict(
        "no-upper branch strength (min_value >= 5T/12 on all-small instances)",
        not violations,
        f"{runs} runs",
    )
    assert not violations, violations


def composite_guaranteed_instance(seed: int) -> Instance:
    """One machine saturated by a private big job, the other all units:
    the clustered branch always has at least one composite machine."""
    rng = Random(10_000 + seed)
    big = 14 + rng.randrange(5)
    units_private = 13 + rng.randrange(5)
    units_shared = rng.randrange(3)
    jobs = [JobSpec(size=big, eligible=frozenset({0}))]
    jobs += [JobSpec(size=1, eligible=frozenset({1})) for _ in range(units_private)]
    jobs += [JobSpec(size=1, eligible=frozenset({0, 1})) for _ in range(units_shared)]
    return Instance(machine_count=2, jobs=tuple(jobs))


@pytest.fixture(scope="module")
def stage_runs():
    """Clustered-branch stage tuples for the structural criteria."""
    runs = []
    inst, clusters = handmade_super_case()
    runs.append((inst, clusters))

    def attempt(inst, seed):
        T = find_T(inst)
        if T == 0:
            return
        gap = build_gap_instance(inst, T)
        jc = classify_jobs(gap)
        x = solve_clp_feasibility(inst, T, pools=machine_pools(inst), sizes=gap.gap_size)
        mc = classify_machines(gap, jc, x)
        if not mc.upper:
            return
        graph = build_big_graph(gap, x, jc, mc)
        forest, xstar = eliminate_cycles(graph, x, gap)
        def totals(graph):
            machines, jobs = {}, {}
            for (i, j), c in graph.items():
                machines[i] = machines.get(i, 0) + c
                jobs[j] = jobs.get(j, 0) + c
            return machines, jobs

        before_m, before_j = totals(graph)
        after_m, after_j = totals(forest)
        assert before_m == after_m, f"seed {seed}: machine totals drifted"
        assert before_j == after_j, f"seed {seed}: job totals drifted"
        runs.append((inst, extract_clusters(forest, xstar, jc, mc, gap)))

    for seed in range(60):
        attempt(composite_guaranteed_instance(seed), seed)
    for seed in range(80):
        nbig = seed % 3
        attempt(
            mixed_instance(seed, m=2, nbig=nbig, nsmall=14 + seed % 5, bigsize=18),
            seed,
        )
    return runs


def test_clustering_suite(stage_runs):
    failures = []
    runs = 0
    for k, (inst, clusters) in enumerate(stage_runs):
        runs += 1
        ok, why = check_cluster_properties(clusters, clusters.gap)
        if not ok:
            failures.append(f"run {k}: {why}")
        ok, why = check_mclp(clusters)
        if not ok:
            failures.append(f"run {k}: {why}")
    verdict(
        "clustering suite (three cluster properties + composite cover on every run)",
        not failures,
        f"{runs} clustered runs",
    )
    assert not failures, failures[:5]


def test_matching_suite(stage_runs):
    failures = []
    agreements = 0
    for k, (inst, clusters) in enumerate(stage_runs):
        if not clusters.composites:
            continue
        T = clusters.gap.tau
        tree = find_perfect_matching(clusters, T)
        exhaustive = exhaustive_matching(clusters, T, budget=10**5)
        if set(tree.matched) != set(exhaustive.matched):
            failures.append(f"run {k}: strategies disagree")
        used = set()
        for e in tree.matched.values():
            total = sum(inst.jobs[j].size for j in e.bundle)
            if not (T / 6 <= total < T / 6 + T / 12):
                failures.append(f"run {k}: bundle size {total} out of window")
            if used & set(e.bundle):
                failures.append(f"run {k}: overlapping bundles")
            used.update(e.bundle)
        agreements += 1
        if agreements >= 50:
            break
    verdict(
        "matching suite (disjoint bundles in [T/6, T/6+T/12); strategies agree on 50 instances)",
        not failures and agreements >= 50,
        f"{agreements} agreements",
    )
    assert agreements >= 50
    assert not failures, failures[:5]


def test_eap_suite(stage_runs):
    failures = []
    matched_runs = 0
    for k, (inst, clusters) in enumerate(stage_runs):
        if not clusters.composites:
            continue
        T = clusters.gap.tau
        state = find_perfect_matching(clusters, T)
        sol = eap_from_matching(state, clusters)
        ok, why = check_eap(sol, clusters, T)
        if not ok:
            failures.append(f"run {k}: {why}")
        matched_runs += 1
        if matched_runs >= 25:
            break

    # 100 perturbed feasible points, constraints kept valid by construction
    inst, clusters = handmade_super_case()
    T = clusters.gap.tau
    state = find_perfect_matching(clusters, T)
    base = eap_from_matching(state, clusters)
    comp = clusters.composites[0]
    winner = next(i for i in comp.machines if base.s[i] == 1)
    other = next(i for i in comp.machines if i != winner)
    value = member_value(base, clusters, winner)
    room = 1 - (T / 6) / value
    rng = Random(5)
    perturbed_ok = 0
    for _ in range(100):
        delta = room * F(rng.randrange(1000), 1000)
        spread = EapSolution(u=dict(base.u), s={**base.s, winner: 1 - delta, other: delta})
        ok, why = check_eap(spread, clusters, T)
        if not ok:
            failures.append(f"perturbation infeasible: {why}")
            continue
        restricted = restrict_eap(spread, clusters, T)
        ok, why = check_eap(restricted, clusters, T)
        integral = all(v in (F(0), F(1)) for v in restricted.s.values())
        shrunk = all(
            v <= spread.u.get(key, F(0)) for key, v in restricted.u.items()
        )
        if ok and integral and shrunk:
            perturbed_ok += 1
        else:
            failures.append(f"restriction failed: {why}")
    verdict(
        "EAP suite (matching solutions check out; restriction on 100 perturbations)",
        not failures and perturbed_ok == 100,
        f"{matched_runs} matchings, {perturbed_ok} perturbations",
    )
    assert perturbed_ok == 100
    assert not failures, failures[:5]


def test_rounding_suite():
    failures = []
    rounded = 0
    seed = 0
    while rounded < 200 and seed < 1200:
        m = 1 + seed % 3
        n = 3 + seed % 6
        inst = generate_random(m=m, n=n, max_size=8, density=DENSITIES[seed % 4], seed=2000 + seed)
        seed += 1
        T = find_T(inst)
        if T == 0:
            continue
        sol = solve_clp_feasibility(inst, T)
        fa = clp_to_alp(sol, inst.sizes())
        sizes = inst.sizes()
        values = {}
        max_size = {}
        for (i, j), v in weights_of(fa).items():
            values[i] = values.get(i, F(0)) + v * sizes[j]
            max_size[i] = max(max_size.get(i, 0), sizes[j])
        owner = round_assignment(fa, sizes)
        if len(set(owner)) != len(owner):
            failures.append(f"seed {seed}: duplicated job")
        loads = {}
        for j, i in owner.items():
            if i not in inst.jobs[j].eligible:
                failures.append(f"seed {seed}: ineligible assignment")
            loads[i] = loads.get(i, 0) + sizes[j]
        for i, v in values.items():
            if loads.get(i, 0) < v - max_size[i]:
                failures.append(f"seed {seed}: machine {i} lost more than its largest job")
        rounded += 1
    verdict(
        "rounding suite (loss <= max support size, no duplication, 200 assignments)",
        not failures and rounded == 200,
        f"{rounded} assignments",
    )
    assert rounded == 200
    assert not failures, failures[:5]


def test_determinism(tmp_path):
    from santaclaus.cli import run_cli

    mismatches = []

    # library level: identical reports for identical inputs
    for seed in (3, 11):
        inst = generate_random(m=3, n=7, max_size=15, density=F(1, 2), seed=seed)
        if solve(inst).canonical_json() != solve(inst).canonical_json():
            mismatches.append(f"solve seed {seed}")

    # CLI level, across all subcommands; wall-clock fields are the one
    # sanctioned difference and are stripped before comparison
    inst = generate_random(m=2, n=6, max_size=9, density=F(2, 3), seed=4)
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(serialize_instance(inst))
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    (suite_dir / "one.json").write_text(serialize_instance(inst))

    def run_twice(label, argv_fn, outputs, normalize):
        sides = []
        for side in ("a", "b"):
            workdir = tmp_path / f"{label}-{side}"
            workdir.mkdir()
            assert run_cli(argv_fn(workdir)) == 0
            sides.append([normalize(workdir / name) for name in outputs])
        if sides[0] != sides[1]:
            mismatches.append(label)

    run_twice(
        "solve",
        lambda d: [
            "solve", "--input", str(inst_file),
            "--out", str(d / "alloc.json"), "--report", str(d / "report.json"),
        ],
        ["alloc.json", "report.json"],
        lambda p: (
            p.read_text()
            if p.name == "alloc.json"
            else json.dumps({k: v for k, v in json.loads(p.read_text()).items() if k != "timings_ms"})
        ),
    )
    run_twice(
        "gen",
        lambda d: [
            "gen", "--machines", "4", "--jobs", "9", "--max-size", "20",
            "--density", "3/4", "--seed", "21", "--out", str(d / "gen.json"),
        ],
        ["gen.json"],
        lambda p: p.read_text(),
    )
    run_twice(
        "bench",
        lambda d: ["bench", "--suite", str(suite_dir), "--out", str(d / "bench.csv")],
        ["bench.csv"],
        lambda p: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()],
    )

    # exact and verify only write stdout; compare captured text
    import contextlib
    import io

    alloc_path = tmp_path / "solve-a" / "alloc.json"
    for label, argv in (
        ("exact", ["exact", "--input", str(inst_file)]),
        ("verify", ["verify", "--input", str(inst_file), "--alloc", str(alloc_path)]),
    ):
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert run_cli(argv) == 0
            outs.append(buf.getvalue())
        if outs[0] != outs[1]:
            mismatches.append(label)
    verdict("determinism (byte-identical reports modulo wall-clock timings)", not mismatches)
    assert not mismatches, mismatches


def test_python_m_cli_runs_the_command(tmp_path):
    # `python -m santaclaus.cli` is documented as the console script's twin:
    # the module must run main() when executed, not only define it
    import os
    import subprocess
    import sys
    from pathlib import Path

    out = tmp_path / "inst.json"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [
            sys.executable, "-m", "santaclaus.cli", "gen", "--machines", "3", "--jobs", "7",
            "--max-size", "9", "--density", "2/3", "--seed", "5", "--out", str(out),
        ],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    inst = generate_random(m=3, n=7, max_size=9, density=F(2, 3), seed=5)
    assert out.read_text() == serialize_instance(inst) + "\n"


def test_package_has_no_bare_assert():
    # python -O strips assert statements, so a load-bearing check in the
    # package must raise instead; this keeps src/ free of them
    import ast
    from pathlib import Path

    package = Path(__file__).resolve().parent.parent / "src" / "santaclaus"
    sources = sorted(package.rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare assert in the package: {found}"
