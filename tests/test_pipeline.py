import fractions
import json
import sys
from fractions import Fraction
from random import Random

import pytest

from santaclaus.eap import EapSolution, check_eap, eap_from_matching
from santaclaus.instances import (
    Instance,
    JobSpec,
    exact_optimum,
    generate_random,
    parse_allocation,
    serialize_instance,
    verify_allocation,
)
from santaclaus.matching import find_perfect_matching
from santaclaus.pipeline import solve
from conftest import handmade_super_case, mixed_instance, shared_big_instance, tiny_instance
from test_golden import all_unit_instance, one_big_no_upper_instance

F = Fraction


def test_single_machine_meets_certified_floor():
    inst = tiny_instance([(3, [0]), (4, [0])], machines=1)
    report = solve(inst)
    assert report.T == 7 == exact_optimum(inst)
    assert report.allocation.min_value >= report.T / 12
    assert report.allocation.min_value >= exact_optimum(inst) / 12
    assert verify_allocation(inst, report.allocation) == report.allocation.min_value


def test_symmetric_pair_certifies():
    inst = tiny_instance([(4, [0, 1]), (4, [0, 1])], machines=2)
    report = solve(inst)
    assert report.T == 4
    assert report.branch == "clustered"
    assert report.allocation.min_value >= F(4, 12)
    # both machines end up with one big job each here
    assert report.allocation.min_value == 4
    assert report.allocation.min_value >= exact_optimum(inst) / 12


def test_empty_pool_machine_short_circuits():
    inst = tiny_instance([(5, [0])], machines=2)
    report = solve(inst)
    assert report.T == 0
    assert report.branch == "trivial"
    assert report.allocation.owner == {}
    assert report.allocation.min_value == 0


def test_no_upper_branch_reaches_five_twelfths():
    # all jobs small: 13 units per machine, disjoint pools force T = 13
    jobs = [(1, [0])] * 13 + [(1, [1])] * 13
    inst = tiny_instance(jobs, machines=2)
    report = solve(inst)
    assert report.branch == "no-upper"
    assert report.allocation.min_value >= 5 * report.T / 12


def _record_classification(monkeypatch):
    """Wrap the pipeline's bindings of `classify_machines` and the cover LP
    and return the list of calls they see, "classify" or "cover"."""
    import santaclaus.pipeline as pipeline

    calls = []
    classify, cover = pipeline.classify_machines, pipeline.solve_clp_feasibility

    def counted_classify(*args, **kwargs):
        calls.append("classify")
        return classify(*args, **kwargs)

    def counted_cover(*args, **kwargs):
        calls.append("cover")
        return cover(*args, **kwargs)

    monkeypatch.setattr(pipeline, "classify_machines", counted_classify)
    monkeypatch.setattr(pipeline, "solve_clp_feasibility", counted_cover)
    return calls


def test_no_big_job_rounds_the_classifying_lp(monkeypatch):
    # with every job below T/12 no machine can be upper; the one cover LP
    # still classifies, and its solution is what the branch rounds
    calls = _record_classification(monkeypatch)
    inst = tiny_instance([(1, [0])] * 13 + [(1, [1])] * 13 + [(1, [0, 1])] * 2, machines=2)
    report = solve(inst)
    assert report.branch == "no-upper"
    assert all(12 * job.size < report.T for job in inst.jobs)
    assert calls == ["cover", "classify"]


def test_no_upper_cover_starts_from_the_t_search_allocation():
    # the local search's bundles reach T, so the cover LP seeded with them
    # is optimal at its first master solve, prices nothing, and rounds to an
    # allocation worth T on every machine
    report = solve(all_unit_instance())
    assert report.branch == "no-upper"
    assert report.counters["clp_solves"] == 0
    assert report.counters["master_solves"] == 1
    assert report.allocation.min_value == report.T


def test_one_big_job_still_classifies(monkeypatch):
    # a job of size 3 >= T/12 makes the classifying LP and its split the
    # only way to tell upper from middle; no machine comes out upper, and
    # the branch rounds that same solution without a second LP
    calls = _record_classification(monkeypatch)
    report = solve(one_big_no_upper_instance())
    assert report.T == 13 and 12 * 3 >= report.T
    assert report.branch == "no-upper"
    assert calls == ["cover", "classify"]
    assert report.counters["master_solves"] == 1


def test_super_machine_instance_certifies():
    inst = shared_big_instance(units=13)
    report = solve(inst)
    assert report.allocation.min_value >= report.T / 12
    assert verify_allocation(inst, report.allocation) == report.allocation.min_value


def test_mixed_instances_certify():
    for seed in range(8):
        inst = mixed_instance(seed, m=2, nbig=1, nsmall=14, bigsize=18)
        report = solve(inst)
        assert report.allocation.min_value >= report.T / 12, seed
        assert verify_allocation(inst, report.allocation) == report.allocation.min_value, seed


INTEGER_STAGES = {
    f"santaclaus.{name}"
    for name in ("configlp", "gapclasses", "clustering", "matching", "eap", "rounding")
}


def fraction_callers(run):
    """Modules whose code called into `fractions` while ``run()`` ran."""
    callers = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            callers.add(frame.f_back.f_globals.get("__name__"))

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(saved)
    return callers


def unit_clustered_shape(rng):
    """Three machines, two big jobs of size 18-23 and 18 unit jobs, each
    eligible on each machine with probability 3/4."""

    def eligible():
        return frozenset(i for i in range(3) if rng.randrange(4) < 3)

    jobs = [JobSpec(size=18 + rng.randrange(6), eligible=eligible()) for _ in range(2)]
    jobs += [JobSpec(size=1, eligible=eligible()) for _ in range(18)]
    return Instance(machine_count=3, jobs=tuple(jobs))


def test_integer_stages_build_no_fraction():
    # from the gap instance to the assignment-program check, thresholds and
    # weights are integer counts over one scale: on a passing run no function
    # of these stages calls into fractions, which only error messages may do
    found = []

    def super_case():
        _, clusters = handmade_super_case()
        T = clusters.gap.tau
        state = find_perfect_matching(clusters, T)
        ok, why = check_eap(eap_from_matching(state, clusters), clusters, T)
        assert ok, why
        found.append(clusters)

    stray = fraction_callers(super_case) & INTEGER_STAGES
    assert not stray, stray
    rng = Random(28)
    with_composites = 0
    for _ in range(6):
        inst = unit_clustered_shape(rng)
        reports = []
        stray = fraction_callers(lambda: reports.append(solve(inst))) & INTEGER_STAGES
        assert not stray, (inst, stray)
        with_composites += reports[0].counters.get("composites", 0) > 0
    assert with_composites >= 4, with_composites

    # the probe does see a stage that calls into fractions: an error message
    clusters = found[0]
    unselected = EapSolution(u={}, s=dict.fromkeys(clusters.composites[0].machines, 0), scale=1)
    assert "santaclaus.eap" in fraction_callers(lambda: check_eap(unselected, clusters, 13))


def test_deterministic_reports():
    inst = generate_random(m=3, n=7, max_size=12, density=F(1, 2), seed=11)
    assert solve(inst).canonical_json() == solve(inst).canonical_json()


def test_report_serialization_shape():
    inst = tiny_instance([(3, [0]), (4, [0])], machines=1)
    report = solve(inst)
    doc = report.to_dict()
    assert doc["T"] == "7/1"
    assert "timings_ms" in doc
    assert "timings_ms" not in json.loads(report.canonical_json())


# ---------------------------------------------------------------- CLI

def test_cli_round_trip(tmp_path):
    from santaclaus.cli import run_cli

    inst = generate_random(m=2, n=5, max_size=9, density=F(2, 3), seed=3)
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(serialize_instance(inst))
    alloc_file = tmp_path / "alloc.json"
    report_file = tmp_path / "report.json"

    rc = run_cli(
        [
            "solve",
            "--input",
            str(inst_file),
            "--out",
            str(alloc_file),
            "--report",
            str(report_file),
        ]
    )
    assert rc == 0
    alloc = parse_allocation(alloc_file.read_text())
    assert verify_allocation(inst, alloc) == alloc.min_value
    report = json.loads(report_file.read_text())
    assert report["min_value"] == f"{alloc.min_value.numerator}/{alloc.min_value.denominator}"

    assert run_cli(["verify", "--input", str(inst_file), "--alloc", str(alloc_file)]) == 0
    assert run_cli(["exact", "--input", str(inst_file)]) == 0


def test_cli_solve_summary_line(tmp_path, capsys):
    # the bracket starts at [7, 9]; at tau = 8 machine 0 cannot be covered
    # without both jobs of size 7, which leaves machine 1 only the 5: forced
    # jobs refute tau = 8, so the upper end falls to 7 with no LP solved
    from santaclaus.cli import run_cli

    inst = tiny_instance([(7, [0, 1]), (5, [1]), (7, [0, 1])], machines=2)
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(serialize_instance(inst))
    argv = ["solve", "--input", str(inst_file), "--out", str(tmp_path / "alloc.json")]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == (
        "T=7/1 branch=clustered min_value=7/1 t_search_lower=7 t_search_upper=7 "
        "clp_solves=0 price_proofs=1\n"
    )


def test_cli_verify_flags_mismatch(tmp_path, capsys):
    from santaclaus.cli import run_cli

    inst = tiny_instance([(3, [0])], machines=1)
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(serialize_instance(inst))
    bad = tmp_path / "bad.json"
    bad.write_text('{"owner":{"0":0},"min_value":"4/1"}')
    assert run_cli(["verify", "--input", str(inst_file), "--alloc", str(bad)]) == 1


def test_cli_exact_budget_exit_code(tmp_path):
    from santaclaus.cli import run_cli

    inst = generate_random(m=6, n=12, max_size=4, density=F(1), seed=0)
    inst_file = tmp_path / "big.json"
    inst_file.write_text(serialize_instance(inst))
    assert run_cli(["exact", "--input", str(inst_file)]) == 1


def test_cli_gen_deterministic(tmp_path):
    from santaclaus.cli import run_cli

    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["gen", "--machines", "3", "--jobs", "6", "--max-size", "10",
            "--density", "1/2", "--seed", "9", "--out"]
    assert run_cli(argv + [str(out1)]) == 0
    assert run_cli(argv + [str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_cli_bench_writes_csv(tmp_path):
    from santaclaus.cli import run_cli

    suite = tmp_path / "suite"
    suite.mkdir()
    for seed in range(3):
        inst = generate_random(m=2, n=4, max_size=8, density=F(2, 3), seed=seed)
        (suite / f"inst{seed}.json").write_text(serialize_instance(inst))
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--suite", str(suite), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "instance,m,n,T,OPT,alg_value,ratio,millis"
    assert len(lines) == 4


@pytest.mark.parametrize(
    "module, name",
    [
        ("santaclaus.ratlp", "LpError"),
        ("santaclaus.configlp", "CoverLpError"),
        ("santaclaus.gapclasses", "GapClassError"),
    ],
)
def test_cli_solve_reports_solver_check_failures(tmp_path, capsys, monkeypatch, module, name):
    # a solver check that fires inside `solve` ends the command with a
    # one-line error and exit code 1, not a traceback
    import importlib

    import santaclaus.cli as cli

    error = getattr(importlib.import_module(module), name)

    def failing(*args, **kwargs):
        raise error("sabotaged check")

    monkeypatch.setattr(cli, "solve", failing)
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(serialize_instance(tiny_instance([(3, [0])], machines=1)))
    argv = ["solve", "--input", str(inst_file), "--out", str(tmp_path / "alloc.json")]
    assert cli.run_cli(argv) == 1
    assert capsys.readouterr().err == "error: sabotaged check\n"


def test_cli_usage_error_exit_code():
    # a missing value, and each option that solve and bench no longer take
    from santaclaus.cli import run_cli

    for argv in (
        ["solve", "--input"],
        ["solve", "--input", "i.json", "--out", "a.json", "--strategy", "enumeration"],
        ["solve", "--input", "i.json", "--out", "a.json", "--seed", "1"],
        ["bench", "--suite", "suite", "--out", "b.csv", "--strategy", "matching"],
    ):
        with pytest.raises(SystemExit) as err:
            run_cli(argv)
        assert err.value.code == 2, argv
