"""Every binding that the benchmark's layer tracer patches must exist.

``perfbench/layertrace.py`` wraps ``(module, attribute)`` pairs with
``setattr``; a refactor that renames or drops one of those names would only
break ``perfbench/run.py --trace 1`` at ``getattr`` time.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    hooks = _load_layertrace().HOOKS
    assert hooks
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in hooks
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert not missing, f"layer tracer patches missing names: {missing}"


def test_feasibility_bindings_are_reached():
    # every LP the pipeline solves is a cover master, solved through the
    # name the tracer patches, so each master solve shows up in the trace;
    # the feasibility LP that eap and rounding keep for the tracer is never
    # solved.  Only the no-upper branch rounds.
    from fractions import Fraction

    from santaclaus import Instance, JobSpec, generate_random, solve

    # unit jobs only, 14 private per machine plus two shared: no job is big
    units = [JobSpec(size=1, eligible=frozenset([i])) for i in range(3) for _ in range(14)]
    units += [JobSpec(size=1, eligible=frozenset(range(3)))] * 2
    no_upper = Instance(machine_count=3, jobs=tuple(units))
    clustered = generate_random(m=4, n=14, max_size=20, density=Fraction(1, 2), seed=0)
    Tracer = _load_layertrace().Tracer
    for inst, branch, roundings in ((no_upper, "no-upper", 1), (clustered, "clustered", 0)):
        tracer = Tracer()
        with tracer.installed():
            report = solve(inst)
        assert report.branch == branch
        assert tracer.calls("ratlp.solve_feasibility") == 0
        assert tracer.calls("rounding.round_assignment") == roundings
        assert tracer.calls("ratlp.solve_lp") == report.counters["master_solves"]
