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
