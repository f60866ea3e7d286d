"""The benchmark's tracer looks matchturan functions up by name; a deletion
in the library must not leave a name behind that `run.py --trace 1` can no
longer find."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_still_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert set(tracer.FULL) <= set(tracer.MODULES)
    for layer, names in tracer.FULL.items():
        module = importlib.import_module(f"matchturan.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"matchturan.{layer}.{name}"
