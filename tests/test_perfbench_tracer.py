"""The benchmark's tracer looks matchturan functions up by name; a deletion
in the library must not leave a name behind that `run.py --trace 1` can no
longer find."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import matchturan

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


def test_tracer_sees_the_enumerators_canonical_labelling():
    # The tracer wraps graphs.canonical_form by name; an enumerator that
    # labelled its children through another entry point would hide them from
    # `run.py --trace 1`.  Installing patches modules for good, so it runs in
    # a process of its own.
    code = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install(tracer.FULL)
from matchturan import containment, graphs, solver
family = containment.GraphFamily([graphs.matching(4)])
sum(1 for _ in solver.enumerate_free(8, family))
print(json.dumps(t.summary()))
"""
    src = str(Path(matchturan.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    summary = json.loads(out.stdout)
    assert summary["classes"] == 1933
    assert summary["enum_canonical_calls"] >= summary["classes"]
