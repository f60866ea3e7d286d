"""The package namespace is lazy: a process imports only the submodules it
uses, yet `matchturan.X` and `from matchturan import *` give what they gave
when `__init__` imported everything.  The result records are immutable
NamedTuples."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchturan
from matchturan import (
    ConstructionSpec,
    GraphFamily,
    build_g_n_s,
    complete,
    covering_report,
    cycle,
    ex_general,
    ex_profile,
    matching,
    tutte_berge_certificate,
    verify_tutte_berge,
)
from matchturan.verifier import THEOREMS

SRC = str(Path(matchturan.__file__).resolve().parent.parent)

EXPORTED = [
    "CanonicalForm", "CeilingError", "ChromaticLimitError", "ConstructionSpec",
    "CoveringReport", "ExProfile", "ExResult", "GnsBuild", "Graph", "Graph6Error",
    "GraphCapacityError", "GraphFamily", "INFINITE", "MAX_VERTICES", "TheoremReport",
    "TutteBergeCertificate", "__version__", "all_coverings", "assemble_gns",
    "build_clique_candidate", "build_forest_extremal", "build_g_n_s", "canonical_form",
    "chromatic_number", "clique_number", "complete", "complete_bipartite",
    "connected_components", "contains_subgraph", "contains_subgraph_using_edge",
    "count_cliques", "covering_report", "cycle", "disjoint_union", "empty",
    "enumerate_free", "ex_general", "ex_profile", "family_fp", "from_graph6", "induced",
    "is_color_critical", "join_all", "matching", "matching_number", "minimalize",
    "p_of_f", "path", "read_graph6_lines", "realize", "relabel", "remove_edge",
    "resolve_ceiling", "star", "to_graph6", "turan_graph", "tutte_berge_certificate",
    "verify_color_critical_components", "verify_cover_family_example",
    "verify_erdos_gallai", "verify_forest_theorem", "verify_gerbner_slope",
    "verify_ma_hou", "verify_main_theorem_exact", "verify_tutte_berge",
]


def _fresh(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


def test_importing_graphs_loads_no_other_submodule():
    loaded = _fresh("import sys, matchturan.graphs; print(*sorted(sys.modules))").split()
    assert [m for m in loaded if m.startswith("matchturan")] == ["matchturan", "matchturan.graphs"]


def test_importing_the_cli_does_not_load_dataclasses():
    assert _fresh("import sys, matchturan.cli; print('dataclasses' in sys.modules)") == "False"


LIGHT = ["matchturan", "matchturan.cli", "matchturan.containment", "matchturan.graphs",
         "matchturan.limits"]
ENGINE = sorted([*LIGHT, "matchturan.constructions", "matchturan.covering",
                 "matchturan.invariants", "matchturan.solver", "matchturan.verifier"])
PARSED = {
    "ex --n 8 --forbid M4": LIGHT,
    "family --graph C5 --p 2": LIGHT,
    "construct gns --n 7 --s 2 --forbid K3": LIGHT,
    "verify ma-hou --n 5 --s 1 --r 2 --k 3": LIGHT,
}


def _loaded_after(statement: str) -> list[str]:
    code = f"import sys\n{statement}\nprint(*sorted(sys.modules))"
    return [m for m in _fresh(code).split() if m.startswith("matchturan")]


@pytest.mark.parametrize("argv", PARSED)
def test_parsing_a_command_imports_only_what_it_needs(argv):
    statement = f"from matchturan import cli; cli.build_parser().parse_args({argv.split()!r})"
    assert _loaded_after(statement) == PARSED[argv]


def test_an_ex_run_adds_only_the_solver_and_invariants():
    statement = "from matchturan import cli; cli.main(['ex', '--n', '5', '--forbid', 'M2'])"
    expected = sorted([*LIGHT, "matchturan.invariants", "matchturan.solver"])
    assert _loaded_after(statement) == expected


def test_a_verify_run_adds_the_engine_it_calls():
    argv = ["verify", "erdos-gallai", "--n", "3", "--s", "1"]
    statement = f"from matchturan import cli; cli.main({argv!r})"
    assert _loaded_after(statement) == ENGINE


def test_dir_is_the_pinned_export_list():
    assert dir(matchturan) == EXPORTED
    assert sorted(matchturan.__all__) == [n for n in EXPORTED if n != "__version__"]


@pytest.mark.parametrize("name", [n for n in EXPORTED if n != "__version__"])
def test_each_name_is_its_defining_modules_attribute(name):
    value = getattr(matchturan, name)
    module = importlib.import_module(f"matchturan.{matchturan._SOURCE[name]}")
    assert value is getattr(module, name)
    if hasattr(value, "__module__"):  # not the int constants
        assert value.__module__ == module.__name__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        matchturan.no_such_name
    with pytest.raises(ImportError):
        from matchturan import no_such_name  # noqa: F401


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from matchturan import *", namespace)
    assert set(matchturan.__all__) <= set(namespace)


K3_FREE = GraphFamily([complete(3)])
RECORDS = {
    "GnsBuild": lambda: build_g_n_s(4, 1, K3_FREE),
    "ConstructionSpec": lambda: ConstructionSpec(kind="clique", s=3),
    "CoveringReport": lambda: covering_report(cycle(5), 2),
    "TutteBergeCertificate": lambda: tutte_berge_certificate(matching(2)),
    "ExResult": lambda: ex_general(4, 2, K3_FREE),
    "ExProfile": lambda: ex_profile(complete(3), 3, 2),
    "Theorem": lambda: THEOREMS["tutte-berge"],
    "TheoremReport": lambda: verify_tutte_berge(2),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_tuples(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert tuple(record) == record
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
