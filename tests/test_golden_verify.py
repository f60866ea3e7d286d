"""Golden corpus for `matchturan verify`: every subcommand, including the
failing, degenerate and hypothesis-unmet paths, replayed through `cli.main`
and compared byte for byte (exit code, stdout, JSON payload, CSV).

    python tests/test_golden_verify.py     # re-record tests/golden/verify/

Re-record only from a commit whose reports are known good: the files are
what "same behaviour" means for any refactor of the verifier or the CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "verify"

RUNS = {
    "erdos-gallai": ["erdos-gallai", "--n", "5..7", "--s", "1..2"],
    "ma-hou": ["ma-hou", "--n", "3..6", "--s", "1..2", "--r", "2..3", "--k", "2..3"],
    "main-C5": ["main", "--F", "C5", "--s", "2", "--r", "2", "--n", "6..7"],
    "main-P4-unmet": ["main", "--F", "P4", "--s", "2", "--r", "2", "--n", "6..7"],
    "gerbner-P4-fail": ["gerbner", "--F", "P4", "--s", "3", "--n", "7..9"],
    "gerbner-K2-degenerate": ["gerbner", "--F", "K2", "--s", "2", "--n", "5..6"],
    "gerbner-K3-unmet": ["gerbner", "--F", "K3", "--s", "2", "--n", "5..6"],
    "forest-P4": ["forest", "--F", "P4", "--s", "2", "--n", "6..8"],
    "forest-C4-unmet": ["forest", "--F", "C4", "--s", "2", "--n", "6..7"],
    "tutte-berge": ["tutte-berge", "--n", "1..5"],
    "color-critical-K4": ["color-critical", "--F", "K4", "--r", "3", "--p", "3..5"],
    "color-critical-C4-unmet": ["color-critical", "--F", "C4", "--r", "2", "--p", "3..4"],
    "pentagon": ["pentagon"],
}


def _payload_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_verify(argv: list[str]) -> dict:
    """One `verify` run with JSON and CSV reports: rc, stdout, payload, CSV."""
    from matchturan.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main(["verify", *argv, "--out", tmp, "--format", "both"])
        out = Path(tmp)
        payload = json.loads((out / f"{argv[0]}.json").read_text())["payload"]
        csv_text = (out / f"{argv[0]}.csv").read_bytes().decode("utf-8")
    return {
        "argv": argv,
        "rc": rc,
        "stdout": stdout.getvalue(),
        "payload": payload,
        "csv": csv_text,
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_verify_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    got = run_verify(RUNS[name])
    assert got["argv"] == golden["argv"]
    assert got["rc"] == golden["rc"]
    assert got["stdout"] == golden["stdout"]
    assert _payload_text(got["payload"]) == _payload_text(golden["payload"])
    assert got["csv"] == golden["csv"]


def test_golden_corpus_covers_every_verify_subcommand():
    from matchturan.verifier import THEOREMS

    assert set(THEOREMS) == {argv[0] for argv in RUNS.values()}


def record() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in RUNS.items():
        text = json.dumps(run_verify(argv), sort_keys=True, indent=2) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"recorded {name}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record()
