"""Golden corpus for `matchturan ex`: values, witness strings and class
counts of a fixed set of families, replayed through `cli.main` and compared
byte for byte (exit code, stdout, JSON payload).  The widest runs are also
replayed with two workers, which must give the same bytes.

    python tests/test_golden_ex.py     # re-record tests/golden/ex/

Re-record only from a commit whose payloads are known good: the files are
what "same behaviour" means for any refactor of the enumerator or the
canonical labelling.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "ex"

RUNS = {
    "n7": ["--n", "7"],
    "n3-K1-none": ["--n", "3", "--forbid", "K1"],
    "n8-K3": ["--n", "8", "--forbid", "K3"],
    "n9-M3": ["--n", "9", "--forbid", "M3"],
    "n8-r3-M3-K4": ["--n", "8", "--r", "3", "--forbid", "M3,K4"],
    "n8-M3-C5": ["--n", "8", "--forbid", "M3,C5"],
    "n8-P4-S4": ["--n", "8", "--forbid", "P4,S4"],
    "n8-fp-C5-3": ["--n", "8", "--forbid-family", "fp(C5,3)"],
    "n7-C4": ["--n", "7", "--forbid", "C4"],
    "n8-K4-C4": ["--n", "8", "--forbid", "K4,C4"],
}

# the runs that enumerate the most classes, replayed with a pool as well
WIDEST = ("n7", "n8-K3", "n8-K4-C4")


def _payload_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_ex(argv: list[str], workers: int = 1) -> dict:
    """One `ex` run with a JSON report: rc, stdout, payload."""
    from matchturan.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main(["ex", *argv, "--workers", str(workers), "--out", tmp])
        payload = json.loads((Path(tmp) / "ex.json").read_text())["payload"]
    return {"argv": argv, "rc": rc, "stdout": stdout.getvalue(), "payload": payload}


def _check(name: str, workers: int) -> None:
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    got = run_ex(RUNS[name], workers)
    assert got["argv"] == golden["argv"]
    assert got["rc"] == golden["rc"]
    assert got["stdout"] == golden["stdout"]
    assert _payload_text(got["payload"]) == _payload_text(golden["payload"])


@pytest.mark.parametrize("name", sorted(RUNS))
def test_ex_matches_golden(name):
    _check(name, 1)


@pytest.mark.parametrize("name", WIDEST)
def test_ex_matches_golden_with_two_workers(name):
    _check(name, 2)


def record() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in RUNS.items():
        text = json.dumps(run_ex(argv), sort_keys=True, indent=2) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"recorded {name}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record()
