"""Golden corpus for `matchturan construct`: every construction kind, both
split-construction objectives and a filling tie, replayed through
`cli.main` and compared byte for byte (exit code, stdout, the payload of
`construct.json`).

    python tests/test_golden_construct.py     # re-record tests/golden/construct/

Re-record only from a commit whose payloads are known good: the files are
what "same behaviour" means for any refactor of the constructions or the
CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "construct"

RUNS = {
    "gns-n9-s2-K3": ["gns", "--n", "9", "--s", "2", "--forbid", "K3"],
    "gns-n9-s2-K3-kr3": [
        "gns", "--n", "9", "--s", "2", "--forbid", "K3", "--objective", "kr", "--r", "3",
    ],
    # two fillings, CJ and CF, tie at value 15
    "gns-n7-s4-P4-tie": ["gns", "--n", "7", "--s", "4", "--forbid", "P4"],
    "clique-s2": ["clique", "--s", "2"],
    "forest-extremal-n12-p2-t1-P4": [
        "forest-extremal", "--n", "12", "--p", "2", "--t", "1", "--F", "P4",
    ],
    "turan-p7-k3": ["turan", "--p", "7", "--k", "3"],
}


def _payload_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_construct(argv: list[str]) -> dict:
    """One `construct` run with a JSON report: rc, stdout, payload."""
    from matchturan.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main(["construct", *argv, "--out", tmp])
        payload = json.loads((Path(tmp) / "construct.json").read_text())["payload"]
    return {"argv": argv, "rc": rc, "stdout": stdout.getvalue(), "payload": payload}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_construct_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    got = run_construct(RUNS[name])
    assert got["argv"] == golden["argv"]
    assert got["rc"] == golden["rc"]
    assert got["stdout"] == golden["stdout"]
    assert _payload_text(got["payload"]) == _payload_text(golden["payload"])


def record() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in RUNS.items():
        text = json.dumps(run_construct(argv), sort_keys=True, indent=2) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"recorded {name}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record()
