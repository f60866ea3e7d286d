"""Golden corpus for the CLI's help, usage and error text: the `--help`
output of the top level, of each subcommand, of each `construct` kind and of
each `verify` theorem, and the errors for an unknown or missing subcommand
and a missing required flag, at a fixed terminal width.  Compared byte for
byte (exit code, stdout, stderr).

    python tests/test_cli_help.py     # re-record tests/golden/help/

The parser fills a subcommand's arguments only when that subcommand is
parsed or its help printed; these files pin that the text is the same as
when every subparser was built up front.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "help"
COLUMNS = "80"

CONSTRUCT_KINDS = ["gns", "clique", "forest-extremal", "turan"]
THEOREM_COMMANDS = [
    "erdos-gallai", "ma-hou", "main", "gerbner", "forest", "tutte-berge",
    "color-critical", "pentagon",
]

RUNS = {
    "help": ["--help"],
    **{f"help-{c}": [c, "--help"] for c in ("ex", "family", "construct", "verify")},
    **{f"help-construct-{k}": ["construct", k, "--help"] for k in CONSTRUCT_KINDS},
    **{f"help-verify-{t}": ["verify", t, "--help"] for t in THEOREM_COMMANDS},
    "error-no-command": [],
    "error-unknown-command": ["frob"],
    "error-ex-missing-n": ["ex", "--forbid", "M4"],
    "error-ex-unknown-flag": ["ex", "--n", "5", "--frob", "1"],
    "error-family-missing-p": ["family", "--graph", "C5"],
    "error-construct-no-kind": ["construct"],
    "error-construct-unknown-kind": ["construct", "frob"],
    "error-construct-gns-missing-forbid": ["construct", "gns", "--n", "7", "--s", "2"],
    "error-verify-no-theorem": ["verify"],
    "error-verify-unknown-theorem": ["verify", "frob"],
    "error-verify-ma-hou-missing-k": ["verify", "ma-hou", "--n", "5", "--s", "1", "--r", "2"],
    "error-verify-main-bad-int": ["verify", "main", "--F", "K4", "--s", "x", "--r", "3",
                                  "--n", "6"],
}


def render(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of parsing `argv` at COLUMNS columns, in a
    fresh parser."""
    from matchturan.cli import build_parser

    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = COLUMNS
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                build_parser().parse_args(argv)
                code = None
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_help_and_error_text_match_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    got = render(RUNS[name])
    assert got["argv"] == golden["argv"]
    assert got["exit"] == golden["exit"]
    assert got["stdout"] == golden["stdout"]
    assert got["stderr"] == golden["stderr"]


def test_the_corpus_covers_every_subcommand():
    from matchturan.verifier import THEOREMS

    assert THEOREM_COMMANDS == list(THEOREMS)
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(f"{n}.json" for n in RUNS)


def record() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in RUNS.items():
        text = json.dumps(render(argv), sort_keys=True, indent=2) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"recorded {name}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record()
