"""Record the golden payloads of the enum-matching and verify-grid commands.

    python3 perfbench/record_golden.py

Runs every command once at one worker, each in a fresh interpreter, and
writes the JSON `payload` section of its report to perfbench/golden/<name>.json.
The benchmark counts any byte difference from these files as a failed op, so
record them only from a commit whose payloads are known good.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "golden"
    run.GOLDEN.mkdir(exist_ok=True)
    try:
        for name, argv, out_name in workloads.ENUM_COMMANDS + workloads.VERIFY_COMMANDS:
            out = work / name
            cmd = [sys.executable, "-m", "matchturan.cli", *argv,
                   "--workers", "1", "--out", str(out)]
            rc, err = run._run(cmd, run.CLI_TIMEOUT_S)
            if rc != 0:
                print(f"{name}: exit {rc}: {err}", file=sys.stderr)
                return 1
            payload = json.loads((out / f"{out_name}.json").read_text())["payload"]
            (run.GOLDEN / f"{name}.json").write_text(run.golden_text(payload))
            print(f"recorded {name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
