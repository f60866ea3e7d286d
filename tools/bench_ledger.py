"""Before/after benchmark ledger: the parent commit against HEAD.

    python3 tools/bench_ledger.py --parent <branch point> --out BENCH_<pr>.json

Run it from the root of a git checkout, with the change committed: it
measures HEAD, not the working tree.  `--out` is required, so that no run
overwrites an earlier change's ledger.  It
exports the parent commit and HEAD with `git archive` into scratch
directories (no worktree is registered in .git) and runs every child with
PYTHONDONTWRITEBYTECODE=1, so that, as in a fresh checkout, no bytecode
cache exists and each fresh interpreter compiles what it imports.  It then
runs ten pairs of `perfbench/run.py` runs on every workload, one seed per
pair, alternating between the two trees and swapping which goes first on
every other pair.
run.py's own defaults set the run length and the (untraced) mode.  Each
tree runs its own copy of perfbench/, which checks its CLI payloads
against its golden files.

It times `import matchturan`, `import matchturan.graphs` and `import
matchturan.cli`, and the parse of one `ex` command (`parse ex`: build the
parser, parse `ex --n 8 --forbid M4` and its family, as `enum-matching`'s
set-up does), in fresh interpreters, in process (interpreter start-up
excluded), IMPORT_ROUNDS rounds per row, the trees alternating and
swapping which goes first every round, and keeps each tree's median and
the rounds in which the change was faster.

It times the fixed CLI runs of CLI_RUNS (`verify erdos-gallai --n 5..9
--s 1..3`, `ex --n 9 --forbid M4`, `verify main --F K4 --s 2 --r 3 --n
6..9`), each at every worker count of CLI_WORKERS, as whole fresh
interpreters writing their reports, CLI_ROUNDS rounds per run, the trees
alternating and swapping which goes first every round.  Per run it keeps
each tree's median and quartiles, the rounds in which the change was
faster, and whether the two trees' report `payload` sections were
byte-identical in every round.

It also times `graphs.canonical_form` and `invariants.matching_number`
call by call on the domain-64 corpus at seed 1, each call on a fresh graph
and under the workload's deadline.  One long-lived interpreter per tree
takes its calls over a pipe, and the two trees alternate call by call
(swapping which goes first every round), so that machine drift, which on
a shared host lasts minutes, falls on both sides alike.  Per graph and op
the ledger keeps each tree's median over CALLS calls and the number of
rounds in which the change was faster.  Each interpreter also records a
sha256 of each graph's canonical forms (rows and permutation of both
relabellings), and the ledger states whether the two trees agree.

It counts the lines of each `src/matchturan/*.py` in both trees, as `wc
-l` does, so that the tracked size of `src/` comes from the ledger.

The JSON it writes holds both commits, the machine, every run's metrics
and `correct` flag, per workload and side the median and quartiles of each
end-to-end metric, the number of pairs the change won, the import
times, the CLI runs, the per-call times, the canonical-form digests and
the source line counts.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (plain edge lists: it imports nothing of matchturan)

WORKLOADS = ["enum-matching", "verify-grid", "domain-64"]
METRICS = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ok_share"]
PAIRS = 10  # parent/change run pairs per workload
SEED = 701  # seed of the first pair; pair i runs seed SEED + i
CALLS = 30  # per-call rounds per graph and op, alternating the trees call by call
OPS = ["canonical_form", "matching_number"]
# row of the imports table -> the statement it times
IMPORTS = {
    "matchturan": "import matchturan",
    "matchturan.graphs": "import matchturan.graphs",
    "matchturan.cli": "import matchturan.cli",
    "parse ex": "from matchturan import cli; "
                "cli.build_parser().parse_args(['ex', '--n', '8', '--forbid', 'M4']); "
                "cli.parse_family('M4')",
}
IMPORT_ROUNDS = 15  # fresh interpreters per tree and row
# row of the CLI runs table -> the command line, run at each worker count
CLI_RUNS = {
    "verify erdos-gallai": ["verify", "erdos-gallai", "--n", "5..9", "--s", "1..3"],
    "ex M4": ["ex", "--n", "9", "--forbid", "M4"],
    "verify main K4": ["verify", "main", "--F", "K4", "--s", "2", "--r", "3", "--n", "6..9"],
}
CLI_WORKERS = [1, 2]
CLI_ROUNDS = 10  # fresh interpreters per tree, run and worker count, as PAIRS

# runs inside each tree's interpreter: reads "<op> <graph index> <a|b>" lines
# and answers each with one JSON line, the call's time in us (null: still
# running at the deadline) or, for "digest", the sha256 of the graph's
# canonical forms
SERVER = r"""
import hashlib, json, signal, sys, time
sys.path.insert(0, "perfbench")
import workloads
from matchturan.graphs import Graph, canonical_form
from matchturan.invariants import matching_number

class Late(BaseException):
    pass

def alarm(signum, frame):
    raise Late

signal.signal(signal.SIGALRM, alarm)
corpus = workloads.domain_corpus(1)
ops = {"canonical_form": canonical_form, "matching_number": matching_number}
for line in sys.stdin:
    op, i, side = line.split()
    item = corpus[int(i)]
    if op == "digest":
        forms = [canonical_form(Graph(item["n"], item[k])) for k in "ab"]
        text = repr([(cf.graph.adj, cf.permutation) for cf in forms])
        out = hashlib.sha256(text.encode()).hexdigest()
    else:
        g = Graph(item["n"], item[side])
        signal.setitimer(signal.ITIMER_REAL, workloads.DEADLINE_S)
        t0 = time.perf_counter()
        try:
            ops[op](g)
            out = round((time.perf_counter() - t0) * 1e6, 1)
        except Late:
            out = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps(out), flush=True)
"""


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    data = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def src_lines(tree: Path) -> dict:
    """Newlines per module of src/matchturan, as wc -l counts them, and their
    total."""
    counts = {
        path.name: path.read_bytes().count(b"\n")
        for path in sorted((tree / "src" / "matchturan").glob("*.py"))
    }
    return {**counts, "total": sum(counts.values())}


def import_ms(tree: Path, statement: str) -> float:
    """In-process time of `statement` in a fresh interpreter, in ms."""
    code = f"import time; t = time.perf_counter(); {statement}; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tree, check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
    ).stdout
    return float(out) * 1e3


def import_times(trees: dict) -> dict:
    """Per row: each tree's times and their median, and the rounds in which
    the change was faster."""
    out = {}
    for row, statement in IMPORTS.items():
        times: dict = {side: [] for side in trees}
        won = 0
        for r in range(IMPORT_ROUNDS):
            order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
            got = {side: import_ms(trees[side], statement) for side in order}
            for side, ms in got.items():
                times[side].append(round(ms, 2))
            won += got["change"] < got["parent"]
        out[row] = {
            **{f"{side}_median_ms": statistics.median(times[side]) for side in trees},
            "change_faster": won,
            "rounds_ms": times,
        }
    return out


def cli_run(tree: Path, argv: list, out: Path) -> tuple[float, str]:
    """Wall time in s of one CLI process that writes its report to `out`,
    and the report's payload section as sorted JSON."""
    shutil.rmtree(out, ignore_errors=True)
    t = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "matchturan.cli", *argv, "--out", str(out)], cwd=tree,
        check=True, capture_output=True, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
    )
    wall = time.perf_counter() - t
    (report,) = out.glob("*.json")
    return wall, json.dumps(json.loads(report.read_text())["payload"], sort_keys=True)


def cli_times(trees: dict, work: Path) -> dict:
    """Per run and worker count: each tree's times, their median and
    quartiles, the rounds in which the change was faster, and whether the
    payloads agreed in every round."""
    out = {}
    for row, argv in CLI_RUNS.items():
        for workers in CLI_WORKERS:
            command = [*argv, "--workers", str(workers)]
            times: dict = {side: [] for side in trees}
            won = 0
            identical = True
            for r in range(CLI_ROUNDS):
                order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
                got = {side: cli_run(trees[side], command, work / f"cli-{side}") for side in order}
                for side, (wall, _) in got.items():
                    times[side].append(round(wall, 4))
                won += got["change"][0] < got["parent"][0]
                identical &= got["change"][1] == got["parent"][1]
            out[f"{row} --workers {workers}"] = {
                "argv": command,
                **{
                    f"{side}_{name}_s": round(value, 5)
                    for side in trees
                    for name, value in zip(
                        ("q1", "median", "q3"), statistics.quantiles(times[side], n=4)
                    )
                },
                "change_faster": won,
                "payload_identical": identical,
                "rounds_s": times,
            }
    return out


def bench(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    header = lines[0] if lines else ""
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    digest = next((f.split("=", 1)[1] for f in header.split() if f.startswith("src_sha256=")), "")
    return {
        "seed": seed,
        "exit": proc.returncode,
        "correct": result["correct"],
        "src_sha256": digest,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


class Server:
    """One tree's interpreter running SERVER, driven over a pipe."""

    def __init__(self, tree: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SERVER], cwd=tree,
            env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, op: str, graph: int, side: str = "a"):
        self.proc.stdin.write(f"{op} {graph} {side}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def per_call(trees: dict) -> dict:
    """Per side, one entry per graph of the corpus: the median time of each
    op over CALLS calls (null when a call missed the deadline, after which
    that side makes no more calls of the op on the graph) and the digest;
    and per graph, the rounds in which the change was faster."""
    corpus = workloads.domain_corpus(1)
    servers = {side: Server(tree) for side, tree in trees.items()}
    out: dict = {side: [] for side in trees}
    out["change_faster"] = []
    try:
        for i, item in enumerate(corpus):
            times: dict = {side: {op: [] for op in OPS} for side in trees}
            faster = {"label": item["label"]}
            for op in OPS:
                faster[op] = 0
                for r in range(CALLS):
                    order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
                    got = {}
                    for side in order:
                        done = times[side][op]
                        if None not in done:
                            got[side] = servers[side].ask(op, i, "ab"[r % 2])
                            done.append(got[side])
                    if None not in got.values() and len(got) == 2:
                        faster[op] += got["change"] < got["parent"]
            for side in trees:
                entry = {"label": item["label"], "n": item["n"]}
                for op, calls in times[side].items():
                    median = None if None in calls else statistics.median(calls)
                    entry[f"{op}_us"] = median and round(median, 1)
                entry["canonical_sha256"] = servers[side].ask("digest", i)
                out[side].append(entry)
            out["change_faster"].append(faster)
    finally:
        for server in servers.values():
            server.close()
    return out


def spread(runs: list) -> dict:
    """Per metric: the median and the quartiles over the runs."""
    out = {}
    for m in METRICS:
        values = [r["metrics"][m] for r in runs if m in r["metrics"]]
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0] if values else None
        if values:
            out[m] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return out


def wins(parent: list, change: list) -> dict:
    """Per metric: the pairs in which the change reads better (ties count
    for neither side)."""
    out = {}
    for m in METRICS:
        sign = -1 if m == "ok_share" else 1  # ok_share: higher is better
        out[m] = sum(
            1 for p, c in zip(parent, change)
            if m in p["metrics"] and m in c["metrics"]
            and sign * (c["metrics"][m] - p["metrics"][m]) < 0
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="ledger file to write")
    args = parser.parse_args()

    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # every child inherits it
    work = ROOT / ".bench_ledger"
    shutil.rmtree(work, ignore_errors=True)
    trees = {"parent": work / "parent", "change": work / "change"}
    try:
        for side, rev in (("parent", args.parent), ("change", "HEAD")):
            trees[side].mkdir(parents=True)
            export(rev, trees[side])
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        imports = import_times(trees)
        cli = cli_times(trees, work)
        runs: dict = {w: {"parent": [], "change": []} for w in WORKLOADS}
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for workload in WORKLOADS:
                for side in order:
                    run = bench(trees[side], workload, SEED + i)
                    runs[workload][side].append(run)
                    print(f"pair {i} {workload} {side}: correct={run['correct']} "
                          f"wall_s={run['metrics'].get('wall_s')}", flush=True)
        calls = per_call(trees)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    status = git("status", "--porcelain", "--", "src", "perfbench", "tests")
    differ = [
        p["label"] for p, c in zip(calls["parent"], calls["change"])
        if p["canonical_sha256"] != c["canonical_sha256"]
    ]
    ledger = {
        "parent": {"commit": git("rev-parse", args.parent)},
        "change": {"commit": git("rev-parse", "HEAD"), "uncommitted_changes": bool(status)},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "settings": {"pairs": PAIRS, "seeds": [SEED + i for i in range(PAIRS)],
                     "order": "parent first on even pairs, change first on odd pairs",
                     "per_call_rounds": CALLS, "import_rounds": IMPORT_ROUNDS,
                     "cli_rounds": CLI_ROUNDS,
                     "bytecode_cache": "none (PYTHONDONTWRITEBYTECODE=1, fresh exports)"},
        "imports": {
            "note": f"in-process time of the import (parse ex: of the parser's "
                    "build, the parse of ex --n 8 --forbid M4 and parse_family('M4')) "
                    f"in a fresh interpreter, {IMPORT_ROUNDS} rounds per tree, the "
                    "trees alternating; "
                    "change_faster: the rounds in which the change was faster",
            **imports,
        },
        "cli_runs": {
            "note": f"wall time of the whole CLI process (interpreter start-up "
                    f"included) in a fresh interpreter, {CLI_ROUNDS} rounds per tree, the "
                    "trees alternating; q1, median, q3: each tree's quartiles over its "
                    "rounds; change_faster: the rounds in which the change "
                    "was faster; payload_identical: the two trees' report payload "
                    "sections were byte-identical in every round",
            **cli,
        },
        "workloads": {
            w: {
                "summary": {side: spread(runs[w][side]) for side in ("parent", "change")},
                "change_wins": wins(runs[w]["parent"], runs[w]["change"]),
                "correct": {side: [r["correct"] for r in runs[w][side]]
                            for side in ("parent", "change")},
                "runs": runs[w],
            }
            for w in WORKLOADS
        },
        "per_call_us": {
            "corpus": "domain-64, seed 1",
            "note": f"median of {CALLS} calls per tree, each on a fresh graph (the "
                    "relabellings alternate), the trees alternating call by call; "
                    "null: a call was still running at the 0.5 s deadline; "
                    "change_faster: the rounds in which the change's call was the "
                    "faster; canonical_sha256: sha256 of the canonical rows and "
                    "permutation of both relabellings",
            **calls,
        },
        "src_lines": {
            "note": "lines per module of src/matchturan, as wc -l counts them",
            **lines,
        },
        "canonical_forms": {
            "corpus": "domain-64, seed 1",
            "agree": not differ,
            "graphs_that_differ": differ,
        },
    }
    Path(args.out).write_text(json.dumps(ledger, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
