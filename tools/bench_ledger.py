"""Before/after benchmark ledger: the parent commit against the working tree.

    python3 tools/bench_ledger.py --parent <branch point> --out BENCH_<pr>.json

Run it from the root of a git checkout, with the change committed.  `--out`
is required, so that no run overwrites an earlier change's ledger.  It
exports the parent commit with `git archive` into a scratch directory (no
worktree is registered in .git), byte-compiles both trees with
`compileall` (so that neither pays for compiling in every fresh
interpreter), then runs ten pairs of `perfbench/run.py` runs on every
workload, one seed per pair, alternating between the two trees and
swapping which goes first on every other pair.
run.py's own defaults set the run length and the (untraced) mode.  Each
tree runs its own copy of perfbench/, which checks its CLI payloads
against its golden files.

It also times `graphs.canonical_form` and `invariants.matching_number`
call by call on the domain-64 corpus at seed 1, each call under the
workload's deadline, in a fresh interpreter per tree and pass.  It makes
MICRO_PASSES passes per tree, alternating the trees, and keeps each graph's
best time over the passes, so that machine drift between two single passes
does not read as a change.  The first pass also records a sha256 of each
graph's canonical forms (rows and permutation of both relabellings), and
the ledger states whether the two trees agree.

The JSON it writes holds both commits, the machine, every run's metrics
and `correct` flag, per workload and side the median and quartiles of each
end-to-end metric, the number of pairs the change won, the per-call
times and the canonical-form digests.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["enum-matching", "verify-grid", "domain-64"]
METRICS = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ok_share"]
PAIRS = 10  # parent/change run pairs per workload
SEED = 701  # seed of the first pair; pair i runs seed SEED + i
MICRO_PASSES = 3  # per-call passes per tree, alternating between the trees

# runs inside each tree's interpreter: per-call times on the domain-64 corpus
MICRO = r"""
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

def timed(fn, graphs):
    # best of up to 5 calls (alternating between the graphs given) within
    # 0.5 s; None when one call is still running at the deadline
    best, spent, i = None, 0.0, 0
    while i < 5 and spent < 0.5:
        g = graphs[i % len(graphs)]
        signal.setitimer(signal.ITIMER_REAL, workloads.DEADLINE_S)
        t0 = time.perf_counter()
        try:
            fn(g)
        except Late:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
        spent += dt
        i += 1
    return round(best * 1e6, 1)

def digest(graphs):
    forms = [canonical_form(g) for g in graphs]
    text = repr([(cf.graph.adj, cf.permutation) for cf in forms])
    return hashlib.sha256(text.encode()).hexdigest()

out = []
for item in workloads.domain_corpus(1):
    ga, gb = Graph(item["n"], item["a"]), Graph(item["n"], item["b"])
    out.append({
        "label": item["label"],
        "n": item["n"],
        "canonical_form_us": timed(canonical_form, [ga, gb]),
        "matching_number_us": timed(matching_number, [ga]),
        "canonical_sha256": digest([ga, gb]),
    })
print(json.dumps(out))
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


def compile_tree(tree: Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=tree, check=True, stdout=subprocess.DEVNULL,
    )


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


def micro(tree: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", MICRO], cwd=tree, env=env, check=True,
        capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def best_of(passes: list) -> list:
    """Per graph, the first pass's entry with each time replaced by its best
    over the passes (None only when every pass missed the deadline)."""
    out = []
    for entries in zip(*passes):
        best = dict(entries[0])
        for key in ("canonical_form_us", "matching_number_us"):
            times = [e[key] for e in entries if e[key] is not None]
            best[key] = min(times) if times else None
        out.append(best)
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
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--out", required=True, help="ledger file to write")
    args = parser.parse_args()

    work = ROOT / ".bench_ledger"
    parent_tree = work / "parent"
    shutil.rmtree(work, ignore_errors=True)
    parent_tree.mkdir(parents=True)
    try:
        export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for tree in trees.values():
            compile_tree(tree)
        runs: dict = {w: {"parent": [], "change": []} for w in WORKLOADS}
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for workload in WORKLOADS:
                for side in order:
                    run = bench(trees[side], workload, SEED + i)
                    runs[workload][side].append(run)
                    print(f"pair {i} {workload} {side}: correct={run['correct']} "
                          f"wall_s={run['metrics'].get('wall_s')}", flush=True)
        passes: dict = {side: [] for side in trees}
        for i in range(MICRO_PASSES):
            for side in (["parent", "change"] if i % 2 == 0 else ["change", "parent"]):
                passes[side].append(micro(trees[side]))
        per_call = {side: best_of(passes[side]) for side in trees}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    status = git("status", "--porcelain", "--", "src", "perfbench", "tests")
    differ = [
        p["label"] for p, c in zip(per_call["parent"], per_call["change"])
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
                     "micro_passes": MICRO_PASSES},
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
            "note": f"best over {MICRO_PASSES} alternating passes per tree of the "
                    "best of up to 5 calls within 0.5 s; null: still running at the "
                    "0.5 s deadline in every pass; canonical_sha256: sha256 of the "
                    "canonical rows and permutation of both relabellings",
            **per_call,
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
