"""matchturan benchmark runner.

    python3 perfbench/run.py --workload enum-matching --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from `src/`.
With `--trace 0` it times whole passes over the workload's op list for at
least `--seconds` seconds and prints the end-to-end metrics; with `--trace 1`
it runs one traced pass per mode and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 only when every
output was checked correct.  See perfbench/README.md for the workloads, the
metrics and what each one is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
CHILD = BENCH / "child.py"

SETUP_REPEATS = 11
CLI_TIMEOUT_S = 60
POOL_WORKERS = 2

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_share": "share",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package source, no golden files)."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run(cmd: list, timeout: float) -> tuple[int | None, str]:
    """Run a child in its own process group; on timeout kill the whole group
    (pool workers included) and wait for it.  Returns (exit code or None on
    timeout, stderr tail)."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
        return proc.returncode, err[-2000:]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out"


def _cpu_total() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup(workload: str, seed: int) -> float:
    """Interpreter start to inputs built: import plus the workload's family
    parsing or corpus generation, in a fresh process."""
    cmd = [sys.executable, str(CHILD), "setup", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise BenchError(f"set-up of {workload} failed")
    return elapsed


# ---------------------------------------------------------------------------
# enum-matching and verify-grid: one CLI process per command
# ---------------------------------------------------------------------------


def golden_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cli_pass(commands: list, workers: int, work: Path, trace: str = "0") -> dict:
    """Run each command once, in order, each in a fresh interpreter.  Timing
    covers the commands only; payloads are checked after the clock stops."""
    runs = []
    cpu0 = _cpu_total()
    t0 = time.perf_counter()
    for name, argv, out_name in commands:
        out = work / name
        full_argv = [*argv, "--workers", str(workers), "--out", str(out)]
        cmd = [sys.executable, str(CHILD), "cli", "--trace", trace,
               "--result", str(work / f"{name}.result.json"), "--", *full_argv]
        rc, err = _run(cmd, CLI_TIMEOUT_S)
        runs.append((name, out_name, rc, err))
    wall = time.perf_counter() - t0
    cpu = _cpu_total() - cpu0

    failures = []
    traces = []
    peak = 0.0
    for name, out_name, rc, err in runs:
        out = work / name
        if rc == 0:
            result = json.loads((work / f"{name}.result.json").read_text())
            rc = result["rc"]
            peak = max(peak, result["peak_rss_mb"])
            if "trace" in result:
                traces.append(result["trace"])
        report = out / f"{out_name}.json"
        if rc != 0:
            failures.append(f"{name}: exit {rc}: {err.strip()[-300:]}")
        elif not report.exists():
            failures.append(f"{name}: no report written")
        else:
            payload = json.loads(report.read_text())["payload"]
            if golden_text(payload) != (GOLDEN / f"{name}.json").read_text():
                failures.append(f"{name}: payload differs from golden")
        shutil.rmtree(out, ignore_errors=True)
    return {"wall": wall, "cpu": cpu, "peak_rss_mb": peak, "attempted": len(commands),
            "failures": failures, "traces": traces}


# ---------------------------------------------------------------------------
# domain-64: one process per pass, each op under a deadline
# ---------------------------------------------------------------------------


class DomainOracle:
    """networkx answers for the corpus, computed once per run."""

    def __init__(self, corpus: list):
        import networkx as nx

        self.answers = []
        for item in corpus:
            g = nx.Graph()
            g.add_nodes_from(range(item["n"]))
            g.add_edges_from(item["a"])
            self.answers.append({
                "matching_number": len(nx.max_weight_matching(g, maxcardinality=True)),
                "count_cliques": sum(nx.triangles(g).values()) // 3,
                "edges": len(item["a"]),
                "degrees": sorted(d for _, d in g.degree()),
            })


def _degrees(adj: list) -> list:
    return sorted(row.bit_count() for row in adj)


def check_domain(result: dict, corpus: list, oracle: DomainOracle) -> dict:
    """Per-op verdicts: ok, miss (past the deadline) or failed (wrong answer or
    exception)."""
    names = result["op_names"]
    ok = 0
    misses: dict[str, list] = {}
    failures = []
    for item, answer, row in zip(corpus, oracle.answers, result["results"]):
        canon = [r[1] for r, name in zip(row, names) if name == "canonical_form" and r[0] == "ok"]
        for (status, value), name in zip(row, names):
            where = f"{name} on {item['label']}"
            if status == "miss":
                misses.setdefault(name, []).append(item["label"])
                continue
            if status == "error":
                failures.append(f"{where}: {value}")
                continue
            if name == "canonical_form":
                good = (
                    all(c == value for c in canon)
                    and sum(r.bit_count() for r in value) // 2 == answer["edges"]
                    and _degrees(value) == answer["degrees"]
                )
            else:
                good = value == answer[name]
            if good:
                ok += 1
            else:
                failures.append(f"{where}: got {value}, oracle says {answer.get(name)}")
    return {"ok": ok, "misses": misses, "failures": failures,
            "attempted": len(names) * len(corpus)}


def domain_pass(seed: int, n_graphs: int, work: Path, trace: str) -> dict:
    """One fresh interpreter per graph, so that the heap one graph's
    interrupted ops leave behind does not add to the next graph's peak RSS.
    Times and CPU cover the ops only, measured inside each process."""
    res = work / "domain.json"
    merged = {"ops_s": 0.0, "cpu": 0.0, "peak_rss_mb": 0.0, "results": [], "traces": []}
    for i in range(n_graphs):
        cmd = [sys.executable, str(CHILD), "domain", "--seed", str(seed), "--graph", str(i),
               "--trace", trace, "--result", str(res)]
        rc, err = _run(cmd, CLI_TIMEOUT_S)
        if rc != 0:
            return {"error": f"domain child for graph {i} exit {rc}: {err.strip()[-300:]}"}
        result = json.loads(res.read_text())
        res.unlink()
        merged["ops_s"] += result["ops_s"]
        merged["cpu"] += result["cpu_s"]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], result["peak_rss_mb"])
        merged["op_names"] = result["op_names"]
        merged["results"].append(result["row"])
        if "trace" in result:
            merged["traces"].append(result["trace"])
    return merged


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.failures: list[str] = []
        self.misses: dict[str, list] = {}

    def add_cli(self, p: dict) -> None:
        self.attempted += p["attempted"]
        self.ok += p["attempted"] - len(p["failures"])
        self.failures += p["failures"]

    def add_domain(self, p: dict, corpus: list, oracle: DomainOracle) -> None:
        if "error" in p:
            self.attempted += 4 * len(corpus)
            self.failures.append(p["error"])
            return
        v = check_domain(p, corpus, oracle)
        self.attempted += v["attempted"]
        self.ok += v["ok"]
        self.failures += v["failures"]
        self.misses = v["misses"]


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, Tally]:
    setup = [measure_setup(workload, seed) for _ in range(SETUP_REPEATS)]
    tally = Tally()
    walls, cpus, peaks = [], [], []
    if workload == workloads.DOMAIN:
        corpus = workloads.domain_corpus(seed)
        oracle = DomainOracle(corpus)
    else:
        commands, workers = workloads.CLI_WORKLOADS[workload]
        commands = workloads.command_order(commands, seed)
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        if workload == workloads.DOMAIN:
            p = domain_pass(seed, len(corpus), work, "0")
            tally.add_domain(p, corpus, oracle)
            if "error" in p:
                return {}, tally
            walls.append(p["ops_s"])
        else:
            p = cli_pass(commands, workers, work)
            tally.add_cli(p)
            walls.append(p["wall"])
        cpus.append(p["cpu"])
        peaks.append(p["peak_rss_mb"])
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(peaks),
        "ok_share": tally.ok / tally.attempted,
    }
    print(f"# passes={len(walls)} walls_s={[round(w, 4) for w in walls]} "
          f"setup_s={[round(s, 4) for s in setup]}")
    return metrics, tally


def _layer_metrics(s: dict, wall: float) -> dict:
    """Per-layer numbers from one merged trace summary of pass A.

    Layer times are shares of pass A's wall time: a layer some workload never
    enters reads 0 there, and a share says directly how much of the run a
    faster layer could save.  `trace.wall_s` converts them back to seconds."""
    calls, self_s = s["calls"], s["self_s"]
    using = "containment.contains_subgraph_using_edge"
    cf = "graphs.canonical_form"

    def share(seconds):
        return seconds / wall

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "trace.wall_s": wall,
        "graphs.canonical_form.calls": calls.get(cf, 0),
        "graphs.canonical_form.self_share": share(self_s.get(cf, 0.0)),
        "graphs.canonical_form.us_per_call": ratio(self_s.get(cf, 0.0), calls.get(cf)) * 1e6,
        "containment.using_edge.calls": calls.get(using, 0),
        "containment.using_edge.self_share": share(self_s.get(using, 0.0)),
        "containment.using_edge.hit_share": ratio(s["hits"].get(using, 0), calls.get(using)),
        "solver.enumerate_free.self_share": share(self_s.get("solver.enumerate_free", 0.0)),
        "solver.classes": s["classes"],
        "solver.class_yield": ratio(s["classes"], s["enum_canonical_calls"]),
        "solver.repeat_share": ratio(s["enum_repeats"], s["enum_calls"]),
        "solver.repeat_time_share": share(s["enum_repeat_s"]),
        "invariants.matching_number.calls": calls.get("invariants.matching_number", 0),
        "invariants.matching_number.self_share":
            share(self_s.get("invariants.matching_number", 0.0)),
        "invariants.count_cliques.calls": calls.get("invariants.count_cliques", 0),
        "invariants.count_cliques.self_share": share(self_s.get("invariants.count_cliques", 0.0)),
        "verifier.brute_side_share": share(s["brute_side_s"]),
        "verifier.formula_side_share": share(s["formula_side_s"]),
        "covering.family_fp.calls": calls.get("covering.family_fp", 0),
        "verifier.points": s["verifier_points"],
        "cli.self_share": share(self_s.get("cli.main", 0.0)),
    }


def _merge(summaries: list) -> dict:
    """Sum the per-process trace summaries of one pass."""
    merged: dict = {}
    for s in summaries:
        for key, value in s.items():
            if isinstance(value, dict):
                bucket = merged.setdefault(key, {})
                for k, v in value.items():
                    bucket[k] = bucket.get(k, 0) + v
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def traced_run(workload: str, seed: int, work: Path) -> tuple[dict, Tally]:
    """Pass A traces every layer at one worker (attribution); pass B traces
    only the enumerator at one worker, pass C at two (pool cost, and B is the
    near-untraced reference for the tracing overhead)."""
    tally = Tally()
    if workload == workloads.DOMAIN:
        corpus = workloads.domain_corpus(seed)
        oracle = DomainOracle(corpus)
        a = domain_pass(seed, len(corpus), work, "full")
        tally.add_domain(a, corpus, oracle)
        b = domain_pass(seed, len(corpus), work, "0")
        tally.add_domain(b, corpus, oracle)
        if tally.failures:
            return {}, tally
        metrics = _layer_metrics(_merge(a["traces"]), a["ops_s"])
        metrics["trace.overhead_share"] = a["ops_s"] / b["ops_s"] - 1
        metrics["solver.pool.extra_wall_share"] = 0.0  # no enumeration here
        metrics["solver.pool.extra_cpu_share"] = 0.0
    else:
        commands, _ = workloads.CLI_WORKLOADS[workload]
        commands = workloads.command_order(commands, seed)
        a = cli_pass(commands, 1, work, trace="full")
        b = cli_pass(commands, 1, work, trace="enum")
        c = cli_pass(commands, POOL_WORKERS, work, trace="enum")
        for p in (a, b, c):
            tally.add_cli(p)
        if tally.failures:
            return {}, tally
        metrics = _layer_metrics(_merge(a["traces"]), a["wall"])
        sb, sc = _merge(b["traces"]), _merge(c["traces"])
        metrics["trace.overhead_share"] = a["wall"] / b["wall"] - 1
        # the same enumerations at two workers against one
        metrics["solver.pool.extra_wall_share"] = sc["enum_s"] / sb["enum_s"] - 1
        metrics["solver.pool.extra_cpu_share"] = sc["enum_cpu_s"] / sb["enum_cpu_s"] - 1
    metrics["graphs.canonical_form.deadline_misses"] = len(tally.misses.get("canonical_form", []))
    metrics["invariants.matching_number.deadline_misses"] = len(
        tally.misses.get("matching_number", []))
    return metrics, tally


LAYER_UNITS = {"calls": "count", "classes": "count", "points": "count",
               "deadline_misses": "count", "us_per_call": "us", "wall_s": "s"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "share")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "matchturan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_checkout(workload: str) -> None:
    if not (SRC / "matchturan" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'matchturan'}")
    if workload in workloads.CLI_WORKLOADS:
        for name, _argv, _out in workloads.CLI_WORKLOADS[workload][0]:
            if not (GOLDEN / f"{name}.json").is_file():
                raise BenchError(f"missing golden payload {name}.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        check_checkout(args.workload)
        work.mkdir(parents=True, exist_ok=True)
        print(f"# matchturan benchmark workload={args.workload} seed={args.seed} "
              f"trace={args.trace} commit={_commit()} src_sha256={_source_digest()} "
              f"nproc={os.cpu_count()} python={platform.python_version()} "
              f"machine={platform.machine()}", flush=True)
        if args.trace:
            metrics, tally = traced_run(args.workload, args.seed, work)
        else:
            metrics, tally = timed_run(args.workload, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it, or it was never made
            pass

    for label, missed in sorted(tally.misses.items()):
        print(f"# deadline misses, {label}: {len(missed)} ({', '.join(missed)})")
    for failure in tally.failures[:20]:
        print(f"# FAILED {failure}")
    correct = not tally.failures
    out_metrics = {}
    if correct:
        for name, value in metrics.items():
            unit = layer_unit(name) if args.trace else END_TO_END_UNITS[name]
            out_metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": out_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
