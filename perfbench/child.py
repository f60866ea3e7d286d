"""Child-process entry points of the benchmark.  Each runs in a fresh
interpreter with `src/` on the import path:

    child.py setup  --workload W --seed N          import and build inputs, print "ready"
    child.py cli    --trace 0|full|enum --result F -- ARGV  run matchturan.cli.main(ARGV)
    child.py domain --seed N --graph I --trace 0|full --result F  run the 4 ops on graph I

`cli` and `domain` write their findings as JSON to the --result file;
run.py checks them.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time

import workloads


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so that no handler in
    the library can swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded


def cli_setup(commands: list, seed: int) -> None:
    from matchturan import cli

    parser = cli.build_parser()
    for _name, argv, _out in workloads.command_order(commands, seed):
        args = parser.parse_args(argv)
        if getattr(args, "forbid", ""):
            cli.parse_family(args.forbid)
        if getattr(args, "forbidden", ""):
            cli.parse_graph(args.forbidden)


def domain_setup(seed: int) -> list:
    from matchturan.graphs import Graph

    return [
        (Graph(item["n"], item["a"]), Graph(item["n"], item["b"]))
        for item in workloads.domain_corpus(seed)
    ]


def peak_rss_mb() -> float:
    """This process plus its largest child (a pool worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_domain_graph(ga, gb, tracer) -> dict:
    """The four ops on one graph, each under the deadline."""
    from matchturan import graphs as g_mod
    from matchturan import invariants as i_mod

    ops = [
        ("canonical_form", lambda: list(g_mod.canonical_form(ga).graph.adj)),
        ("canonical_form", lambda: list(g_mod.canonical_form(gb).graph.adj)),
        ("matching_number", lambda: i_mod.matching_number(ga)),
        ("count_cliques", lambda: i_mod.count_cliques(ga, 3)),
    ]
    signal.signal(signal.SIGALRM, _alarm)
    row = []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for _name, op in ops:
        signal.setitimer(signal.ITIMER_REAL, workloads.DEADLINE_S)
        try:
            row.append(["ok", op()])
        except DeadlineExceeded:
            row.append(["miss", None])
            if tracer is not None:
                tracer.unwind()
        except Exception as exc:  # reported to run.py as a failed op
            row.append(["error", repr(exc)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    ops_s = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "ops_s": ops_s,
        "cpu_s": cpu1.ru_utime + cpu1.ru_stime - cpu0.ru_utime - cpu0.ru_stime,
        "op_names": [name for name, _ in ops],
        "row": row,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "cli", "domain"))
    parser.add_argument("--workload", default=workloads.DOMAIN)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--graph", type=int, default=0)
    parser.add_argument("--trace", choices=("0", "full", "enum"), default="0")
    parser.add_argument("--result", default="")
    own = sys.argv[1:]
    cli_argv = []
    if "--" in own:
        cut = own.index("--")
        own, cli_argv = own[:cut], own[cut + 1:]
    args = parser.parse_args(own)

    if args.mode == "setup":
        if args.workload == workloads.DOMAIN:
            domain_setup(args.seed)
        else:
            cli_setup(workloads.CLI_WORKLOADS[args.workload][0], args.seed)
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace in ("full", "enum"):
        from tracer import ENUM_ONLY, FULL, Tracer

        tracer = Tracer()
        tracer.install(ENUM_ONLY if args.trace == "enum" else FULL)

    if args.mode == "cli":
        from matchturan import cli

        out = {"rc": cli.main(cli_argv)}
    else:
        from matchturan.graphs import Graph

        item = workloads.domain_corpus(args.seed)[args.graph]
        ga, gb = Graph(item["n"], item["a"]), Graph(item["n"], item["b"])
        out = run_domain_graph(ga, gb, tracer)
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        out["trace"] = tracer.summary()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
