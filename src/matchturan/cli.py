"""Command-line front end: exact Turán computations, cover families,
candidate constructions, and theorem verification grids.

The `verify` subcommands are built from `verifier.THEOREMS`: each entry's
flags become its subparser, and a run parses the flag values by kind and
calls the entry's `verifier.verify_*` function.  Only the commands that
enumerate take `--ceiling` and `--workers`; only `verify` takes `--format`.

Reports are JSON (with a fixed `payload` section that is byte-identical for
identical configurations; wall time lives in a sidecar field) plus CSV
summary tables for the verification grids.  Exit status is 0 iff every
verdict in the run passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from pathlib import Path

from . import verifier
from .constructions import ConstructionSpec, realize
from .containment import GraphFamily
from .covering import covering_report, family_fp
from .graphs import (
    Graph,
    complete,
    cycle,
    from_graph6,
    matching,
    path,
    read_graph6_lines,
    star,
    to_graph6,
    turan_graph,
)
from .solver import HARD_CEILING, ex_general, validate_ceiling, validate_workers
from .verifier import CSV_COLUMNS, GRAPH, INT, RANGE, THEOREMS, TheoremReport

_NAMED = {
    "K": complete,
    "C": cycle,
    "P": path,
    "S": star,
    "M": matching,
}


def parse_graph(token: str) -> Graph:
    """Named-graph grammar: K5, C7, P4, S6, M3, T(7,3), g6:<raw>."""
    token = token.strip()
    if token.startswith("g6:"):
        return from_graph6(token[3:])
    m = re.fullmatch(r"([KCPSM])(\d+)", token)
    if m:
        return _NAMED[m.group(1)](int(m.group(2)))
    m = re.fullmatch(r"T\((\d+),(\d+)\)", token)
    if m:
        return turan_graph(int(m.group(1)), int(m.group(2)))
    raise ValueError(f"cannot parse graph token {token!r}")


def _split_top_level(expr: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in expr:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def parse_family(expr: str, label: str | None = None) -> GraphFamily:
    """Comma-separated graph tokens; fp(<graph>,<p>) splices in the cover
    family of a graph."""
    members: list[Graph] = []
    for tok in _split_top_level(expr):
        if not tok:
            raise ValueError(f"empty graph token in family {expr!r}")
        m = re.fullmatch(r"fp\((.+),(\d+)\)", tok)
        if m:
            members.extend(family_fp(parse_graph(m.group(1)), int(m.group(2))))
        else:
            members.append(parse_graph(tok))
    return GraphFamily(members, label=label if label is not None else expr)


def parse_range(text: str) -> list[int]:
    """'a..b' (inclusive) or a single integer."""
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text.strip())
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _envelope(command: str, payload: dict, elapsed: float) -> dict:
    return {
        "schema": 1,
        "command": command,
        "payload": payload,
        "elapsed_sec": round(elapsed, 6),
    }


def _write_json(outdir: Path, name: str, envelope: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{name}.json").write_text(
        json.dumps(envelope, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _write_csv(outdir: Path, name: str, report: TheoremReport) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(report.csv_rows())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ex(args: argparse.Namespace) -> int:
    members = []
    labels = []
    for expr in (args.forbid, args.forbid_family):
        if expr:
            members.extend(parse_family(expr))
            labels.append(expr)
    if args.forbid_file:
        members.extend(read_graph6_lines(Path(args.forbid_file).read_text().splitlines()))
        labels.append(f"file:{args.forbid_file}")
    family = GraphFamily(members, label="|".join(labels))
    result = ex_general(
        args.n, args.r, family, ceiling=args.ceiling, workers=args.workers
    )
    print(f"ex({args.n}, K_{args.r}, {family.label or 'empty family'}) = {result.value}")
    for w in result.witnesses:
        print(w)
    if args.out:
        _write_json(
            Path(args.out), "ex", _envelope("ex", result.to_payload(), result.elapsed)
        )
    return 0


def cmd_family(args: argparse.Namespace) -> int:
    graph = parse_graph(args.graph)
    t0 = time.perf_counter()
    report = covering_report(graph, args.p, label=f"fp({args.graph},{args.p})")
    elapsed = time.perf_counter() - t0
    print(f"fp({args.graph},{args.p}): {len(report.family)} member(s)"
          f"{' [fallback]' if report.fallback_used else ''}")
    for m in report.family:
        print(to_graph6(m))
    if args.out:
        outdir = Path(args.out)
        _write_json(outdir, "family", _envelope("family", report.to_payload(), elapsed))
        (outdir / "family.g6").write_text(
            "\n".join(report.family.to_lines()) + "\n", encoding="utf-8"
        )
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    # the subparser dests are named after ConstructionSpec fields
    fields = {k: v for k, v in vars(args).items() if k in ConstructionSpec._fields}
    if fields.get("objective") == "kr":
        fields["objective"] = "kr_count"
    if args.construction == "gns":
        fam = parse_family(args.forbid)
    elif args.construction == "forest-extremal":
        fam = family_fp(parse_graph(args.forbidden), args.p - 1)
    else:
        fam = GraphFamily()
    spec = ConstructionSpec(
        kind=args.construction.replace("-", "_"),
        family_graph6=tuple(to_graph6(m) for m in fam),
        family_label=fam.label,
        **fields,
    )
    t0 = time.perf_counter()
    graph, details = realize(
        spec, ceiling=getattr(args, "ceiling", None), workers=getattr(args, "workers", 1)
    )
    elapsed = time.perf_counter() - t0
    print(to_graph6(graph))
    if "value" in details:
        print(f"value = {details['value']}")
    if args.out:
        payload = {"spec": spec.to_payload(), "graph": to_graph6(graph), **details}
        _write_json(Path(args.out), "construct", _envelope("construct", payload, elapsed))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    theorem = THEOREMS[args.theorem]
    values = []
    kwargs = {"ceiling": args.ceiling, "workers": args.workers}
    for _option, dest, kind in theorem.flags:
        value = getattr(args, dest)
        if kind == RANGE:
            value = parse_range(value)
        elif kind == GRAPH:
            kwargs["f_name"] = value
            value = parse_graph(value)
        values.append(value)
    # looked up at call time, so that a wrapper installed on the module
    # attribute after import sees every run
    run = getattr(verifier, theorem.function)
    report = run(*theorem.expand(*values), **kwargs)
    if not report.points:
        raise ValueError(f"the {args.theorem} grid has no points")
    for p in report.points:
        params = ",".join(
            f"{k}={v}" for k, v in p.items()
            if isinstance(v, (int, str)) and k not in ("verdict", "uniqueness", "notes")
        )
        line = f"[{report.theorem}] {params}: {p.get('verdict', '?')}"
        if "uniqueness" in p:
            line += f" (uniqueness: {p['uniqueness']})"
        print(line)
    print(f"[{report.theorem}] summary: {json.dumps(report.summary, sort_keys=True)}")
    if args.out:
        outdir = Path(args.out)
        payload = {"reports": [report.to_payload()]}
        if args.format in ("json", "both"):
            _write_json(outdir, args.theorem, _envelope("verify", payload, report.elapsed))
        if args.format in ("csv", "both"):
            _write_csv(outdir, args.theorem, report)
    if not report.passed:
        failure = {
            "theorem": report.theorem,
            "points": report.failures(),
            "status": report.summary.get("status"),
        }
        print(json.dumps({"failures": [failure]}, sort_keys=True))
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, enumerates: bool = True) -> None:
    if enumerates:
        p.add_argument("--ceiling", type=int, default=None,
                       help=f"enumeration ceiling (<= {HARD_CEILING}; default: adaptive)")
        p.add_argument("--workers", type=int, default=1, help="worker processes")
    p.add_argument("--out", default=None, help="directory for report files")


_FLAG_HELP = {RANGE: "range, e.g. 5..9", INT: None, GRAPH: "graph token, e.g. K4"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchturan",
        description="Exact generalized Turán numbers under a matching constraint",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ex = sub.add_parser("ex", help="exact ex(n, K_r, family) with witnesses")
    p_ex.add_argument("--n", type=int, required=True)
    p_ex.add_argument("--r", type=int, default=2)
    p_ex.add_argument("--forbid", default="", help="comma-separated graph tokens")
    p_ex.add_argument("--forbid-family", default="", help="family expression, e.g. fp(C5,2)")
    p_ex.add_argument("--forbid-file", default="", help="graph6 corpus file of forbidden graphs")
    _add_common(p_ex)
    p_ex.set_defaults(func=cmd_ex)

    p_fam = sub.add_parser("family", help="cover family of a graph")
    p_fam.add_argument("--graph", required=True)
    p_fam.add_argument("--p", type=int, required=True)
    _add_common(p_fam, enumerates=False)
    p_fam.set_defaults(func=cmd_family)

    p_con = sub.add_parser("construct", help="candidate extremal constructions")
    con_sub = p_con.add_subparsers(dest="construction", required=True)
    c_gns = con_sub.add_parser("gns", help="split construction with optimal filling")
    c_gns.add_argument("--n", type=int, required=True)
    c_gns.add_argument("--s", type=int, required=True)
    c_gns.add_argument("--forbid", required=True)
    c_gns.add_argument("--objective", choices=("edges", "kr"), default="edges")
    c_gns.add_argument("--r", type=int, default=None)
    _add_common(c_gns)
    c_gns.set_defaults(func=cmd_construct)
    c_clq = con_sub.add_parser("clique", help="odd clique on 2s+1 vertices")
    c_clq.add_argument("--s", type=int, required=True)
    _add_common(c_clq, enumerates=False)
    c_clq.set_defaults(func=cmd_construct)
    c_for = con_sub.add_parser("forest-extremal", help="split construction plus odd cliques")
    c_for.add_argument("--n", type=int, required=True)
    c_for.add_argument("--p", type=int, required=True)
    c_for.add_argument("--t", type=int, required=True)
    c_for.add_argument("--F", dest="forbidden", required=True,
                       help="forest whose cover family fills the construction")
    _add_common(c_for)
    c_for.set_defaults(func=cmd_construct)
    c_tur = con_sub.add_parser("turan", help="balanced complete multipartite graph")
    c_tur.add_argument("--p", type=int, required=True)
    c_tur.add_argument("--k", dest="parts", metavar="K", type=int, required=True,
                       help="number of parts")
    _add_common(c_tur, enumerates=False)
    c_tur.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="theorem verification grids")
    ver_sub = p_ver.add_subparsers(dest="theorem", required=True)

    for theorem in THEOREMS.values():
        v = ver_sub.add_parser(theorem.command, help=theorem.help)
        for option, dest, kind in theorem.flags:
            v.add_argument(option, dest=dest, required=True,
                           type=int if kind == INT else str, help=_FLAG_HELP[kind])
        _add_common(v)
        v.add_argument("--format", choices=("json", "csv", "both"), default="both",
                       help="report formats to write (with --out)")
        v.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "ceiling", None) is not None:
            validate_ceiling(args.ceiling, "--ceiling")
        if hasattr(args, "workers"):
            validate_workers(args.workers, "--workers")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
