"""Replay of each closed-form theorem at desk scale.

Every operation compares a brute-force side (solver enumeration only)
against a formula side (constructions / covering modules only) point by
point, so agreement is evidence rather than tautology.  Hypothesis gates
(minimum independent-cover size, profile argmax, color-criticality,
balanced-forest shape) are computed, never assumed.

Asymptotic statements get a small-n policy: if every point from some n0
onward passes, earlier failing points are verdicted "small-n-exception"
rather than "fail", and the report records n0.

One theorem table, `THEOREMS` (see `Theorem`), drives both the replays and
the `matchturan verify` subcommands; one runner, `_run`, times every replay,
short-circuits an unmet or degenerate gate, runs the theorem's finish (the
small-n policy, for instance) and summarizes.
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .constructions import build_forest_extremal, build_g_n_s
from .containment import GraphFamily
from .covering import covering_report, family_fp, is_color_critical, p_of_f
from .graphs import (
    Graph,
    canonical_form,
    complete,
    cycle,
    disjoint_union,
    empty,
    matching,
    to_graph6,
    turan_graph,
)
from .invariants import (
    chromatic_number,
    connected_components,
    count_cliques,
    matching_number,
    tutte_berge_certificate,
)
from .solver import CeilingError, ExResult, enumerate_free, ex_general, ex_profile

CSV_COLUMNS = (
    "theorem",
    "params",
    "brute",
    "formula",
    "verdict",
    "uniqueness",
    "witnesses",
    "notes",
)

PASS = "pass"
FAIL = "fail"
SMALL_N = "small-n-exception"
HYPOTHESIS_UNMET = "hypothesis-unmet"
DEGENERATE = "degenerate-input"


class TheoremReport(NamedTuple):
    """Per-parameter-point comparison of brute force against a closed form."""

    theorem: str
    points: list[dict]
    summary: dict
    elapsed: float = 0.0
    params: tuple[str, ...] = ()  # the point keys that are parameters

    @property
    def passed(self) -> bool:
        return self.summary.get("status") == PASS

    def failures(self) -> list[dict]:
        return [p for p in self.points if _point_is(p, FAIL)]

    def to_payload(self) -> dict:
        return {
            "schema": 1,
            "theorem": self.theorem,
            "points": self.points,
            "summary": self.summary,
        }

    def csv_rows(self) -> list[list[str]]:
        rows = []
        for p in self.points:
            params = ",".join(f"{k}={p[k]}" for k in sorted(self.params))
            rows.append(
                [
                    self.theorem,
                    params,
                    str(p.get("brute", "")),
                    str(p.get("formula", "")),
                    str(p.get("verdict", "")),
                    str(p.get("uniqueness", "")),
                    ";".join(p.get("witnesses", [])),
                    str(p.get("notes", "")),
                ]
            )
        return rows


def _point_is(p: dict, status: str) -> bool:
    """A point has a status when its verdict or its uniqueness has it."""
    return status in (p.get("verdict"), p.get("uniqueness"))


def _summary(points: list[dict], extra: dict) -> dict:
    """The verdict policy: a report fails when any point fails (see
    _point_is), unless `extra` sets its own "status"."""
    failed = sum(_point_is(p, FAIL) for p in points)
    out = {
        "status": FAIL if failed else PASS,
        "points": len(points),
        "failed": failed,
        "exceptions": sum(_point_is(p, SMALL_N) for p in points),
    }
    out.update(extra)
    return out


def _suffix_start(points: list[dict], qualifies: Callable[[dict], bool]) -> int:
    """Index where the longest run of qualifying points at the end of the
    grid starts (len(points) when the last point does not qualify)."""
    i = len(points)
    while i > 0 and qualifies(points[i - 1]):
        i -= 1
    return i


def _small_n_finish(ctx: SimpleNamespace, points: list[dict]) -> dict:
    """The small-n policy, as a theorem's `finish`: relabel failing points
    below the first fully-passing suffix as small-n exceptions, and record
    the suffix start; the report fails when no suffix passes.  Points must
    be ordered by increasing n."""
    start = _suffix_start(
        points, lambda p: p.get("verdict") == PASS and p.get("uniqueness", PASS) == PASS
    )
    if start == len(points):
        return {"first_fully_passing_n": None, "status": FAIL}
    first = points[start]["n"]
    for p in points:
        if p["n"] < first:
            for key in ("verdict", "uniqueness"):
                if p.get(key) == FAIL:
                    p[key] = SMALL_N
    return {"first_fully_passing_n": first}


def _witness_set(graphs: list[Graph]) -> list[str]:
    return sorted({to_graph6(canonical_form(g).graph) for g in graphs})


def _compare(
    point: dict, brute: ExResult, formula: int, predicted: list | None = None, **shown
) -> None:
    """Score one point: brute against formula (the verdict), with `shown`
    recorded between them and the verdict; given the `predicted` witness
    set, brute's extremal graphs against it as well (the uniqueness)."""
    witnesses = list(brute.witnesses)
    verdict = PASS if brute.value == formula else FAIL
    point.update(brute=brute.value, formula=formula, **shown, verdict=verdict, witnesses=witnesses)
    if predicted is not None:
        uniqueness = PASS if witnesses == predicted else FAIL
        point.update(predicted_witnesses=predicted, uniqueness=uniqueness)


def _finite(x: int | float) -> int | str:
    return x if x != float("inf") else "inf"


# ---------------------------------------------------------------------------
# the theorem table and its runner
# ---------------------------------------------------------------------------

# kinds of `verify` flag: an inclusive range "a..b" (or one integer), an
# integer, or a graph token (whose text also names F in the report)
RANGE, INT, GRAPH = "range", "int", "graph"
F_FLAG = ("--F", "forbidden", GRAPH)


class Theorem(NamedTuple):
    """One entry of the theorem table: the `verify` subcommand and its
    flags, how flag values expand into the `verify_*` call, the point keys
    that are parameters, and the theorem's own pieces.

    A point starts as a grid row's leading values under the keys in
    `params`; `score(ctx, point, *row)` adds both sides and the verdict
    (a row may carry values beyond the parameters).  `ctx` holds
    the arguments of the `verify_*` call plus `opts` (ceiling and workers).
    `gate(ctx)`, when given, computes the hypothesis and the values every
    point shares (stored on `ctx`); it returns the gate status (None when
    met) and summary fields.  `finish(ctx, points)` may relabel verdicts and
    returns further summary fields.  A "status" among the summary fields
    overrides the status the verdicts give."""

    command: str  # `matchturan verify <command>`
    name: str  # the report's theorem name
    function: str  # the public verify_* function
    params: tuple[str, ...]
    score: Callable[..., None]
    flags: tuple[tuple[str, str, str], ...] = ()  # (option, dest, kind)
    # flag values, in flag order -> positional arguments of `function`
    expand: Callable[..., tuple] = lambda *values: values
    gate: Callable[[SimpleNamespace], tuple[str | None, dict]] | None = None
    finish: Callable[[SimpleNamespace, list[dict]], dict] | None = None
    help: str = ""


def _run(
    command: str, rows: list[tuple], *, ceiling: int | None, workers: int, **ctx
) -> TheoremReport:
    """Score `rows` (in the order given) under `command`'s theorem."""
    theorem = THEOREMS[command]
    t0 = time.perf_counter()
    ctx = SimpleNamespace(opts={"ceiling": ceiling, "workers": workers}, **ctx)
    points = [dict(zip(theorem.params, row)) for row in rows]
    status, extra = theorem.gate(ctx) if theorem.gate else (None, {})
    if status is not None:
        for point in points:
            point["verdict"] = status
        extra = {"status": status, **extra}
    else:
        for point, row in zip(points, rows):
            theorem.score(ctx, point, *row)
        if theorem.finish:
            extra.update(theorem.finish(ctx, points))
    summary = _summary(points, extra)
    return TheoremReport(theorem.name, points, summary, time.perf_counter() - t0, theorem.params)


# ---------------------------------------------------------------------------
# classical matching-only bound
# ---------------------------------------------------------------------------


def _erdos_gallai_point(ctx: SimpleNamespace, point: dict, n: int, s: int) -> None:
    if n < 2 * s + 1:
        raise ValueError(f"need n >= 2s+1, got n={n}, s={s}")
    fam = GraphFamily([matching(s + 1)])
    brute = ex_general(n, 2, fam, **ctx.opts)
    clique = complete(2 * s + 1)
    split = build_g_n_s(n, s, GraphFamily([complete(s + 1)]), "edges", **ctx.opts)
    _compare(
        point,
        brute,
        max(clique.edge_count(), split.value),
        clique_candidate_value=clique.edge_count(),
        split_candidate_value=split.value,
    )


def verify_erdos_gallai(
    pairs: list[tuple[int, int]], *, ceiling: int | None = None, workers: int = 1
) -> TheoremReport:
    """Max edges under a matching bound: brute force against the better of
    the odd clique and the split construction, exactly, per (n, s)."""
    return _run("erdos-gallai", pairs, ceiling=ceiling, workers=workers)


# ---------------------------------------------------------------------------
# matching bound plus a forbidden clique (generalized counting)
# ---------------------------------------------------------------------------


def _ma_hou_point(ctx: SimpleNamespace, point: dict, n: int, s: int, r: int, k: int) -> None:
    if n < 2 * s + 1:
        raise ValueError(f"need n >= 2s+1, got n={n}, s={s}")
    if not 2 <= r <= k:
        raise ValueError(f"need k >= r >= 2, got r={r}, k={k}")
    fam = GraphFamily([matching(s + 1), complete(k + 1)])
    brute = ex_general(n, r, fam, **ctx.opts)
    clique_cand = turan_graph(2 * s + 1, min(k, 2 * s + 1))
    clique_val = count_cliques(clique_cand, r)
    split = build_g_n_s(n, s, GraphFamily([complete(k)]), "kr_count", r, **ctx.opts)
    note = ""
    if k < 2 * s + 1:
        note = f"odd clique K_{2 * s + 1} contains K_{k + 1}; clique candidate is T_{k}({2 * s + 1})"
    _compare(
        point,
        brute,
        max(clique_val, split.value),
        clique_candidate=to_graph6(canonical_form(clique_cand).graph),
        clique_candidate_value=clique_val,
        split_candidate_value=split.value,
    )
    point["notes"] = note


def verify_ma_hou(
    quads: list[tuple[int, int, int, int]],
    *,
    ceiling: int | None = None,
    workers: int = 1,
) -> TheoremReport:
    """Max K_r count under a matching bound and a forbidden K_{k+1}.

    The clique-type candidate is the k-partite Turan graph on 2s+1 vertices:
    it equals K_{2s+1} exactly when k >= 2s+1; for smaller k the plain odd
    clique would itself contain K_{k+1} and is inadmissible, so comparing
    against it would overshoot (see the per-point note)."""
    return _run("ma-hou", quads, ceiling=ceiling, workers=workers)


# ---------------------------------------------------------------------------
# the exact split formula with uniqueness
# ---------------------------------------------------------------------------


def _main_gate(ctx: SimpleNamespace) -> tuple[str | None, dict]:
    pf = p_of_f(ctx.f)
    profile = ex_profile(ctx.f, ctx.r, ctx.s, **ctx.opts)
    gate = {
        "p_of_f": _finite(pf),
        "profile": [list(pt) for pt in profile.points],
        "t": profile.t,
    }
    if not (pf >= ctx.s + 1 and profile.t == ctx.s):
        return HYPOTHESIS_UNMET, {"gate": gate}
    ctx.fam = family_fp(ctx.f, ctx.s)
    # the profile's last point is p = s, so it already holds ex(s, K_{r-1}, fam)
    ctx.ex_lower = profile.points[-1][1]
    ctx.ex_inner = ex_general(ctx.s, ctx.r, ctx.fam, **ctx.opts).value
    return None, {"gate": gate, "ex_slope": ctx.ex_lower, "ex_constant": ctx.ex_inner}


def _main_point(ctx: SimpleNamespace, point: dict, f_name: str, n: int, s: int, r: int) -> None:
    forb = GraphFamily([matching(s + 1), ctx.f])
    brute = ex_general(n, r, forb, **ctx.opts)
    formula = ctx.ex_lower * (n - s) + ctx.ex_inner
    build = build_g_n_s(n, s, ctx.fam, "kr_count", r, **ctx.opts)
    predicted = _witness_set(build.witness_graphs())
    gap = build.value != formula
    _compare(
        point, brute, formula, predicted, construction_value=build.value, construction_gap=gap
    )
    if gap:
        point["notes"] = "no single filling attains both profile maxima"


def verify_main_theorem_exact(
    f: Graph,
    s: int,
    r: int,
    n_range: list[int],
    *,
    f_name: str = "F",
    ceiling: int | None = None,
    workers: int = 1,
) -> TheoremReport:
    """Checks ex(n, K_r, {M_{s+1}, F}) == ex(s, K_{r-1}, fam)·(n-s)
    + ex(s, K_r, fam) where fam is the cover family of F at s, and that the
    split construction is the unique extremal graph.

    The hypothesis (independent-cover size > s, profile argmax at s) is
    computed first; when unmet every point is skipped with verdict
    hypothesis-unmet."""
    rows = [(f_name, n, s, r) for n in sorted(n_range)]
    return _run("main", rows, f=f, s=s, r=r, ceiling=ceiling, workers=workers)


# ---------------------------------------------------------------------------
# slope of the bipartite case
# ---------------------------------------------------------------------------


def _gerbner_gate(ctx: SimpleNamespace) -> tuple[str | None, dict]:
    ctx.pf = p_of_f(ctx.f)
    summary = {"p_of_f": _finite(ctx.pf)}
    if ctx.f.edge_count() <= 1:
        return DEGENERATE, summary
    if ctx.pf > ctx.s:  # also when F is not bipartite (p = inf)
        return HYPOTHESIS_UNMET, summary
    return None, summary


def _gerbner_point(ctx: SimpleNamespace, point: dict, f_name: str, n: int, s: int) -> None:
    forb = GraphFamily([matching(s + 1), ctx.f])
    brute = ex_general(n, 2, forb, **ctx.opts)
    point.update(
        brute=brute.value,
        formula=f"{ctx.pf - 1}*n+C",
        difference=brute.value - (ctx.pf - 1) * n,
        witnesses=list(brute.witnesses),
    )


def _gerbner_finish(ctx: SimpleNamespace, points: list[dict]) -> dict:
    # the report passes only when the difference is constant over the whole
    # range; the longest constant suffix is recorded either way
    diffs = [p["difference"] for p in points]
    start = _suffix_start(points, lambda p: p["difference"] == diffs[-1])
    for i, p in enumerate(points):
        p["verdict"] = PASS if i >= start else FAIL
    return {
        "differences": diffs,
        "constant": start == 0,
        "constant_from_n": points[start]["n"] if points else None,
    }


def verify_gerbner_slope(
    f: Graph,
    s: int,
    n_range: list[int],
    *,
    f_name: str = "F",
    ceiling: int | None = None,
    workers: int = 1,
) -> TheoremReport:
    """For bipartite F with independent-cover size p <= s, checks that
    brute ex(n, {M_{s+1}, F}) - (p-1)·n is constant across the tested range
    (the additive term of the asymptotic statement, observed not proven);
    the longest constant suffix is recorded either way."""
    rows = [(f_name, n, s) for n in sorted(n_range)]
    return _run("gerbner", rows, f=f, s=s, ceiling=ceiling, workers=workers)


# ---------------------------------------------------------------------------
# balanced forests
# ---------------------------------------------------------------------------


def _forest_gate(ctx: SimpleNamespace) -> tuple[str | None, dict]:
    f, s = ctx.f, ctx.s
    edges = f.edge_count()
    ncomps = len(connected_components(f))
    # a forest whose components have colour classes of equal size
    balanced = edges > 0 and edges == f.n - ncomps and 2 * p_of_f(f) == f.n
    p = ctx.p = f.n // 2
    if not balanced or p > s:
        return HYPOTHESIS_UNMET, {"balanced_forest": balanced}
    ctx.fam = family_fp(f, p - 1)
    ctx.ex_fill = ex_general(p - 1, 2, ctx.fam, **ctx.opts).value
    has_pm = matching_number(f) == p
    expected_fill = (p - 1) * (p - 2) // 2 if has_pm else 0
    ctx.t_max = (s - p + 1) // (p - 1) if ncomps == 1 and p >= 2 else 0
    summary = {
        "p": p,
        "components": ncomps,
        "has_perfect_matching": has_pm,
        "filling_value": ctx.ex_fill,
        "filling_expected": expected_fill,
        "remark_verdict": PASS if ctx.ex_fill == expected_fill else FAIL,
    }
    if ctx.ex_fill != expected_fill:
        summary["status"] = FAIL
    return None, summary


def _forest_point(ctx: SimpleNamespace, point: dict, f_name: str, n: int, s: int) -> None:
    p = ctx.p
    forb = GraphFamily([ctx.f, matching(s + 1)])
    brute = ex_general(n, 2, forb, **ctx.opts)
    formula = (p - 1) * (n - p + 1) + ctx.ex_fill
    predicted = _witness_set(
        [
            build_forest_extremal(n, p, t, ctx.fam, **ctx.opts)
            for t in range(ctx.t_max + 1)
            if n - t * (2 * p - 1) >= p - 1
        ]
    )
    _compare(point, brute, formula, predicted)


def verify_forest_theorem(
    f: Graph,
    s: int,
    n_range: list[int],
    *,
    f_name: str = "F",
    ceiling: int | None = None,
    workers: int = 1,
) -> TheoremReport:
    """Checks ex(n, {F, M_{s+1}}) == (p-1)(n-p+1) + ex(p-1, fam) for a
    balanced forest F on 2p vertices (p <= s), the perfect-matching identity
    for the additive term, and the predicted extremal set (split construction
    plus, when F is a tree, disjoint odd cliques)."""
    rows = [(f_name, n, s) for n in sorted(n_range)]
    return _run("forest", rows, f=f, s=s, ceiling=ceiling, workers=workers)


# ---------------------------------------------------------------------------
# matching duality
# ---------------------------------------------------------------------------


def _tutte_berge_point(ctx: SimpleNamespace, point: dict, n: int) -> None:
    graphs = list(enumerate_free(n, GraphFamily(), **ctx.opts))
    mismatches = [
        to_graph6(g) for g in graphs if tutte_berge_certificate(g).value != matching_number(g)
    ]
    point.update(
        classes=len(graphs),
        mismatches=len(mismatches),
        verdict=PASS if not mismatches else FAIL,
        witnesses=mismatches,
    )


def verify_tutte_berge(
    n_max: int, *, ceiling: int | None = None, workers: int = 1
) -> TheoremReport:
    """For every isomorphism class on up to n_max vertices, the certificate
    value, counted from its set B and the components of G - B, equals the
    matching number: any B bounds the matching number from above, so
    equality proves both sides."""
    if n_max > 7:
        raise CeilingError(f"certificate sweep capped at n=7, got {n_max}")
    rows = [(n,) for n in range(1, n_max + 1)]
    return _run("tutte-berge", rows, ceiling=ceiling, workers=workers)


# ---------------------------------------------------------------------------
# color-critical component identities
# ---------------------------------------------------------------------------


def _color_critical_gate(ctx: SimpleNamespace) -> tuple[str | None, dict]:
    chi = chromatic_number(ctx.f)
    ctx.k = chi - 1
    critical = is_color_critical(ctx.f)
    if not critical or chi < max(ctx.r + 1, 4):
        return HYPOTHESIS_UNMET, {"chi": chi, "color_critical": critical}
    return None, {"chi": chi, "k": ctx.k}


def _color_critical_point(ctx: SimpleNamespace, point: dict, f_name: str, p: int, r: int) -> None:
    k = ctx.k
    rep = covering_report(ctx.f, p)
    fam = rep.family
    chi_min = min(chromatic_number(m) for m in fam)
    chi_ok = chi_min >= k
    exval = ex_general(p, r - 1, fam, **ctx.opts).value
    tval = count_cliques(turan_graph(p, min(k - 1, p)), r - 1)
    point.update(
        family=[to_graph6(m) for m in fam],
        family_chromatic_min=chi_min,
        chromatic_ok=chi_ok,
        fallback=rep.fallback_used,
        brute=exval,
        formula=tval,
        verdict=PASS if exval == tval and chi_ok else FAIL,
    )
    if rep.fallback_used:
        point["notes"] = "no covering at this bound; family is the fallback clique"


def verify_color_critical_components(
    f: Graph,
    r: int,
    p_range: list[int],
    *,
    f_name: str = "F",
    ceiling: int | None = None,
    workers: int = 1,
) -> TheoremReport:
    """Component-level checks for color-critical F with chi(F) = k+1 >=
    max(r+1, 4): every cover-family member has chromatic number >= k, and
    ex(p, K_{r-1}, family) equals the K_{r-1} count of the (k-1)-partite
    Turán graph on p vertices.  The full asymptotic statement needs
    constants far beyond desk scale and is out of scope."""
    rows = [(f_name, p, r) for p in sorted(p_range)]
    return _run("color-critical", rows, f=f, r=r, ceiling=ceiling, workers=workers)


# ---------------------------------------------------------------------------
# cover-family identities at tiny scale (worked examples)
# ---------------------------------------------------------------------------


def _pentagon_point(ctx: SimpleNamespace, point: dict, p: int, formula: str | int) -> None:
    # a string formula describes the cover family, an integer one is the
    # profile value ex(p, K_2, family)
    fam = family_fp(cycle(5), p)
    if isinstance(formula, int):
        val = ex_general(p, 2, fam, **ctx.opts).value
        point.update(brute=val, formula=formula, verdict=PASS if val == formula else FAIL)
        return
    if p == 2:
        ok = list(fam) == [canonical_form(complete(3)).graph]
    else:
        ok = disjoint_union(complete(2), empty(1)) in fam
    point.update(
        family=[to_graph6(m) for m in fam], formula=formula, verdict=PASS if ok else FAIL
    )


def verify_cover_family_example(*, ceiling: int | None = None, workers: int = 1) -> TheoremReport:
    """The pentagon worked example: no 2-cover (fallback to the triangle),
    the one-edge-plus-isolated-vertex member from p = 3 on, and the
    resulting non-monotone profile ex(2)=1 but ex(p)=0 for p >= 3."""
    rows = [(2, "{K3}, fallback")] + [(p, "contains K2+K1") for p in (3, 4, 5)]
    rows += [(2, 1), (3, 0), (4, 0)]
    return _run("pentagon", rows, ceiling=ceiling, workers=workers)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

THEOREMS = {
    t.command: t
    for t in (
        Theorem(
            "erdos-gallai", "erdos-gallai", "verify_erdos_gallai", ("n", "s"),
            _erdos_gallai_point,
            flags=(("--n", "n", RANGE), ("--s", "s", RANGE)),
            expand=lambda n, s: ([(a, b) for b in s for a in n if a >= 2 * b + 1],),
        ),
        Theorem(
            "ma-hou", "ma-hou", "verify_ma_hou", ("n", "s", "r", "k"), _ma_hou_point,
            flags=(("--n", "n", RANGE), ("--s", "s", RANGE), ("--r", "r", RANGE),
                   ("--k", "k", RANGE)),
            expand=lambda n, s, r, k: ([
                (a, b, c, d) for b in s for c in r for d in k for a in n
                if a >= 2 * b + 1 and 2 <= c <= d
            ],),
        ),
        Theorem(
            "main", "main-exact", "verify_main_theorem_exact", ("F", "n", "s", "r"),
            _main_point,
            flags=(F_FLAG, ("--s", "s", INT), ("--r", "r", INT), ("--n", "n", RANGE)),
            gate=_main_gate,
            finish=_small_n_finish,
        ),
        Theorem(
            "gerbner", "gerbner-slope", "verify_gerbner_slope", ("F", "n", "s"),
            _gerbner_point,
            flags=(F_FLAG, ("--s", "s", INT), ("--n", "n", RANGE)),
            gate=_gerbner_gate,
            finish=_gerbner_finish,
        ),
        Theorem(
            "forest", "balanced-forest", "verify_forest_theorem", ("F", "n", "s"),
            _forest_point,
            flags=(F_FLAG, ("--s", "s", INT), ("--n", "n", RANGE)),
            gate=_forest_gate,
            finish=_small_n_finish,
        ),
        Theorem(
            "tutte-berge", "tutte-berge", "verify_tutte_berge", ("n",), _tutte_berge_point,
            flags=(("--n", "n", RANGE),),
            expand=lambda n: (max(n),),
        ),
        Theorem(
            "color-critical", "color-critical-components",
            "verify_color_critical_components", ("F", "p", "r"), _color_critical_point,
            flags=(F_FLAG, ("--r", "r", INT), ("--p", "p", RANGE)),
            gate=_color_critical_gate,
        ),
        Theorem(
            "pentagon", "pentagon-cover-family", "verify_cover_family_example", ("p",),
            _pentagon_point,
            help="pentagon cover-family worked example",
        ),
    )
}
