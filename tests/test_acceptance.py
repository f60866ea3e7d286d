"""Acceptance suite: the closed-form results the package must reproduce
exactly at desk scale, plus the determinism and self-consistency properties
of the enumeration engine.  One PASS/FAIL line prints per criterion (run
with -s to see them live); every comparison is exact equality unless a
criterion states otherwise."""

import json
import random
import time
from itertools import combinations, permutations
from math import factorial

import numpy as np

from matchturan.constructions import build_g_n_s
from matchturan.containment import GraphFamily
from matchturan.covering import covering_report, family_fp, p_of_f
from matchturan.graphs import (
    Graph,
    canonical_form,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    from_graph6,
    matching,
    path,
    star,
    to_graph6,
    turan_graph,
)
from matchturan.invariants import matching_number
from matchturan.solver import enumerate_free, ex_general
from matchturan.verifier import (
    verify_color_critical_components,
    verify_cover_family_example,
    verify_erdos_gallai,
    verify_forest_theorem,
    verify_gerbner_slope,
    verify_ma_hou,
    verify_main_theorem_exact,
    verify_tutte_berge,
)

WORKERS = 2


def _check(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_pentagon_cover_family():
    t0 = time.perf_counter()
    rep2 = covering_report(cycle(5), 2)
    fallback_ok = rep2.fallback_used and [
        canonical_form(m).key() for m in rep2.family
    ] == [canonical_form(complete(3)).key()]
    k2_k1 = disjoint_union(complete(2), empty(1))
    member_ok = all(k2_k1 in family_fp(cycle(5), p) for p in (3, 4, 5))
    ex2 = ex_general(2, 2, rep2.family).value
    ex34 = [ex_general(p, 2, family_fp(cycle(5), p)).value for p in (3, 4)]
    report = verify_cover_family_example()
    elapsed = time.perf_counter() - t0
    ok = (
        fallback_ok
        and member_ok
        and ex2 == 1
        and ex34 == [0, 0]
        and report.passed
        and elapsed < 1.0
    )
    _check(
        "1 (pentagon cover family, < 1s)",
        ok,
        f"fallback={rep2.fallback_used} ex2={ex2} ex34={ex34} elapsed={elapsed:.2f}s",
    )


def test_criterion_02_matching_bound_exact():
    t0 = time.perf_counter()
    pairs = [(n, s) for s in (1, 2, 3) for n in range(2 * s + 1, 10)]
    report = verify_erdos_gallai(pairs, workers=WORKERS)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 600
    _check(
        "2 (matching-only bound, exact on the full grid)",
        ok,
        f"summary={report.summary} elapsed={elapsed:.0f}s",
    )


def test_criterion_03_matching_plus_clique_exact():
    quads = [
        (n, s, r, k)
        for s in (1, 2)
        for r in (2, 3)
        for k in (2, 3)
        if r <= k
        for n in range(2 * s + 1, 9)
    ]
    report = verify_ma_hou(quads, workers=WORKERS)
    _check(
        "3 (matching plus forbidden clique, exact on the full grid)",
        report.passed,
        f"summary={report.summary}",
    )


def test_criterion_04_main_exact_form_and_uniqueness():
    cases = [
        (complete(3), 2, 2, "K3"),
        (complete(4), 2, 2, "K4"),
        (complete(4), 2, 3, "K4"),
        (cycle(5), 2, 2, "C5"),
    ]
    details = []
    ok = True
    for f, s, r, name in cases:
        n_range = list(range(max(2 * s + 2, 6), 10))
        report = verify_main_theorem_exact(
            f, s, r, n_range, f_name=name, ceiling=10, workers=WORKERS
        )
        gate = report.summary.get("gate", {})
        top = report.points[-1]
        case_ok = (
            report.passed
            and gate.get("t") == s
            and report.summary.get("first_fully_passing_n") is not None
            and top["verdict"] == "pass"
            and top["uniqueness"] == "pass"
            and all(p["verdict"] in ("pass", "small-n-exception") for p in report.points)
        )
        ok = ok and case_ok
        details.append(
            f"{name},s={s},r={r}: status={report.summary['status']} "
            f"first_n={report.summary.get('first_fully_passing_n')} "
            f"exceptions={report.summary.get('exceptions')}"
        )
    _check("4 (exact split formula with unique witness)", ok, "; ".join(details))


def test_criterion_05_bipartite_slope_constant():
    # The additive term of ex(n, {M4, P4}) - n is NOT constant on 7..9:
    # three disjoint triangles fit exactly at n = 9 (value 9 = 0 mod n)
    # while 7 and 8 sit one below.  The check is stated as constancy across
    # the range, so it is reported honestly as a failure.
    report = verify_gerbner_slope(path(4), 3, [7, 8, 9], f_name="P4", workers=WORKERS)
    _check(
        "5 (bipartite slope: difference constant across 7..9)",
        report.passed,
        f"differences={report.summary.get('differences')} "
        f"constant_from_n={report.summary.get('constant_from_n')}",
    )


def test_criterion_06_balanced_forest_exact():
    report = verify_forest_theorem(
        path(6), 3, [8, 9], f_name="P6", ceiling=9, workers=WORKERS
    )
    values_ok = report.passed and all(
        p["brute"] == 2 * (p["n"] - 2) + 1 and p["verdict"] == "pass"
        for p in report.points
    )
    remark_ok = report.summary["remark_verdict"] == "pass"

    # additive-term identity for perfect-matching forests: C(p-1, 2)
    fills = {}
    for name, f in (("P6", path(6)), ("P4", path(4)), ("M2", matching(2))):
        p = f.n // 2
        assert matching_number(f) == p  # perfect matching, gate-checked
        fills[name] = ex_general(p - 1, 2, family_fp(f, p - 1)).value
    pm_ok = fills == {"P6": 1, "P4": 0, "M2": 0}

    # a balanced tree without a perfect matching: double star with two legs
    # per centre; its additive term is 0
    dstar = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert dstar.edge_count() == dstar.n - 1  # tree
    side = [0] * 6
    for u, v in ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5)):
        side[v] = side[u] ^ 1
    assert sum(side) == 3  # balanced bipartition, gate-checked
    assert matching_number(dstar) == 2 < 3  # no perfect matching
    no_pm_ok = ex_general(2, 2, family_fp(dstar, 2)).value == 0

    ok = values_ok and remark_ok and pm_ok and no_pm_ok
    _check(
        "6 (balanced forest values and additive-term identities)",
        ok,
        f"summary={report.summary} fills={fills} no_pm_fill_ok={no_pm_ok}",
    )


def test_criterion_07_matching_duality_sweep():
    report = verify_tutte_berge(7, workers=WORKERS)
    counts = [p["classes"] for p in report.points]
    ok = (
        report.passed
        and counts == [1, 2, 4, 11, 34, 156, 1044]
        and all(p["mismatches"] == 0 for p in report.points)
    )
    _check(
        "7 (matching duality on every class up to 7 vertices)",
        ok,
        f"counts={counts} summary={report.summary}",
    )


def test_criterion_08_color_critical_components():
    report = verify_color_critical_components(
        complete(4), 3, [3, 4, 5, 6, 7], f_name="K4", workers=WORKERS
    )
    ok = report.passed and all(
        p["brute"] == p["p"] ** 2 // 4 and p["chromatic_ok"] for p in report.points
    )
    _check(
        "8 (color-critical component identities for K4)",
        ok,
        f"points={[(p['p'], p['brute']) for p in report.points]}",
    )


def _pair_permutation_tables(n: int) -> np.ndarray:
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    table = [
        [index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        for perm in permutations(range(n))
    ]
    return np.array(table, dtype=np.int64)


def _labelled_dedup_count(n: int) -> int:
    """Independent oracle: walk every labelled graph, marking whole
    isomorphism orbits via precomputed pair permutations."""
    npairs = n * (n - 1) // 2
    table = _pair_permutation_tables(n)
    seen = np.zeros(1 << npairs, dtype=bool)
    shifts = np.arange(npairs, dtype=np.int64)
    count = 0
    for mask in range(1 << npairs):
        if seen[mask]:
            continue
        count += 1
        bits = (mask >> shifts) & 1
        orbit = (bits[np.newaxis, :] << table).sum(axis=1)
        seen[orbit] = True
    return count


def _burnside_count(n: int) -> int:
    """Second independent oracle: average the number of fixed labelled
    graphs over all vertex permutations."""
    pairs = list(combinations(range(n), 2))
    total = 0
    for perm in permutations(range(n)):
        seen = set()
        cycles = 0
        for p in pairs:
            if p in seen:
                continue
            cycles += 1
            q = p
            while True:
                q = tuple(sorted((perm[q[0]], perm[q[1]])))
                seen.add(q)
                if q == p:
                    break
        total += 1 << cycles
    return total // factorial(n)


def test_criterion_09_enumeration_self_consistency():
    counts_ok = True
    triples = []
    for n in range(1, 8):
        enum = sum(1 for _ in enumerate_free(n, GraphFamily(), ceiling=7))
        dedup = _labelled_dedup_count(n)
        burnside = _burnside_count(n)
        triples.append((n, enum, dedup, burnside))
        counts_ok = counts_ok and enum == dedup == burnside

    # the empty family keeps level widths in the hundreds, so every worker
    # count below genuinely drives the pool rather than the inline path
    wide = GraphFamily(label="empty")
    payloads = {
        ex_general(7, 2, wide, ceiling=7, workers=w).payload_bytes()
        for w in (1, 4, 8)
    }
    fam = GraphFamily([matching(3)], label="{M3}")
    payloads_m3 = {
        ex_general(7, 2, fam, workers=w).payload_bytes() for w in (1, 4, 8)
    }
    parallel_ok = len(payloads) == 1 and len(payloads_m3) == 1

    _check(
        "9 (isomorph-free counts vs labelled dedup; parallel determinism)",
        counts_ok and parallel_ok,
        f"triples={triples} parallel_payloads={len(payloads)}/{len(payloads_m3)}",
    )


def test_criterion_10_roundtrip_and_determinism():
    corpus = [g for n in range(0, 7) for g in enumerate_free(n, GraphFamily(), ceiling=7)]
    corpus += [
        complete(20),
        complete_bipartite(7, 9),
        turan_graph(13, 4),
        star(33),
        matching(32),
        cycle(64),
        path(50),
    ]
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randrange(0, 65)
        corpus.append(
            Graph(
                n,
                (
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.3
                ),
            )
        )
    roundtrip_ok = all(from_graph6(to_graph6(g)) == g for g in corpus)

    r1 = verify_erdos_gallai([(5, 1), (6, 2), (7, 2)])
    r2 = verify_erdos_gallai([(5, 1), (6, 2), (7, 2)])
    payload_ok = json.dumps(r1.to_payload(), sort_keys=True) == json.dumps(
        r2.to_payload(), sort_keys=True
    )
    ex1 = ex_general(6, 2, GraphFamily([matching(3)], label="{M3}"), workers=1)
    ex2 = ex_general(6, 2, GraphFamily([matching(3)], label="{M3}"), workers=2)
    ex_ok = ex1.payload_bytes() == ex2.payload_bytes()

    _check(
        "10 (graph6 round-trip; identical configs, identical payloads)",
        roundtrip_ok and payload_ok and ex_ok,
        f"corpus={len(corpus)} roundtrip={roundtrip_ok} payload={payload_ok} ex={ex_ok}",
    )
