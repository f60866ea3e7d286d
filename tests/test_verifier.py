import json
import sys
from types import SimpleNamespace

import pytest

from matchturan import solver, verifier
from matchturan.cli import main
from matchturan.constructions import assemble_gns, build_g_n_s
from matchturan.covering import family_fp
from matchturan.graphs import (
    Graph,
    complete,
    cycle,
    empty,
    join_all,
    matching,
    path,
    star,
)
from matchturan.containment import GraphFamily
from matchturan.invariants import connected_components
from matchturan.solver import CeilingError, enumerate_free
from matchturan.verifier import (
    CSV_COLUMNS,
    verify_color_critical_components,
    verify_cover_family_example,
    verify_erdos_gallai,
    verify_forest_theorem,
    verify_gerbner_slope,
    verify_ma_hou,
    verify_main_theorem_exact,
    verify_tutte_berge,
)


def test_erdos_gallai_small_grid():
    report = verify_erdos_gallai([(5, 1), (9, 1), (5, 2), (6, 2), (7, 2)])
    assert report.passed
    by_n = {(p["n"], p["s"]): p for p in report.points}
    # star beats the triangle from n = 5 on
    assert by_n[(9, 1)]["brute"] == 8
    # the odd-clique side of the max at (6, 2)
    assert by_n[(6, 2)]["brute"] == 10
    assert by_n[(6, 2)]["clique_candidate_value"] == 10
    assert by_n[(6, 2)]["split_candidate_value"] == 9


def test_erdos_gallai_rejects_bad_params():
    with pytest.raises(ValueError):
        verify_erdos_gallai([(4, 2)])


def test_ma_hou_points_including_inadmissible_odd_clique():
    report = verify_ma_hou([(5, 2, 3, 3), (6, 2, 2, 2), (3, 1, 2, 2), (8, 2, 3, 3)])
    assert report.passed
    by_key = {(p["n"], p["s"], p["r"], p["k"]): p for p in report.points}
    # the K_4-free clique-type candidate on 5 vertices is the 3-partite
    # Turan graph (4 triangles), not K_5 (10 triangles, contains K_4)
    assert by_key[(5, 2, 3, 3)]["brute"] == 4
    assert by_key[(5, 2, 3, 3)]["clique_candidate_value"] == 4
    assert "contains K_4" in by_key[(5, 2, 3, 3)]["notes"]
    assert by_key[(8, 2, 3, 3)]["brute"] == 6
    assert by_key[(3, 1, 2, 2)]["brute"] == 2


def test_closed_form_sides_enumerate_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_g_n_s called")

    monkeypatch.setattr(verifier, "build_g_n_s", refuse)
    assert verify_erdos_gallai([(5, 1), (9, 1), (5, 2), (7, 2)]).passed
    assert verify_ma_hou([(5, 2, 3, 3), (6, 2, 2, 2), (3, 1, 2, 2), (8, 2, 3, 4)]).passed


def test_closed_forms_equal_the_best_filling(monkeypatch):
    # the split construction's value over every filling, against the closed
    # forms the two points state; the brute side is stubbed out
    monkeypatch.setattr(
        verifier, "_brute", lambda ctx, n, r, fam: SimpleNamespace(value=0, witnesses=())
    )
    pairs = [(n, s) for s in range(5) for n in range(2 * s + 1, 2 * s + 4)]
    for p in verify_erdos_gallai(pairs).points:
        n, s = p["n"], p["s"]
        assert p["clique_candidate_value"] == complete(2 * s + 1).edge_count()
        best = build_g_n_s(n, s, GraphFamily([complete(s + 1)]), "edges").value
        assert p["split_candidate_value"] == best, (n, s)
    quads = [(n, s, r, k) for n, s in pairs for k in range(2, 7) for r in range(2, k + 1)]
    points = verify_ma_hou(quads).points
    assert len(points) == 225
    for p in points:
        n, s, r, k = p["n"], p["s"], p["r"], p["k"]
        best = build_g_n_s(n, s, GraphFamily([complete(k)]), "kr_count", r).value
        assert p["split_candidate_value"] == best, (n, s, r, k)


def test_ma_hou_rejects_bad_params():
    with pytest.raises(ValueError):
        verify_ma_hou([(5, 2, 3, 2)])  # r > k
    with pytest.raises(ValueError):
        verify_ma_hou([(4, 2, 2, 2)])  # n < 2s+1


def test_main_theorem_triangle():
    report = verify_main_theorem_exact(complete(3), 2, 2, [6, 7], f_name="K3")
    assert report.passed
    assert report.summary["gate"]["t"] == 2
    assert report.summary["ex_slope"] == 2 and report.summary["ex_constant"] == 0
    for p in report.points:
        assert p["brute"] == 2 * (p["n"] - 2)
        assert p["verdict"] == "pass" and p["uniqueness"] == "pass"
        assert not p["construction_gap"]


def test_main_theorem_gate_unmet():
    # p(P4) = 2 < s + 1 = 3, so the exact form does not apply
    report = verify_main_theorem_exact(path(4), 2, 2, [6], f_name="P4")
    assert report.summary["status"] == "hypothesis-unmet"
    assert all(p["verdict"] == "hypothesis-unmet" for p in report.points)


def test_main_theorem_small_n_uniqueness_exception():
    # triangles under a forbidden K_4: at n = 6 a second extremal graph
    # (the 3-partite Turan graph plus an isolated vertex) ties the split
    # construction; from n = 7 the construction is unique
    report = verify_main_theorem_exact(complete(4), 2, 3, [6, 7], f_name="K4")
    assert report.passed
    pts = {p["n"]: p for p in report.points}
    assert pts[6]["verdict"] == "pass"
    assert pts[6]["uniqueness"] == "small-n-exception"
    assert len(pts[6]["witnesses"]) == 2
    assert pts[7]["uniqueness"] == "pass"
    assert report.summary["first_fully_passing_n"] == 7


def test_gerbner_slope_constant_case():
    # s = 2 keeps the third triangle out of reach, so the additive term is
    # already stable on 7..9
    report = verify_gerbner_slope(path(4), 2, [7, 8, 9], f_name="P4")
    assert report.passed
    assert report.summary["differences"] == [-1, -1, -1]


def test_gerbner_slope_star_case():
    report = verify_gerbner_slope(star(3), 3, [6, 7, 8], f_name="S3")
    assert report.passed
    assert report.summary["p_of_f"] == 1
    assert len(set(report.summary["differences"])) == 1


def test_gerbner_slope_blip_is_reported():
    # three disjoint triangles fit exactly at n = 9, bumping the value by
    # one; the range 7..9 therefore has a non-constant difference sequence
    report = verify_gerbner_slope(path(4), 3, [7, 8, 9], f_name="P4")
    assert not report.passed
    assert report.summary["differences"] == [-1, -1, 0]
    assert report.summary["constant_from_n"] == 9


def test_gerbner_slope_gates():
    report = verify_gerbner_slope(cycle(5), 3, [7], f_name="C5")
    assert report.summary["status"] == "hypothesis-unmet"
    report = verify_gerbner_slope(complete(2), 3, [7], f_name="K2")
    assert report.summary["status"] == "degenerate-input"


def test_forest_theorem_two_component_case():
    # F = M2: p = 2, formula (n-1) + 0, star is the unique extremal graph
    report = verify_forest_theorem(matching(2), 2, [5, 6], f_name="M2")
    assert report.passed
    assert report.summary["has_perfect_matching"]
    assert report.summary["filling_value"] == 0 == report.summary["filling_expected"]
    for p in report.points:
        assert p["brute"] == p["n"] - 1
        assert p["uniqueness"] == "pass"


def test_forest_theorem_gates():
    report = verify_forest_theorem(cycle(4), 2, [6], f_name="C4")
    assert report.summary["status"] == "hypothesis-unmet"
    report = verify_forest_theorem(star(4), 2, [6], f_name="S4")
    assert report.summary["status"] == "hypothesis-unmet"  # unbalanced tree
    report = verify_forest_theorem(path(6), 2, [6], f_name="P6")
    assert report.summary["status"] == "hypothesis-unmet"  # p > s


def test_forest_filling_remark_failure_fails_the_report(monkeypatch):
    # a filling value off the perfect-matching identity fails the report by
    # itself: with no points to fail, only the gate's status says so
    original = verifier.build_g_n_s

    def off_by_one(*args, **kwargs):
        build = original(*args, **kwargs)
        return build._replace(value=build.value + 1)

    monkeypatch.setattr(verifier, "build_g_n_s", off_by_one)
    report = verify_forest_theorem(matching(2), 2, [], f_name="M2")
    assert report.summary["filling_value"] == 1 != report.summary["filling_expected"]
    assert report.summary["remark_verdict"] == "fail"
    assert report.summary["status"] == "fail" and report.summary["failed"] == 0


def test_main_point_notes_a_construction_gap(monkeypatch):
    # no natural gap case is known at desk scale, so every line is lowered by
    # one after the gate has taken ex_inner from them: the best line then
    # falls one short of the formula
    theorem = verifier.THEOREMS["main"]

    def short(ctx):
        result = theorem.gate(ctx)
        ctx.lines = [(slope, inner - 1, q) for slope, inner, q in ctx.lines]
        return result

    monkeypatch.setitem(verifier.THEOREMS, "main", theorem._replace(gate=short))
    report = verify_main_theorem_exact(complete(3), 2, 2, [6], f_name="K3")
    point = report.points[0]
    assert point["construction_gap"] and point["construction_value"] == 7
    assert point["notes"] == "no single filling attains both profile maxima"
    assert point["verdict"] == "pass"  # the brute side still meets the formula


def test_main_lines_equal_the_split_construction(monkeypatch):
    # each point's construction value and predicted set, scored from the
    # gate's lines, against build_g_n_s at that n; the brute side is stubbed
    monkeypatch.setattr(
        verifier, "_brute", lambda ctx, n, r, fam: SimpleNamespace(value=0, witnesses=())
    )
    met = 0
    for name, f in (("K3", complete(3)), ("K4", complete(4)), ("C5", cycle(5))):
        for s in (1, 2):
            for r in (2, 3):
                report = verify_main_theorem_exact(f, s, r, list(range(s, 10)), f_name=name)
                if report.summary["status"] == "hypothesis-unmet":
                    continue
                met += 1
                fam = family_fp(f, s)
                for p in report.points:
                    build = build_g_n_s(p["n"], s, fam, "kr_count", r)
                    predicted = verifier._witness_set(
                        [assemble_gns(p["n"], s, q) for q in build.fillings]
                    )
                    assert p["construction_value"] == build.value, (name, s, r, p["n"])
                    assert p["predicted_witnesses"] == predicted, (name, s, r, p["n"])
    assert met == 11  # all but one of the 12 (F, s, r)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["main", "--F", "K4", "--s", "2", "--r", "3", "--n", "6..8"], (4, 1)),
        (["main", "--F", "C5", "--s", "2", "--r", "2", "--n", "6..8"], (4, 1)),
        (["forest", "--F", "P4", "--s", "2", "--n", "6..8"], (2, 0)),
    ],
)
def test_formula_sides_enumerate_one_filling_table(argv, expected, monkeypatch, capsys):
    # (enumerations, repeats) on every matchturan binding of enumerate_free:
    # `main` enumerates the profile's 2 tables, the gate's filling table (the
    # profile's p = s table again) and the brute table; `forest` the filling
    # table and the brute table
    original = solver.enumerate_free
    keys = []

    def spy(n, family, **kwargs):
        keys.append((n, family))
        return original(n, family, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("matchturan") and getattr(module, "enumerate_free", None) is original:
            monkeypatch.setattr(module, "enumerate_free", spy)
    assert main(["verify", *argv]) == 0
    assert (len(keys), len(keys) - len(set(keys))) == expected


def test_main_refuses_n_below_s_before_enumerating(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("enumerate_free called")

    original = solver.enumerate_free
    for name, module in list(sys.modules.items()):
        if name.startswith("matchturan") and getattr(module, "enumerate_free", None) is original:
            monkeypatch.setattr(module, "enumerate_free", never)
    with pytest.raises(ValueError, match=r"need n >= s, got n=1, s=2"):
        verify_main_theorem_exact(complete(4), 2, 3, [6, 1, 8], f_name="K4")
    argv = ["verify", "main", "--F", "K4", "--s", "2", "--r", "3", "--n", "1..8"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: need n >= s, got n=1, s=2\n"


def _balanced_forest_shape_oracle(f: Graph) -> tuple[bool, int]:
    """(is a balanced forest with at least one edge, component count), by
    2-colouring each tree: the gate's former implementation."""
    comps = connected_components(f)
    if f.n == 0 or f.edge_count() == 0:
        return False, len(comps)
    for comp in comps:
        members = [v for v in range(f.n) if comp >> v & 1]
        edges = sum((f.adj[v] & comp).bit_count() for v in members) // 2
        if edges != len(members) - 1:
            return False, len(comps)  # component has a cycle
        color = {members[0]: 0}
        stack = [members[0]]
        while stack:
            v = stack.pop()
            for u in members:
                if f.adj[v] >> u & 1 and u not in color:
                    color[u] = color[v] ^ 1
                    stack.append(u)
        sides = [sum(1 for c in color.values() if c == b) for b in (0, 1)]
        if sides[0] != sides[1]:
            return False, len(comps)
    return True, len(comps)


def test_forest_gate_matches_two_colouring_oracle():
    # s = 3 >= |F|/2 for every F on at most 7 vertices, so the gate is met
    # exactly when F is a balanced forest
    balanced = 0
    for n in range(8):
        for f in enumerate_free(n, GraphFamily(), ceiling=7):
            report = verify_forest_theorem(f, 3, [], f_name="F")
            met = report.summary["status"] != "hypothesis-unmet"
            assert met == _balanced_forest_shape_oracle(f)[0], f.adj
            balanced += met
    assert balanced == 8


def test_tutte_berge_sweep():
    report = verify_tutte_berge(5)
    assert report.passed
    assert [p["classes"] for p in report.points] == [1, 2, 4, 11, 34]
    with pytest.raises(CeilingError):
        verify_tutte_berge(8)


def test_color_critical_components_k4():
    report = verify_color_critical_components(complete(4), 3, [3, 4, 5], f_name="K4")
    assert report.passed
    for p in report.points:
        assert p["brute"] == p["p"] ** 2 // 4
        assert p["chromatic_ok"]


def test_color_critical_gate_unmet():
    # chi(C5) = 3 < 4
    report = verify_color_critical_components(cycle(5), 2, [3], f_name="C5")
    assert report.summary["status"] == "hypothesis-unmet"


def test_color_critical_wheel():
    # the wheel's cover number is 4: from there on the Turan identity holds
    wheel = join_all(empty(1), cycle(5))
    report = verify_color_critical_components(wheel, 3, [4, 5, 6], f_name="W5")
    assert report.passed
    assert not any(p["fallback"] for p in report.points)
    # below the cover number the family falls back to a clique and the
    # identity is not claimed: the report shows why
    low = verify_color_critical_components(wheel, 3, [3], f_name="W5")
    assert not low.passed
    assert low.points[0]["fallback"]
    assert "fallback" in low.points[0]["notes"]


def test_pentagon_worked_example():
    report = verify_cover_family_example()
    assert report.passed


def test_report_payload_deterministic_and_csv_shape():
    r1 = verify_erdos_gallai([(5, 1), (5, 2)])
    r2 = verify_erdos_gallai([(5, 1), (5, 2)])
    assert json.dumps(r1.to_payload(), sort_keys=True) == json.dumps(
        r2.to_payload(), sort_keys=True
    )
    rows = r1.csv_rows()
    assert all(len(row) == len(CSV_COLUMNS) for row in rows)
    assert rows[0][0] == "erdos-gallai"
