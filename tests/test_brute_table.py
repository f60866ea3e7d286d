"""The verifier's brute side: one enumeration per family and run, at the
grid's largest n, scored for every (n, r) point (`verifier._brute`)."""

import json
from types import SimpleNamespace

import pytest

from matchturan import constructions, solver, verifier
from matchturan.cli import main
from matchturan.containment import GraphFamily, minimalize
from matchturan.covering import family_fp
from matchturan.graphs import Graph, complete, cycle, matching, path, star
from matchturan.solver import ex_general


def _ctx(horizon: int) -> SimpleNamespace:
    # what verifier._run hands a theorem's score function
    return SimpleNamespace(opts={"ceiling": None, "workers": 1}, horizon=horizon, tables={})


CORPUS = {
    "K2": complete(2),
    "P3": path(3),
    "K3": complete(3),
    "P4": path(4),
    "K1,3": star(4),
    "C4": cycle(4),
    "paw": Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "K4-e": Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "K4": complete(4),
    "C5": cycle(5),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_table_matches_ex_general_below_the_horizon(name):
    # 2 s values x 2 r values x 8 n values per F: 320 points over the corpus
    for s in (1, 2):
        fam = GraphFamily([matching(s + 1), CORPUS[name]], label=f"M{s + 1},{name}")
        ctx = _ctx(horizon=8)
        for r in (2, 3):
            for n in range(1, 9):
                got = verifier._brute(ctx, n, r, fam)
                assert got.payload_bytes() == ex_general(n, r, fam).payload_bytes(), (s, r, n)
        assert len(ctx.tables) == 1


def test_fallbacks_equal_ex_general():
    ctx = _ctx(horizon=8)
    fam = GraphFamily([matching(3), complete(3)], label="M3,K3")
    for n in (3, 6, 8):
        assert verifier._brute(ctx, n, 1, fam).payload_bytes() == (
            ex_general(n, 1, fam).payload_bytes()
        )
    # the pentagon's 3-cover family holds K2+K1, a member with an isolated vertex
    cover = family_fp(cycle(5), 3)
    assert any(0 in m.adj for m in cover)
    for n in (2, 4, 6):
        for r in (2, 3):
            assert verifier._brute(ctx, n, r, cover).payload_bytes() == (
                ex_general(n, r, cover).payload_bytes()
            )
    # each fallback table sits at its point's own n, not at the horizon
    assert set(ctx.tables) == {(minimalize(fam).members, n) for n in (3, 6, 8)} | {
        (minimalize(cover).members, n) for n in (2, 4, 6)
    }


def _spy_enumerations(monkeypatch) -> list:
    calls = []
    original = verifier.enumerate_free

    def spy(n, family, **kwargs):
        calls.append((n, family))
        return original(n, family, **kwargs)

    monkeypatch.setattr(verifier, "enumerate_free", spy)
    return calls


def test_ma_hou_grid_enumerates_each_family_once(monkeypatch, capsys):
    # the ma-hou command of the verify-grid benchmark workload
    argv = ["verify", "ma-hou", "--n", "3..8", "--s", "1..2", "--r", "2..3", "--k", "2..3"]
    calls = _spy_enumerations(monkeypatch)
    assert main(argv) == 0
    families = [fam for _, fam in calls]
    assert len(families) == len(set(families)) == 4
    assert {n for n, _ in calls} == {8}


def test_ma_hou_formula_side_enumerates_nothing(monkeypatch, capsys):
    # every enumerate_free binding: the formula side reaches none of them
    calls = []
    original = solver.enumerate_free

    def spy(n, family, **kwargs):
        calls.append((n, family))
        return original(n, family, **kwargs)

    for module in (solver, constructions, verifier):
        monkeypatch.setattr(module, "enumerate_free", spy)
    argv = ["verify", "ma-hou", "--n", "3..8", "--s", "1..2", "--r", "2..3", "--k", "2..3"]
    assert main(argv) == 0
    brute_side = {GraphFamily([matching(s + 1), complete(k + 1)]) for s in (1, 2) for k in (2, 3)}
    assert len(calls) == 4 and {fam for _, fam in calls} == brute_side


def test_run_past_the_ceiling_is_refused_at_the_same_point(capsys):
    # {M2} reaches n = 10; {M3} has ceiling 9, so the grid stops at (10, 2)
    assert main(["verify", "erdos-gallai", "--n", "5..10", "--s", "1..3"]) == 2
    assert capsys.readouterr().err == "error: n=10 exceeds enumeration ceiling 9\n"


def test_serial_and_parallel_runs_agree(monkeypatch, tmp_path, capsys):
    pools = []
    original = solver.get_context

    def counted(method):
        pools.append(method)
        return original(method)

    monkeypatch.setattr(solver, "get_context", counted)
    argv = ["verify", "erdos-gallai", "--n", "5..9", "--s", "3", "--format", "json"]
    payloads = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert main([*argv, "--workers", str(workers), "--out", str(out)]) == 0
        report = json.loads((out / "erdos-gallai.json").read_text())
        payloads.append(json.dumps(report["payload"], sort_keys=True))
        if workers == 1:
            assert pools == []
    assert payloads[0] == payloads[1]
    assert pools  # the two-worker run forked


def test_main_refuses_r_below_two(capsys):
    assert main(["verify", "main", "--F", "K4", "--s", "2", "--r", "1", "--n", "6..8"]) == 2
    assert capsys.readouterr().err == "error: need r >= 2, got r=1\n"
