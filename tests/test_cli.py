import json

import pytest

from matchturan import constructions, verifier
from matchturan.cli import main, parse_family, parse_graph, parse_range
from matchturan.graphs import (
    complete,
    cycle,
    matching,
    path,
    star,
    to_graph6,
    turan_graph,
)


def test_parse_graph_grammar():
    assert parse_graph("K5") == complete(5)
    assert parse_graph("C7") == cycle(7)
    assert parse_graph("P4") == path(4)
    assert parse_graph("S6") == star(6)
    assert parse_graph("M3") == matching(3)
    assert parse_graph("T(7,3)") == turan_graph(7, 3)
    assert parse_graph("g6:Bw") == complete(3)
    for bad in ("K", "Q5", "T(7)", "fp(C5)", "g6:"):
        with pytest.raises(ValueError):
            parse_graph(bad)


def test_parse_family():
    fam = parse_family("M3,K4")
    assert len(fam) == 2 and fam.label == "M3,K4"
    fam2 = parse_family("fp(C5,2)")
    assert list(fam2) == [complete(3)]
    fam3 = parse_family("fp(C5,2),K4,K3")
    assert len(fam3) == 2  # K3 duplicates the cover-family member


def test_parse_range():
    assert parse_range("5..9") == [5, 6, 7, 8, 9]
    assert parse_range("7") == [7]
    with pytest.raises(ValueError):
        parse_range("9..5")


def test_cmd_ex(capsys):
    assert main(["ex", "--n", "6", "--r", "2", "--forbid", "M3"]) == 0
    out = capsys.readouterr().out
    assert "= 10" in out
    assert "EJ\\w" in out


def test_cmd_ex_with_cover_family(capsys):
    assert main(["ex", "--n", "2", "--r", "2", "--forbid-family", "fp(C5,2)"]) == 0
    assert "= 1" in capsys.readouterr().out


def test_cmd_ex_writes_report(tmp_path, capsys):
    assert main(
        ["ex", "--n", "5", "--forbid", "M2", "--out", str(tmp_path)]
    ) == 0
    data = json.loads((tmp_path / "ex.json").read_text())
    assert data["schema"] == 1
    assert data["payload"]["value"] == 4  # the star on all five vertices
    assert "elapsed_sec" in data and "elapsed_sec" not in data["payload"]


def test_cmd_ex_forbid_file_matches_forbid(tmp_path, capsys):
    corpus = tmp_path / "family.g6"
    corpus.write_text(
        f"# M3 and K4\n{to_graph6(matching(3))}\n{to_graph6(complete(4))}  # K4\n"
    )
    reports = {}
    for name, source in (("file", ["--forbid-file", str(corpus)]),
                         ("tokens", ["--forbid", "M3,K4"])):
        out = tmp_path / name
        assert main(["ex", "--n", "7", "--r", "3", *source, "--out", str(out)]) == 0
        reports[name] = json.loads((out / "ex.json").read_text())["payload"]
    capsys.readouterr()
    by_file, by_tokens = reports["file"], reports["tokens"]
    assert by_file["family"] == f"file:{corpus}"
    for key in ("value", "witnesses", "enumerated_classes"):
        assert by_file[key] == by_tokens[key], key


def test_cmd_family(tmp_path, capsys):
    assert main(["family", "--graph", "C5", "--p", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[fallback]" in out and "Bw" in out
    data = json.loads((tmp_path / "family.json").read_text())
    assert data["payload"]["fallback_used"] is True
    assert data["payload"]["family"] == ["Bw"]
    lines = (tmp_path / "family.g6").read_text().splitlines()
    assert lines[0].startswith("#") and lines[1] == "Bw"


def test_cmd_family_k2_p0(capsys):
    assert main(["family", "--graph", "K2", "--p", "0"]) == 0
    out = capsys.readouterr().out
    assert "[fallback]" in out and "@" in out


def test_cmd_construct_gns(capsys):
    assert main(["construct", "gns", "--n", "9", "--s", "2", "--forbid", "K3"]) == 0
    out = capsys.readouterr().out.splitlines()
    g = parse_graph("g6:" + out[0])
    assert g.edge_count() == 15  # 2(n-2)+1
    assert out[1] == "value = 15"


def test_cmd_construct_clique(capsys):
    assert main(["construct", "clique", "--s", "2"]) == 0
    assert capsys.readouterr().out.strip() == to_graph6(complete(5))


def test_cmd_construct_forest(capsys):
    assert main(
        ["construct", "forest-extremal", "--n", "12", "--p", "2", "--t", "1", "--F", "P4"]
    ) == 0
    g = parse_graph("g6:" + capsys.readouterr().out.strip())
    assert g.n == 12 and g.edge_count() == 8 + 3  # star on 9 plus a triangle


def test_cmd_verify_pass_and_reports(tmp_path, capsys):
    rc = main(
        [
            "verify", "erdos-gallai", "--n", "5..6", "--s", "1..2",
            "--out", str(tmp_path), "--format", "both",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "summary" in out
    data = json.loads((tmp_path / "erdos-gallai.json").read_text())
    assert data["payload"]["reports"][0]["summary"]["status"] == "pass"
    csv_text = (tmp_path / "erdos-gallai.csv").read_text()
    assert csv_text.startswith("theorem,params,brute,formula,verdict")


def test_cmd_verify_failure_exit_code(capsys):
    # the slope blip at n = 9 makes this range fail; the CLI must report
    # machine-readable failures and exit nonzero
    rc = main(["verify", "gerbner", "--F", "P4", "--s", "3", "--n", "7..9"])
    assert rc == 1
    out = capsys.readouterr().out
    failures = json.loads(out.splitlines()[-1])
    assert failures["failures"][0]["theorem"] == "gerbner-slope"


def test_cmd_verify_deterministic_payload(tmp_path):
    argv = [
        "verify", "main", "--F", "K3", "--s", "2", "--r", "2", "--n", "6..7",
        "--format", "json",
    ]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    a = json.loads((tmp_path / "a" / "main.json").read_text())
    b = json.loads((tmp_path / "b" / "main.json").read_text())
    assert json.dumps(a["payload"], sort_keys=True) == json.dumps(
        b["payload"], sort_keys=True
    )


def test_cmd_verify_tutte_berge(capsys):
    assert main(["verify", "tutte-berge", "--n", "1..4"]) == 0


def test_cmd_verify_tutte_berge_refuses_a_range_not_from_one(tmp_path, capsys):
    # the sweep always covers n = 1..N, so 4..5 would silently run 1..5
    assert main(["verify", "tutte-berge", "--n", "4..5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: tutte-berge sweeps n = 1..N, not the range 4..5\n"
    )
    assert not any(tmp_path.iterdir())
    assert main(["verify", "tutte-berge", "--n", "3"]) == 0
    assert "points\": 3" in capsys.readouterr().out


def test_cmd_verify_tutte_berge_refuses_a_one_point_range_not_at_one(tmp_path, capsys):
    # parse_range reads "4..4" as [4], like "4"; the written range still refuses
    assert main(["verify", "tutte-berge", "--n", "4..4", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: tutte-berge sweeps n = 1..N, not the range 4..4\n"
    )
    assert not any(tmp_path.iterdir())
    assert main(["verify", "tutte-berge", "--n", "1..1"]) == 0
    assert "points\": 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["erdos-gallai", "--n", "1..2", "--s", "1"],
        ["ma-hou", "--n", "3..4", "--s", "2", "--r", "3", "--k", "2"],
        ["tutte-berge", "--n", "0"],
    ],
    ids=["erdos-gallai", "ma-hou", "tutte-berge"],
)
def test_cmd_verify_refuses_an_empty_grid(argv, tmp_path, capsys):
    assert main(["verify", *argv, "--out", str(tmp_path)]) == 2
    assert "grid has no points" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cmd_verify_pentagon(capsys):
    assert main(["verify", "pentagon"]) == 0


def test_ceiling_flag_validation(capsys):
    assert main(["ex", "--n", "4", "--forbid", "K3", "--ceiling", "11"]) == 2
    assert "ceiling" in capsys.readouterr().err


def test_verify_tutte_berge_honours_ceiling(capsys):
    assert main(["verify", "tutte-berge", "--n", "1..6", "--ceiling", "3"]) == 2
    assert "ceiling 3" in capsys.readouterr().err


def test_env_ceiling_respected(monkeypatch, capsys):
    monkeypatch.setenv("MATCHTURAN_CEILING", "5")
    rc = main(["ex", "--n", "6", "--forbid", "P6"])
    assert rc == 2
    assert "ceiling" in capsys.readouterr().err


def test_construct_refuses_r_with_edges(capsys):
    argv = ["construct", "gns", "--n", "9", "--s", "2", "--forbid", "K3", "--r", "3"]
    assert main(argv) == 2
    assert "r=3" in capsys.readouterr().err


def test_construct_refuses_kr_below_two_before_enumerating(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("enumerate_free called")

    monkeypatch.setattr(constructions, "enumerate_free", never)
    argv = ["construct", "gns", "--n", "5", "--s", "2", "--forbid", "K3", "--objective", "kr"]
    assert main([*argv, "--r", "1"]) == 2
    assert "error: objective kr_count needs r >= 2, got r=1" in capsys.readouterr().err


def test_bad_graph_token_is_reported(capsys):
    assert main(["ex", "--n", "4", "--forbid", "Q3"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("expr", [",", "K3,,C5", " , K3"])
def test_empty_family_token_is_refused(expr, tmp_path, capsys):
    # an empty token is an error, not a member to drop: "," is not the empty family
    assert main(["ex", "--n", "5", "--forbid", expr, "--out", str(tmp_path)]) == 2
    assert f"empty graph token in family {expr!r}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["ex", "--n", "4", "--forbid", "K3", "--format", "json"],
        ["family", "--graph", "C5", "--p", "2", "--ceiling", "5"],
        ["construct", "clique", "--s", "2", "--workers", "2"],
    ],
)
def test_flags_only_where_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_calls_the_module_attribute(monkeypatch, capsys):
    # a wrapper installed on the verifier module after import must see the run
    calls = []
    original = verifier.verify_erdos_gallai

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verifier, "verify_erdos_gallai", wrapped)
    assert main(["verify", "erdos-gallai", "--n", "4..5", "--s", "1..2"]) == 0
    assert calls == [([(4, 1), (5, 1), (5, 2)],)]
