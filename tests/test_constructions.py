from itertools import combinations
from math import comb

import pytest

from graph_builders import graph_from_pair_mask, is_family_free
from matchturan import constructions
from matchturan.constructions import (
    ConstructionSpec,
    assemble_gns,
    build_clique_candidate,
    build_forest_extremal,
    build_g_n_s,
    realize,
)
from matchturan.containment import GraphFamily
from matchturan.covering import family_fp
from matchturan.graphs import (
    MAX_VERTICES,
    GraphCapacityError,
    canonical_form,
    complete,
    complete_bipartite,
    matching,
    path,
    to_graph6,
)
from matchturan.invariants import count_cliques, matching_number
from matchturan.solver import ex_general


def test_build_gns_edges_objective():
    build = build_g_n_s(6, 2, GraphFamily([complete(3)]), "edges")
    assert build.value == 9 == build.graph.edge_count()
    assert build.filling == complete(2)  # one edge inside the 2-part

    build2 = build_g_n_s(9, 2, GraphFamily([complete(2)]), "edges")
    assert build2.value == 14
    k27 = complete_bipartite(2, 7)
    assert canonical_form(build2.graph).key() == canonical_form(k27).key()


def test_build_gns_kr_objective_exhausts_fillings():
    """Oracle: brute-force all 8 labelled fillings of the 3-part."""
    fam = GraphFamily([complete(3)])
    best = -1
    for mask in range(1 << 3):
        q = graph_from_pair_mask(3, mask)
        if not is_family_free(q, fam):
            continue
        best = max(best, count_cliques(q, 2) * 4 + count_cliques(q, 3))
    assert best == 8
    build = build_g_n_s(7, 3, fam, "kr_count", 3)
    assert build.value == 8
    assert build.value == count_cliques(build.graph, 3)


def test_build_gns_objective_value_equals_direct_count():
    for n, s, fam, r in [
        (7, 2, GraphFamily([complete(3)]), 2),
        (8, 3, GraphFamily([complete(4)]), 3),
        (6, 3, GraphFamily([path(3)]), 2),
    ]:
        build = build_g_n_s(n, s, fam, "kr_count", r)
        assert build.value == count_cliques(build.graph, r)


def test_build_gns_optimality_against_labelled_brute_force():
    fam = GraphFamily([complete(3), matching(2)])
    for s in range(0, 5):
        build = build_g_n_s(8, s, fam, "edges")
        best = max(
            s * (8 - s) + graph_from_pair_mask(s, m).edge_count()
            for m in range(1 << (s * (s - 1) // 2))
            if is_family_free(graph_from_pair_mask(s, m), fam)
        )
        assert build.value == best


def test_build_gns_matching_bound():
    # the s-part covers all edges: never more than s disjoint edges
    for n, s in [(8, 2), (9, 3), (7, 1), (6, 0)]:
        build = build_g_n_s(n, s, GraphFamily(), "edges")
        assert matching_number(build.graph) <= s


def test_build_gns_errors():
    with pytest.raises(ValueError):
        build_g_n_s(4, 5, GraphFamily())
    with pytest.raises(ValueError):
        build_g_n_s(5, 2, GraphFamily(), "kr_count")  # r missing
    with pytest.raises(ValueError):
        # no filling is free when the family contains the single vertex
        build_g_n_s(5, 2, GraphFamily([graph_from_pair_mask(1, 0)]))
    with pytest.raises(ValueError, match="r=3"):
        build_g_n_s(5, 2, GraphFamily(), "edges", 3)  # edges takes no r
    with pytest.raises(ValueError, match="widget"):
        # refused before any filling is scored
        build_g_n_s(5, 2, GraphFamily([graph_from_pair_mask(1, 0)]), "widget")


def test_build_gns_refuses_past_capacity_before_enumerating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("enumerate_free called")

    monkeypatch.setattr(constructions, "enumerate_free", never)
    with pytest.raises(GraphCapacityError, match=f"{MAX_VERTICES + 1} vertices"):
        build_g_n_s(MAX_VERTICES + 1, 2, GraphFamily())


def test_assemble_gns_refusals():
    with pytest.raises(ValueError, match="filling has 3 vertices, expected 2"):
        assemble_gns(6, 2, complete(3))
    with pytest.raises(ValueError, match="need 0 <= s <= n, got s=3, n=2"):
        assemble_gns(2, 3, complete(3))


def test_assemble_gns_layout():
    g = assemble_gns(6, 2, complete(2))
    assert g.has_edge(0, 1)
    assert all(g.has_edge(u, v) for u in (0, 1) for v in range(2, 6))
    assert not any(g.has_edge(u, v) for u in range(2, 6) for v in range(2, 6) if u < v)


def test_build_clique_candidate():
    assert build_clique_candidate(2) == complete(5)
    assert matching_number(build_clique_candidate(3)) == 3
    assert count_cliques(build_clique_candidate(2), 3) == 10


def test_build_forest_extremal_composition():
    fam = family_fp(path(4), 1)
    g = build_forest_extremal(12, 2, 1, fam)
    assert g.n == 12
    assert matching_number(g) == 2  # split part contributes 1, the K_3 one more
    # t = 0 reduces to the split construction
    g0 = build_forest_extremal(9, 2, 0, fam)
    split = build_g_n_s(9, 1, fam, "edges").graph
    assert canonical_form(g0).key() == canonical_form(split).key()


def test_build_forest_extremal_edge_identity():
    # edges = (p-1)(n - t(2p-1) - p + 1) + ex(p-1, fam) + t * C(2p-1, 2)
    for f, p in [(path(4), 2), (path(6), 3), (matching(2), 2)]:
        fam = family_fp(f, p - 1)
        fill = ex_general(p - 1, 2, fam).value
        for t in range(0, 2):
            for n in range(p - 1 + t * (2 * p - 1) + p, 14):
                g = build_forest_extremal(n, p, t, fam)
                expected = (
                    (p - 1) * (n - t * (2 * p - 1) - p + 1)
                    + fill
                    + t * comb(2 * p - 1, 2)
                )
                assert g.edge_count() == expected, (f, p, t, n)


def test_build_forest_extremal_errors():
    with pytest.raises(ValueError):
        build_forest_extremal(3, 2, 1, family_fp(path(4), 1))
    with pytest.raises(ValueError):
        build_forest_extremal(9, 2, -1, family_fp(path(4), 1))


def test_construction_spec_roundtrip():
    fam = family_fp(complete(3), 2)
    spec = ConstructionSpec(
        kind="gns",
        n=9,
        s=2,
        r=2,
        objective="kr_count",
        family_graph6=tuple(to_graph6(m) for m in fam),
        family_label=fam.label,
    )
    # the graph6 members round-trip to the family, and realize is deterministic
    assert spec.family() == fam and spec.family().label == fam.label
    assert spec.to_payload()["family"] == [to_graph6(m) for m in fam]
    g1, d1 = realize(spec)
    g2, d2 = realize(spec)
    assert g1 == g2 and d1 == d2


def test_construction_spec_validation():
    # the builders reject these sizes
    with pytest.raises(ValueError):
        realize(ConstructionSpec(kind="gns", n=4, s=5))
    with pytest.raises(ValueError):
        realize(ConstructionSpec(kind="forest_extremal", n=3, p=2, t=1))
    with pytest.raises(ValueError):
        ConstructionSpec(kind="widget").validate()
    with pytest.raises(ValueError, match="gns needs n, s"):
        ConstructionSpec(kind="gns", n=5).validate()
    with pytest.raises(ValueError, match="clique needs s >= 0"):
        ConstructionSpec(kind="clique", s=-1).validate()
