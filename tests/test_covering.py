import random
import time
from itertools import combinations

import pytest

from graph_builders import is_family_free
import matchturan.covering
from matchturan.containment import GraphFamily, contains_subgraph
from matchturan.covering import (
    INFINITE,
    all_coverings,
    covering_report,
    family_fp,
    is_color_critical,
    p_of_f,
)
from matchturan.graphs import (
    Graph,
    canonical_form,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    induced,
    join_all,
    matching,
    path,
    relabel,
    remove_edge,
    star,
)
from matchturan.invariants import ChromaticLimitError, chromatic_number
from matchturan.solver import enumerate_free


def _wheel(rim: int) -> Graph:
    """Hub joined to a cycle of the given length."""
    return join_all(empty(1), cycle(rim))


def test_all_coverings_pentagon():
    assert all_coverings(cycle(5), 2) == []
    assert len(all_coverings(cycle(5), 3)) == 5


def test_all_coverings_edge_and_path():
    assert all_coverings(complete(2), 1) == [(0,), (1,)]
    assert all_coverings(path(4), 2) == [(0, 2), (1, 2), (1, 3)]
    with pytest.raises(ValueError):
        all_coverings(path(3), -1)


def test_all_coverings_full_vertex_set_counts():
    # S = V(F) is a covering whenever it fits the bound
    assert (0, 1, 2) in all_coverings(complete(3), 3)


def test_covers_monotone_in_p():
    for g in (cycle(5), path(5), complete(4), star(5)):
        for p in range(g.n):
            a = set(all_coverings(g, p))
            b = set(all_coverings(g, p + 1))
            assert a <= b


def test_family_fp_pentagon():
    fam2 = family_fp(cycle(5), 2)
    assert list(fam2) == list(GraphFamily([complete(3)]))
    rep = covering_report(cycle(5), 2)
    assert rep.fallback_used and not rep.covers

    fam3 = family_fp(cycle(5), 3)
    k2_k1 = disjoint_union(complete(2), empty(1))
    assert list(fam3) == list(GraphFamily([k2_k1]))
    # cross-check by exhausting every 3-subset directly
    c5 = cycle(5)
    induced_members = set()
    for s in combinations(range(5), 3):
        rest = [v for v in range(5) if v not in s]
        if not any(c5.has_edge(u, v) for u in rest for v in rest if u < v):
            induced_members.add(canonical_form(induced(c5, s)).key())
    assert induced_members == {canonical_form(k2_k1).key()}


def test_family_fp_k4():
    fam = family_fp(complete(4), 3)
    assert list(fam) == list(GraphFamily([complete(3)]))
    assert not covering_report(complete(4), 3).fallback_used
    # p >= 4 adds the graph itself
    fam4 = family_fp(complete(4), 4)
    assert complete(4) in fam4 and complete(3) in fam4


def test_family_fp_fallback_k2():
    rep = covering_report(complete(2), 0)
    assert rep.fallback_used
    assert list(rep.family) == [empty(1)]


def test_cover_family_enumerates_coverings_once(monkeypatch):
    calls = []

    def counted(f, p):
        calls.append(p)
        return all_coverings(f, p)

    monkeypatch.setattr(matchturan.covering, "all_coverings", counted)
    covering_report(cycle(5), 3)
    assert calls == [3]
    calls.clear()
    family_fp(cycle(5), 3)
    assert calls == [3]


def test_p_of_f():
    assert p_of_f(star(5)) == 1
    assert p_of_f(cycle(5)) == INFINITE
    assert p_of_f(path(4)) == 2
    assert p_of_f(empty(3)) == 0
    assert p_of_f(matching(3)) == 3
    assert p_of_f(cycle(6)) == 3
    # no single vertex covers the three path edges
    p4 = path(4)
    for v in range(4):
        rest = [u for u in range(4) if u != v]
        assert any(p4.has_edge(a, b) for a in rest for b in rest if a < b)


def _min_independent_cover(f):
    # brute force: the smallest S with S and V - S both independent
    full = f.vertex_mask()
    sizes = [
        s.bit_count()
        for s in range(full + 1)
        if not any(f.adj[v] & (s if s >> v & 1 else full & ~s) for v in range(f.n))
    ]
    return min(sizes, default=INFINITE)


def test_p_of_f_matches_brute_force_on_every_class_up_to_7_vertices():
    rng = random.Random(19)
    seen = 0
    for n in range(8):
        for g in enumerate_free(n, GraphFamily(), ceiling=7):
            g = relabel(g, rng.sample(range(n), n))
            assert p_of_f(g) == _min_independent_cover(g), g
            seen += 1
    assert seen == 1 + 1 + 2 + 4 + 11 + 34 + 156 + 1044


def test_edgeless_member_iff_p_reaches_independent_cover_size():
    # scoped to real cover families; the p=0 fallback member K_1 is a
    # degenerate edgeless case of its own
    for f in (path(4), cycle(6), star(4), matching(2), complete_bipartite(3, 3)):
        pf = p_of_f(f)
        for p in range(f.n + 1):
            rep = covering_report(f, p)
            if rep.fallback_used:
                continue
            has_edgeless = any(m.edge_count() == 0 for m in rep.family)
            assert has_edgeless == (p >= pf), (f, p)


def test_chromatic_lower_bound_of_members():
    # non-fallback members keep chromatic number at least chi(F) - 1
    for f in (complete(4), cycle(5), _wheel(5)):
        k = chromatic_number(f) - 1
        for p in range(f.n + 1):
            rep = covering_report(f, p)
            if rep.fallback_used:
                continue
            assert all(chromatic_number(m) >= k for m in rep.family), (f, p)


def test_split_construction_freeness_direction():
    # a graph whose s-part filling avoids the cover family, fully joined to
    # an independent part, never contains F (checked by direct containment)
    from matchturan.constructions import assemble_gns

    cases = [(complete(4), 2), (cycle(5), 2), (complete(4), 3), (path(4), 1)]
    for f, s in cases:
        pf = p_of_f(f)
        assert s < pf  # admissible part size for this check
        fam = family_fp(f, s)
        for q in enumerate_free(s, fam, ceiling=7):
            for n in range(s + 1, 9):
                host = assemble_gns(n, s, q)
                assert not contains_subgraph(host, f), (f, s, n)


def test_is_color_critical():
    assert is_color_critical(complete(4))
    assert is_color_critical(cycle(5))
    assert not is_color_critical(cycle(6))
    assert not is_color_critical(empty(3))
    assert not is_color_critical(disjoint_union(complete(3), complete(3)))
    # derived: chi stays 2 when any single edge of an even cycle is removed
    c6 = cycle(6)
    for u, v in c6.edges():
        assert chromatic_number(remove_edge(c6, u, v)) == 2


def test_is_color_critical_matches_definition():
    # chi(G - e) < chi(G) for some edge e, over every class on <= 6 vertices
    for n in range(7):
        for g in enumerate_free(n, GraphFamily(), ceiling=7):
            chi = chromatic_number(g)
            expected = any(chromatic_number(remove_edge(g, u, v)) < chi for u, v in g.edges())
            assert is_color_critical(g) == expected, g


def test_is_color_critical_refuses_dense_random():
    # G(34, 1/2): the edge tests share one search budget, so this is refused
    # quickly instead of paying |E| full chromatic-number searches
    rng = random.Random(1)
    g = Graph(34, [(u, v) for u in range(34) for v in range(u + 1, 34) if rng.random() < 0.5])
    t0 = time.perf_counter()
    with pytest.raises(ChromaticLimitError):
        is_color_critical(g)
    assert time.perf_counter() - t0 < 1.0


def test_family_fp_members_stay_unminimalized():
    # the family keeps every induced cover subgraph, dedup only by isomorphism
    fam5 = family_fp(cycle(5), 5)
    keys = {canonical_form(m).key() for m in fam5}
    assert keys == {
        canonical_form(disjoint_union(complete(2), empty(1))).key(),
        canonical_form(path(4)).key(),
        canonical_form(cycle(5)).key(),
    }


def test_freeness_same_under_family_and_its_minimalization():
    from matchturan.containment import minimalize

    fam = family_fp(cycle(5), 5)
    reduced = minimalize(fam)
    for n in range(1, 7):
        for g in enumerate_free(n, GraphFamily(), ceiling=7):
            assert is_family_free(g, fam) == is_family_free(g, reduced)
