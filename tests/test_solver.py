import multiprocessing
import os
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

from graph_builders import add_edge, graph_from_pair_mask, is_family_free
import matchturan.containment
import matchturan.solver
from matchturan.cli import main
from matchturan.containment import (
    GraphFamily,
    contains_subgraph,
    minimalize,
)
from matchturan.covering import family_fp
from matchturan.graphs import (
    Graph,
    _colors,
    _root_cells,
    canonical_form,
    complete,
    cycle,
    disjoint_union,
    empty,
    from_graph6,
    matching,
    path,
    relabel,
    star,
)
from matchturan.invariants import count_cliques, matching_number
from matchturan.solver import (
    CeilingError,
    enumerate_free,
    ex_general,
    ex_profile,
    resolve_ceiling,
)


def _labelled_class_count(n):
    """Oracle: dedup all labelled graphs by brute-force isomorphism."""
    seen = set()
    count = 0
    for mask in range(1 << (n * (n - 1) // 2)):
        if mask in seen:
            continue
        count += 1
        g = graph_from_pair_mask(n, mask)
        for perm in permutations(range(n)):
            h = relabel(g, perm)
            m = 0
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for idx, (i, j) in enumerate(pairs):
                if h.has_edge(i, j):
                    m |= 1 << idx
            seen.add(m)
    return count


def _oracle_stream(n, family):
    """The enumerator before canonical augmentation: canonicalize every
    family-free one-edge child of a level, dedup the level in a set, sort."""
    reduced = minimalize(family)
    if any(m.edge_count() == 0 and m.n <= n for m in reduced):
        return []
    members = [m for m in reduced if m.n <= n]
    stream = []
    level = [empty(n)]
    while level:
        stream.extend(g.adj for g in level)
        children = set()
        for g in level:
            for u in range(n):
                for v in range(u + 1, n):
                    if g.has_edge(u, v):
                        continue
                    child = add_edge(g, u, v)
                    if not any(contains_subgraph(child, m) for m in members):
                        children.add(canonical_form(child).graph)
        level = sorted(children, key=lambda h: h.adj)
    return stream


ORACLE_FAMILIES = {
    "empty": GraphFamily(),
    "K3": GraphFamily([complete(3)]),
    "M2,K3": GraphFamily([matching(2), complete(3)]),
    "M3,K4": GraphFamily([matching(3), complete(4)]),
    "M3,C5": GraphFamily([matching(3), cycle(5)]),
    "P4,S4": GraphFamily([path(4), star(4)]),
    "fp(C5,3)": family_fp(cycle(5), 3),
}


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_stream_matches_dedup_oracle(name):
    """Same graphs in the same order as the per-child canonicalizing loop,
    which prunes by a full containment scan, serial and pooled."""
    family = ORACLE_FAMILIES[name]
    for n in range(0, 8):
        expected = _oracle_stream(n, family)
        for workers in (1, 2):
            got = [g.adj for g in enumerate_free(n, family, workers=workers)]
            assert got == expected, (n, workers)


def test_anchored_member_test_matches_dedup_oracle():
    """Members with asymmetric arcs (paw, P5), isolated vertices (C4 + K1)
    and several components (P3 + K2), alone and in a pair."""
    paw = add_edge(disjoint_union(complete(3), empty(1)), 2, 3)
    k4_minus_e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    families = [
        GraphFamily([paw]),
        GraphFamily([path(5)]),
        GraphFamily([disjoint_union(cycle(4), empty(1))]),
        GraphFamily([disjoint_union(path(3), complete(2))]),
        GraphFamily([k4_minus_e, cycle(5)]),
    ]
    for family in families:
        for n in range(0, 8):
            expected = _oracle_stream(n, family)
            for workers in (1, 2):
                got = [g.adj for g in enumerate_free(n, family, workers=workers)]
                assert got == expected, (family, n, workers)


def test_enumerator_makes_no_unanchored_search(monkeypatch):
    families = [GraphFamily([complete(4)]), GraphFamily([cycle(5)])]
    expected = [_oracle_stream(7, family) for family in families]

    def no_search(host, pattern):
        raise AssertionError("the enumerator ran an unanchored search")

    monkeypatch.setattr(matchturan.containment, "contains_subgraph", no_search)
    for family, stream in zip(families, expected):
        assert [g.adj for g in enumerate_free(7, family)] == stream


def test_pool_forks_only_for_wide_levels(monkeypatch):
    real_get_context = matchturan.solver.get_context
    forks = []

    def counting_get_context(method):
        forks.append(method)
        return real_get_context(method)

    monkeypatch.setattr(matchturan.solver, "get_context", counting_get_context)

    # verify-grid-sized enumerations stay inline at two workers
    m3k4 = GraphFamily([matching(3), complete(4)])
    assert sum(1 for _ in enumerate_free(3, m3k4, workers=2)) == 4
    for n, fam in ((9, GraphFamily([matching(3)])), (8, m3k4)):
        assert sum(1 for _ in enumerate_free(n, fam, workers=2)) > 0
    assert forks == []

    # the empty family at n = 7 is wide enough to fork at up to eight
    # workers, and the pooled stream is the serial one
    serial = [g.adj for g in enumerate_free(7, GraphFamily())]
    for workers in (2, 4, 8):
        forks.clear()
        got = [g.adj for g in enumerate_free(7, GraphFamily(), workers=workers)]
        assert got == serial, workers
        assert forks, workers

    # a pool lives for one level: no worker is alive at any yield
    for _ in enumerate_free(7, GraphFamily(), workers=2):
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("member", ["M4", "K4"])
def test_pool_with_forbidden_members_matches_serial(member, monkeypatch):
    family = GraphFamily([matching(4) if member == "M4" else complete(4)], label=member)
    real_count_cliques = matchturan.solver.count_cliques
    real_get_context = matchturan.solver.get_context
    edge_counts, forks = [], []

    def recording_count_cliques(g, r):
        edge_counts.append(g.edge_count())
        return real_count_cliques(g, r)

    def counting_get_context(method):
        forks.append(method)
        return real_get_context(method)

    monkeypatch.setattr(matchturan.solver, "count_cliques", recording_count_cliques)
    serial = ex_general(8, 2, family, workers=1)
    # the serial run scores every class: some level (one edge count) is wide
    # enough to fork at two workers
    assert max(Counter(edge_counts).values()) >= 2 * matchturan.solver.PARENTS_PER_WORKER
    monkeypatch.setattr(matchturan.solver, "get_context", counting_get_context)
    pooled = ex_general(8, 2, family, workers=2)
    assert forks
    assert pooled.payload_bytes() == serial.payload_bytes()


def test_enumerate_counts_against_labelled_dedup():
    for n in range(1, 6):
        oracle = _labelled_class_count(n)
        assert sum(1 for _ in enumerate_free(n, GraphFamily())) == oracle


def test_enumerate_stream_is_isomorph_free_and_free():
    fam = GraphFamily([complete(3), matching(3)])
    keys = set()
    for g in enumerate_free(7, fam):
        k = canonical_form(g).key()
        assert k not in keys
        keys.add(k)
        assert is_family_free(g, fam)
        assert g.adj == k[1]  # representatives are canonical


def test_enumerate_single_edge_family():
    graphs = list(enumerate_free(5, GraphFamily([complete(2)])))
    assert graphs == [empty(5)]


def test_enumerate_matching_family_matches_filter():
    fam = GraphFamily([matching(2)])
    direct = {canonical_form(g).key() for g in enumerate_free(5, fam)}
    filtered = {
        canonical_form(g).key()
        for g in enumerate_free(5, GraphFamily(), ceiling=7)
        if matching_number(g) <= 1
    }
    assert direct == filtered


def test_ex_erdos_gallai_point():
    fam = GraphFamily([matching(3)], label="{M3}")
    res = ex_general(6, 2, fam)
    assert res.value == 10
    wits = [from_graph6(w) for w in res.witnesses]
    assert len(wits) == 1
    k5_k1 = disjoint_union(complete(5), empty(1))
    assert canonical_form(wits[0]).key() == canonical_form(k5_k1).key()


def test_ex_with_clique_and_matching():
    """Brute-force oracle over all labelled 5-vertex graphs."""
    fam = GraphFamily([matching(3), complete(4)])
    best = -1
    for mask in range(1 << 10):
        g = graph_from_pair_mask(5, mask)
        if is_family_free(g, fam):
            best = max(best, count_cliques(g, 3))
    assert best == 4
    assert ex_general(5, 3, fam).value == 4


def test_ex_pentagon_cover_family_point():
    assert ex_general(2, 2, family_fp(cycle(5), 2)).value == 1


def test_ex_monotone_in_n():
    fam = GraphFamily([complete(3)])
    values = [ex_general(n, 2, fam).value for n in range(2, 7)]
    assert values == sorted(values)


def test_ex_same_under_minimalization():
    # every member contains the triangle, so only the triangle matters
    fam = GraphFamily([complete(3), complete(4), complete(5)])
    reduced = GraphFamily([complete(3)])
    for n in range(2, 7):
        assert ex_general(n, 2, fam).value == ex_general(n, 2, reduced).value


def test_ex_witnesses_reverify():
    fam = GraphFamily([matching(3)], label="{M3}")
    res = ex_general(7, 2, fam)
    for w in map(from_graph6, res.witnesses):
        assert w.n == 7
        assert is_family_free(w, fam)
        assert count_cliques(w, 2) == res.value


def test_ex_value_none_when_nothing_is_free():
    fam = GraphFamily([empty(1)])
    res = ex_general(3, 2, fam)
    assert res.value is None and res.witnesses == () and res.enumerated_count == 0


def test_ex_r_one_counts_vertices():
    assert ex_general(4, 1, GraphFamily([complete(2)])).value == 4


def test_ex_refuses_r_below_one_before_enumerating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("enumerate_free called")

    monkeypatch.setattr(matchturan.solver, "enumerate_free", never)
    with pytest.raises(ValueError, match="clique order must be >= 1, got 0"):
        ex_general(3, 0, GraphFamily())


def test_parallel_matches_sequential():
    fam = GraphFamily([matching(3)], label="{M3}")
    results = [ex_general(7, 2, fam, workers=w) for w in (1, 2, 3)]
    payloads = {r.payload_bytes() for r in results}
    assert len(payloads) == 1
    streams = [
        [g.adj for g in enumerate_free(6, GraphFamily([complete(3)]), workers=w)]
        for w in (1, 2)
    ]
    assert streams[0] == streams[1]


def test_ceiling_enforcement(monkeypatch):
    sparse = GraphFamily([path(6)])
    assert resolve_ceiling(sparse) == 9
    hard = GraphFamily([complete(3)])
    assert resolve_ceiling(hard) == 10
    assert resolve_ceiling(sparse, 6) == 6
    with pytest.raises(CeilingError):
        next(enumerate_free(10, sparse))
    monkeypatch.setenv("MATCHTURAN_CEILING", "5")
    assert resolve_ceiling(sparse) == 5
    with pytest.raises(CeilingError):
        next(enumerate_free(6, sparse))


@pytest.mark.parametrize("value", ["50", "0", "abc"])
def test_invalid_env_ceiling_is_rejected(monkeypatch, capsys, value):
    monkeypatch.setenv("MATCHTURAN_CEILING", value)
    with pytest.raises(ValueError, match="MATCHTURAN_CEILING"):
        resolve_ceiling(GraphFamily([complete(3)]))
    with pytest.raises(ValueError, match="MATCHTURAN_CEILING"):
        next(enumerate_free(3, GraphFamily([complete(3)])))
    assert main(["ex", "--n", "4", "--forbid", "K3"]) == 2
    assert "MATCHTURAN_CEILING" in capsys.readouterr().err


def test_invalid_ceiling_argument_is_rejected(capsys):
    for bad in (0, 11, 50):
        with pytest.raises(ValueError, match="ceiling argument"):
            resolve_ceiling(GraphFamily(), bad)
    assert main(["ex", "--n", "4", "--forbid", "K3", "--ceiling", "0"]) == 2
    assert "--ceiling" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [3.9, 4.0, True, False])
def test_ceiling_argument_is_an_int_not_a_float_or_bool(bad):
    # int(3.9) == 3 and True == 1: the argument is refused, as the flag and
    # the env var refuse the text "3.9" or "True"
    message = f"ceiling argument must be an integer between 1 and 10, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        resolve_ceiling(GraphFamily(), bad)
    with pytest.raises(ValueError, match=re.escape(message)):
        enumerate_free(4, GraphFamily(), ceiling=bad)


@pytest.mark.parametrize("bad", [True, 2.0])
def test_workers_argument_is_an_int_not_a_float_or_bool(bad):
    message = f"workers argument must be an integer >= 1, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        enumerate_free(3, GraphFamily(), workers=bad)


def test_ceiling_text_and_int_agree(monkeypatch):
    for value in ("3.9", "True"):
        monkeypatch.setenv("MATCHTURAN_CEILING", value)
        with pytest.raises(ValueError, match="MATCHTURAN_CEILING must be an integer"):
            resolve_ceiling(GraphFamily())
    assert resolve_ceiling(GraphFamily(), 7) == 7


def test_negative_vertex_count_is_rejected(capsys):
    with pytest.raises(ValueError, match="vertex count"):
        next(enumerate_free(-1, GraphFamily()))
    assert main(["ex", "--n", "-1"]) == 2
    assert "vertex count" in capsys.readouterr().err


def test_invalid_workers_are_rejected(capsys):
    for bad in (0, -1):
        with pytest.raises(ValueError, match="workers argument"):
            next(enumerate_free(3, GraphFamily(), workers=bad))
        assert main(["ex", "--n", "3", "--workers", str(bad)]) == 2
        assert "--workers" in capsys.readouterr().err


def test_arguments_are_checked_at_the_call():
    # no next(): a bad argument must raise before the generator is resumed
    with pytest.raises(ValueError, match="vertex count"):
        enumerate_free(-1, GraphFamily())
    with pytest.raises(ValueError, match="workers argument"):
        enumerate_free(3, GraphFamily(), workers=0)
    with pytest.raises(CeilingError):
        enumerate_free(10, GraphFamily([path(6)]))
    with pytest.raises(ValueError, match="ceiling argument"):
        enumerate_free(3, GraphFamily(), ceiling=0)


def test_profile_pentagon():
    prof = ex_profile(cycle(5), 3, 4)
    assert prof.points == ((1, 0), (2, 1), (3, 0), (4, 0))
    assert prof.t == 2  # smallest maximizer; the profile is not monotone


def test_profile_triangle():
    prof = ex_profile(complete(3), 2, 3)
    assert prof.points == ((1, 1), (2, 2), (3, 3))
    assert prof.t == 3


def test_profile_path_limited_by_independent_cover():
    prof = ex_profile(path(4), 2, 3)
    assert prof.p_limit == 2  # min(s+1, p(P4)) = 2
    assert prof.points == ((1, 1),)
    assert prof.t == 1


def test_ex_payload_excludes_elapsed():
    res = ex_general(4, 2, GraphFamily([complete(3)], label="{K3}"))
    payload = res.to_payload()
    assert "elapsed" not in payload and "elapsed_sec" not in payload
    assert payload["value"] == 4  # Mantel on 4 vertices
    assert all(from_graph6(w).n == 4 for w in payload["witnesses"])


def _direct_round0_rejects(n, rows, u, v):
    """Round 0 computed on the child P + uv: some edge has both endpoints of
    degree > the smaller degree of u and v."""
    child = list(rows)
    child[u] |= 1 << v
    child[v] |= 1 << u
    deg = [r.bit_count() for r in child]
    low = min(deg[u], deg[v])
    return any(
        deg[a] > low and deg[b] > low
        for a in range(n)
        for b in range(a + 1, n)
        if child[a] >> b & 1
    )


def test_round0_tables_match_direct_rule_and_respect_orbits():
    """On seeded random parents, the O(1) per-parent rule equals round 0 on
    the child, is constant on Aut(P)-orbits of non-edges, and rejects only
    children that _top_class rejects too."""
    rng = random.Random(13)
    rejected = accepted = 0
    for _ in range(300):
        n = rng.randint(2, 9)
        p = rng.random()
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        rows = g.adj
        rejects = matchturan.solver._round0_rejects(n, rows)
        gens = canonical_form(g).automorphisms
        for u in range(n):
            for v in range(u + 1, n):
                if g.has_edge(u, v):
                    continue
                verdict = bool(rejects[u] >> v & 1)
                assert verdict == _direct_round0_rejects(n, rows, u, v), (g, u, v)
                for a, b in matchturan.solver._pair_orbit(u, v, gens):
                    assert bool(rejects[a] >> b & 1) == verdict
                if verdict:
                    child = add_edge(g, u, v)
                    assert matchturan.solver._top_class(child, u, v) is None
                rejected += verdict
                accepted += not verdict
    assert rejected > 500 and accepted > 500


def _colour_pair_top_class(child, u, v):
    """Oracle: an edge's colour is the sorted pair of its endpoints' colours
    under the child's root refinement; the edges of the largest colour, in
    (a, b) order, when uv has it, else None."""
    n = child.n
    colors = _colors(n, _root_cells(child))
    top = tuple(sorted((colors[u], colors[v])))
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            if child.has_edge(a, b):
                pair = tuple(sorted((colors[a], colors[b])))
                if pair > top:
                    return None
                if pair == top:
                    out.append((a, b))
    return out


def test_top_class_matches_the_colour_pair_definition(monkeypatch):
    """_top_class reads the top colour off the cells; it returns what the
    colour-pair scan returns, in the same order, on every child the
    enumeration tests and on random graphs."""
    real = matchturan.solver._top_class
    seen = Counter()

    def checked(child, u, v):
        out = real(child, u, v)
        assert out == _colour_pair_top_class(child, u, v), (child, u, v)
        seen[out is None] += 1
        return out

    monkeypatch.setattr(matchturan.solver, "_top_class", checked)
    assert sum(1 for _ in enumerate_free(7, GraphFamily())) == 1044
    assert seen[True] > 1000 and seen[False] > 1000
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randint(2, 16)
        p = rng.random()
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        for u, v in edges:
            g = Graph(n, edges)
            assert real(g, u, v) == _colour_pair_top_class(g, u, v), (g, u, v)


def test_enum_pair_call_counts(monkeypatch):
    """Deterministic work on ex(8, {M4}) + ex(9, {M3}): round 0 runs before
    the orbit mark and the member test, so each of those runs only on
    children that round 0 keeps."""
    names = ["_edge_creates_member", "_top_class", "_pair_orbit", "canonical_form"]
    calls = Counter()
    for name in names:
        real = getattr(matchturan.solver, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(matchturan.solver, name, counting)
    classes = sum(1 for _ in enumerate_free(8, GraphFamily([matching(4)])))
    classes += sum(1 for _ in enumerate_free(9, GraphFamily([matching(3)])))
    assert classes == 2090
    assert calls == {
        "_edge_creates_member": 4360,
        "_top_class": 3945,
        "_pair_orbit": 4753,
        "canonical_form": 2105,
    }


def test_cli_import_leaves_multiprocessing_out():
    """Only a level that forks imports multiprocessing."""
    src = str(Path(matchturan.solver.__file__).resolve().parent.parent)
    code = "import sys, matchturan.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
