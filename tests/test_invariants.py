import random
import time
from itertools import combinations, product
from math import comb

import pytest

from graph_builders import graph_from_pair_mask
from matchturan.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    add_edge,
    matching,
    path,
    relabel,
    star,
    turan_graph,
)
from matchturan.invariants import (
    CHROMATIC_MAX_NODES,
    TUTTE_BERGE_MAX_SETS,
    ChromaticLimitError,
    TutteBergeLimitError,
    chromatic_number,
    clique_number,
    connected_components,
    count_cliques,
    is_msplus1_free,
    matching_number,
    tutte_berge_certificate,
)
from matchturan.solver import enumerate_free
from matchturan.containment import GraphFamily


def test_count_cliques_basics():
    assert count_cliques(complete(5), 3) == 10
    assert count_cliques(turan_graph(6, 2), 3) == 0
    assert count_cliques(empty(4), 1) == 4
    assert count_cliques(complete(3), 5) == 0
    with pytest.raises(ValueError):
        count_cliques(complete(3), 0)


def test_count_cliques_binomial_identity():
    for n in range(0, 11):
        for r in range(1, n + 1):
            assert count_cliques(complete(n), r) == comb(n, r)


def test_count_cliques_edges():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 8)
        g = graph_from_pair_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
        assert count_cliques(g, 2) == g.edge_count()


def test_count_cliques_split_construction():
    # K_{2,7} with an empty 2-part filling: one edge per cross pair
    g = complete_bipartite(2, 7)
    assert count_cliques(g, 2) == 14 == g.edge_count()


def _count_cliques_brute(g, r):
    total = 0
    for sub in combinations(range(g.n), r):
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
            total += 1
    return total


def test_count_cliques_against_subset_brute_force():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(1, 8)
        g = graph_from_pair_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
        for r in range(1, n + 1):
            assert count_cliques(g, r) == _count_cliques_brute(g, r)


def test_chromatic_number_basics():
    assert chromatic_number(cycle(5)) == 3
    assert chromatic_number(empty(4)) == 1
    assert chromatic_number(empty(0)) == 0
    assert chromatic_number(complete(6)) == 6
    assert chromatic_number(turan_graph(7, 3)) == 3


def test_chromatic_number_petersen(petersen):
    # exhaustive check that no proper 2-colouring exists, then trust the
    # solver to find a 3-colouring
    for assignment in range(1 << 10):
        if all(
            (assignment >> u & 1) != (assignment >> v & 1) for u, v in petersen.edges()
        ):
            pytest.fail("found a 2-colouring of the Petersen graph")
    assert chromatic_number(petersen) == 3


def test_chromatic_at_least_clique_number():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 8)
        g = graph_from_pair_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
        assert chromatic_number(g) >= clique_number(g)


def test_chromatic_equals_clique_on_complete_multipartite():
    # perfect graphs in the corpus: chi == omega
    for p in range(1, 9):
        for k in range(1, p + 1):
            g = turan_graph(p, k)
            assert chromatic_number(g) == clique_number(g) == min(k, p)


def _chromatic_brute(g):
    for k in range(g.n + 1):
        for colors in product(range(k), repeat=g.n):
            if all(colors[u] != colors[v] for u, v in g.edges()):
                return k


def test_chromatic_number_matches_brute_force():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randrange(0, 8)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < rng.random()])
        assert chromatic_number(g) == _chromatic_brute(g), g


def test_chromatic_number_refuses_a_long_search_quickly():
    # G(64, 1/2): the colouring backtracking ran for over 10 s
    rng = random.Random(64)
    g = Graph(64, [e for e in combinations(range(64), 2) if rng.random() < 0.5])
    t0 = time.perf_counter()
    with pytest.raises(ChromaticLimitError, match=f"^{CHROMATIC_MAX_NODES + 1} colouring"):
        chromatic_number(g)
    assert time.perf_counter() - t0 < 1.0


def _matching_brute(g):
    edges = list(g.edges())
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for sub in combinations(edges, size):
            verts = [v for e in sub for v in e]
            if len(set(verts)) == 2 * size:
                best = max(best, size)
                break
    return best


def test_matching_number_basics():
    assert matching_number(complete(5)) == 2
    assert matching_number(star(6)) == 1
    assert matching_number(cycle(7)) == 3
    assert matching_number(empty(5)) == 0
    assert matching_number(matching(4)) == 4


def test_matching_number_against_all_matchings():
    rng = random.Random(21)
    checked = 0
    for _ in range(200):
        n = rng.randrange(1, 8)
        g = graph_from_pair_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
        if g.edge_count() > 12:
            continue
        checked += 1
        assert matching_number(g) == _matching_brute(g)
    assert checked > 100


def test_matching_number_structured():
    assert matching_number(complete_bipartite(2, 60)) == 2
    assert matching_number(complete(15)) == 7
    assert matching_number(turan_graph(9, 3)) == 4


def _oracle_matching_number(g):
    """The memoized search matching_number used before the blossom:
    exponential, exact."""
    adj = g.adj
    memo = {}

    def rec(avail):
        m = avail
        v = -1
        while m:
            b = m & -m
            c = b.bit_length() - 1
            if adj[c] & avail:
                v = c
                break
            m ^= b
        if v < 0:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        cap = avail.bit_count() // 2
        best = 0
        nb = adj[v] & avail
        rest = avail & ~(1 << v)
        while nb:
            b = nb & -nb
            nb ^= b
            val = 1 + rec(rest & ~b)
            if val > best:
                best = val
                if best == cap:
                    break
        if best < cap:
            val = rec(rest)  # v left unmatched
            if val > best:
                best = val
        memo[avail] = best
        return best

    return rec((1 << g.n) - 1)


def test_blossom_matches_oracle_on_small_graphs():
    for n in range(0, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_pair_mask(n, mask)
            assert matching_number(g) == _oracle_matching_number(g)
    # the matching number is an isomorphism invariant: one relabelled
    # representative per class covers every graph on 6 and 7 vertices
    rng = random.Random(6)
    for n in (6, 7):
        for rep in enumerate_free(n, GraphFamily()):
            perm = list(range(n))
            rng.shuffle(perm)
            g = relabel(rep, perm)
            assert matching_number(g) == _oracle_matching_number(g)


def test_blossom_matches_oracle_on_random_graphs():
    rng = random.Random(8)
    for _ in range(400):
        n = rng.randrange(1, 11)
        g = graph_from_pair_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
        assert matching_number(g) == _oracle_matching_number(g)


def _random_graph(rng, n, p):
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def test_blossom_matches_networkx_up_to_64_vertices():
    nx = pytest.importorskip("networkx")
    rng = random.Random(64)
    for _ in range(150):
        n = rng.randrange(1, 65)
        g = _random_graph(rng, n, rng.choice([0.02, 0.05, 3 / n, 0.1, 0.3, 0.7]))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        assert matching_number(g) == len(nx.max_weight_matching(h, maxcardinality=True))


def test_matching_number_is_fast_on_sparse_40_vertex_graphs():
    g = _random_graph(random.Random(40), 40, 0.1)
    t0 = time.perf_counter()
    matching_number(g)
    assert time.perf_counter() - t0 < 1.0


def test_is_msplus1_free():
    assert is_msplus1_free(complete(5), 2)
    assert not is_msplus1_free(matching(3), 2)
    assert is_msplus1_free(empty(10), 0)
    with pytest.raises(ValueError):
        is_msplus1_free(empty(1), -1)


def test_connected_components():
    g = disjoint_union(complete(3), path(2))
    comps = connected_components(g)
    assert sorted(c.bit_count() for c in comps) == [2, 3]


def test_tutte_berge_examples():
    cert = tutte_berge_certificate(complete(5))
    assert cert.b == () and cert.value == 2 and cert.component_sizes == (5,)
    cert = tutte_berge_certificate(star(5))
    assert cert.b == (0,) and cert.value == 1
    cert = tutte_berge_certificate(disjoint_union(cycle(5), empty(1)))
    assert cert.b == () and cert.value == 2


def test_tutte_berge_equals_matching_number_exhaustive():
    # duality in both directions on every isomorphism class up to 6 vertices
    for n in range(1, 7):
        for g in enumerate_free(n, GraphFamily(), ceiling=7):
            assert tutte_berge_certificate(g).value == matching_number(g)


def test_tutte_berge_tie_break_deterministic():
    from matchturan.graphs import Graph

    # double star: either centre alone (or both) minimizes at value 2
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    cert = tutte_berge_certificate(g)
    assert cert == tutte_berge_certificate(g)
    assert cert.value == 2 == matching_number(g)
    assert cert.b == (0,)  # lexicographically least among the minimizers


def test_tutte_berge_refuses_a_long_scan_quickly():
    # G(20, 0.3): the scan over every set of at most nu vertices took ~5 s
    rng = random.Random(20)
    g = Graph(20, [e for e in combinations(range(20), 2) if rng.random() < 0.3])
    sets = sum(comb(20, k) for k in range(matching_number(g) + 1))
    assert sets > TUTTE_BERGE_MAX_SETS
    t0 = time.perf_counter()
    with pytest.raises(TutteBergeLimitError, match=f"^{sets} vertex sets to scan"):
        tutte_berge_certificate(g)
    assert time.perf_counter() - t0 < 0.1


def test_split_construction_is_matching_bounded():
    # the 2-part covers every edge, so no 3 disjoint edges exist
    g = complete_bipartite(2, 8)
    for extra in (g, add_edge(g, 0, 1)):
        assert is_msplus1_free(extra, 2)
        assert tutte_berge_certificate(extra).value <= 2
