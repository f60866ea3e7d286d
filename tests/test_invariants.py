import random
import time
from itertools import combinations, product
from math import comb

import pytest

from graph_builders import add_edge, graph_from_pair_mask
from matchturan.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    matching,
    path,
    relabel,
    star,
    turan_graph,
)
from matchturan.invariants import (
    CHROMATIC_MAX_NODES,
    ChromaticLimitError,
    TutteBergeCertificate,
    chromatic_number,
    clique_number,
    connected_components,
    count_cliques,
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


@pytest.mark.parametrize("g, omega", [(empty(0), 0), (empty(1), 1)], ids=["null", "K1"])
def test_clique_number_base_cases(g, omega):
    assert clique_number(g) == omega


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


def _twelve_pentagons() -> Graph:
    g = Graph(0)
    for _ in range(12):
        g = disjoint_union(g, cycle(5))
    return g


@pytest.mark.parametrize("label, build, value", [
    ("turan(64,4)", lambda: turan_graph(64, 4), 32),
    ("K(32,32)", lambda: complete_bipartite(32, 32), 32),
    ("star(32)", lambda: star(32), 1),
    ("empty(64)", lambda: empty(64), 0),
    ("12xC5", _twelve_pentagons, 24),
    ("cycle(64)", lambda: cycle(64), 32),
    ("matching(20)", lambda: matching(20), 20),
])
def test_matching_number_on_relabelled_large_shapes(label, build, value):
    # three random relabellings each: the greedy phase meets the vertices in
    # another order every time, and on star and cycle the blossom search has
    # to finish what it leaves
    g = build()
    for seed in range(3):
        h = relabel(g, random.Random(seed).sample(range(g.n), g.n))
        assert matching_number(h) == value
        assert tutte_berge_certificate(h).value == value


def _oracle_matching_number(g, avail=None):
    """The memoized search matching_number used before the blossom:
    exponential, exact.  With avail, the matching number of the subgraph
    induced on that vertex mask."""
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

    return rec(g.vertex_mask() if avail is None else avail)


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


def test_connected_components():
    g = disjoint_union(complete(3), path(2))
    comps = connected_components(g)
    assert sorted(c.bit_count() for c in comps) == [2, 3]


def test_tutte_berge_examples():
    assert tutte_berge_certificate(empty(0)) == TutteBergeCertificate((), (), 0)
    cert = tutte_berge_certificate(complete(5))
    assert cert.b == () and cert.value == 2 and cert.component_sizes == (5,)
    cert = tutte_berge_certificate(star(5))
    assert cert.b == (0,) and cert.value == 1
    cert = tutte_berge_certificate(disjoint_union(cycle(5), empty(1)))
    assert cert.b == () and cert.value == 2


def _tutte_berge_min_brute(g):
    """The least |B| + sum(floor(|C|/2)) over every vertex set B, by the
    exhaustive scan tutte_berge_certificate ran before it used the blossom."""
    full = g.vertex_mask()
    return min(
        bmask.bit_count() + sum(c.bit_count() // 2 for c in connected_components(g, full & ~bmask))
        for bmask in range(1 << g.n)
    )


@pytest.fixture(scope="module")
def classes_up_to_7():
    # one randomly relabelled representative of every class on 1..7 vertices
    rng = random.Random(7)
    return [
        relabel(rep, rng.sample(range(n), n))
        for n in range(1, 8)
        for rep in enumerate_free(n, GraphFamily(), ceiling=7)
    ]


def test_tutte_berge_equals_matching_number_exhaustive(classes_up_to_7):
    # duality on every isomorphism class up to 7 vertices: the certificate,
    # the minimum over every vertex set and the blossom all agree
    assert len(classes_up_to_7) == 1252
    for g in classes_up_to_7:
        value = tutte_berge_certificate(g).value
        assert value == _tutte_berge_min_brute(g) == matching_number(g), g


def test_tutte_berge_b_is_the_gallai_edmonds_set(classes_up_to_7):
    # b = A(G) = N(D) - D, with D = {v : nu(G - v) = nu(G)} found by the
    # exponential matching oracle, not by the alternating forest
    for g in classes_up_to_7:
        full = g.vertex_mask()
        nu = _oracle_matching_number(g)
        d = [v for v in range(g.n) if _oracle_matching_number(g, full & ~(1 << v)) == nu]
        dmask = sum(1 << v for v in d)
        near = 0
        for v in d:
            near |= g.adj[v]
        want = tuple(v for v in range(g.n) if (near & ~dmask) >> v & 1)
        cert = tutte_berge_certificate(g)
        assert cert.b == want, g
        rest = full & ~sum(1 << v for v in want)
        sizes = sorted(c.bit_count() for c in connected_components(g, rest))
        assert cert.component_sizes == tuple(sizes), g


def test_tutte_berge_value_on_random_graphs_up_to_64_vertices():
    rng = random.Random(65)
    for _ in range(150):
        n = rng.randrange(1, 65)
        g = _random_graph(rng, n, rng.choice([0.02, 0.05, 3 / n, 0.1, 0.3, 0.7]))
        assert tutte_berge_certificate(g).value == matching_number(g)


def test_tutte_berge_tie_break_deterministic():
    # double star: {0}, {1} and {0, 1} all reach value 2; b is A(G), the
    # vertices outside D(G) next to it, so both centres
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    cert = tutte_berge_certificate(g)
    assert cert == tutte_berge_certificate(g)
    assert cert.value == 2 == matching_number(g)
    assert cert.b == (0, 1)


def test_tutte_berge_is_fast_on_64_vertex_probes():
    # G(20, 0.3) was refused after the old scan over vertex sets reached ~5 s
    probes = [
        _random_graph(random.Random(20), 20, 0.3),
        _random_graph(random.Random(64), 64, 0.5),
        _random_graph(random.Random(3), 64, 3 / 64),
        complete(64),
        empty(64),
        matching(32),
    ]
    for g in probes:
        t0 = time.perf_counter()
        cert = tutte_berge_certificate(g)
        assert time.perf_counter() - t0 < 0.05
        assert cert.value == matching_number(g)


def test_split_construction_is_matching_bounded():
    # the 2-part covers every edge, so no 3 disjoint edges exist
    g = complete_bipartite(2, 8)
    for extra in (g, add_edge(g, 0, 1)):
        assert matching_number(extra) <= 2
        assert tutte_berge_certificate(extra).value <= 2
