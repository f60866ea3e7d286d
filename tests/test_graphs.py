import random
from itertools import combinations, permutations

import pytest

from matchturan.containment import GraphFamily
from matchturan.graphs import (
    Graph,
    Graph6Error,
    GraphCapacityError,
    add_edge,
    canonical_form,
    canonical_key,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    from_graph6,
    graph_from_pair_mask,
    induced,
    join_all,
    matching,
    path,
    read_graph6_lines,
    relabel,
    remove_edge,
    star,
    to_graph6,
    turan_graph,
)
from matchturan.solver import enumerate_free


def test_empty_constructor():
    assert empty(3).n == 3 and empty(3).edge_count() == 0
    assert empty(0).n == 0
    assert empty(10).edge_count() == 0


def test_named_constructors():
    assert complete(5).edge_count() == 10
    m = matching(3)
    assert m.n == 6 and m.edge_count() == 3
    assert max(m.degree(v) for v in range(6)) == 1
    assert complete_bipartite(2, 4).edge_count() == 8
    assert star(6).edge_count() == 5 and star(6).degree(0) == 5
    assert cycle(7).edge_count() == 7
    assert path(4).edge_count() == 3
    assert path(1).n == 1 and path(0).n == 0


def test_constructor_errors():
    with pytest.raises(GraphCapacityError):
        empty(65)
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        turan_graph(5, 0)
    with pytest.raises(ValueError):
        turan_graph(3, 4)


def test_turan_graph():
    assert canonical_key(turan_graph(5, 2)) == canonical_key(complete_bipartite(2, 3))
    assert turan_graph(5, 2).edge_count() == 6
    assert turan_graph(4, 4) == complete(4)
    # parts 3,2,2: cross pairs 3*2 + 3*2 + 2*2
    assert turan_graph(7, 3).edge_count() == 16


def test_turan_remainder_goes_to_early_parts():
    g = turan_graph(7, 3)
    # vertices 0..2 form the first (larger) part: mutually non-adjacent
    assert not g.has_edge(0, 1) and not g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert g.has_edge(2, 3)


def test_disjoint_union_and_join():
    g = disjoint_union(complete(2), empty(1))
    assert g.n == 3 and g.edge_count() == 1
    assert canonical_key(join_all(empty(2), empty(3))) == canonical_key(
        complete_bipartite(2, 3)
    )
    rng = random.Random(7)
    for _ in range(30):
        a = graph_from_pair_mask(4, rng.randrange(1 << 6))
        b = graph_from_pair_mask(5, rng.randrange(1 << 10))
        j = join_all(a, b)
        assert j.edge_count() == a.edge_count() + b.edge_count() + a.n * b.n


def test_induced():
    c5 = cycle(5)
    assert canonical_key(induced(c5, [0, 1, 2])) == canonical_key(path(3))
    g = graph_from_pair_mask(6, 0b101011010111)
    assert induced(g, range(6)) == g
    # hereditary: induced edges are exactly the original edges inside S
    sub = induced(g, [1, 3, 4])
    kept = sorted((u, v) for u, v in g.edges() if u in (1, 3, 4) and v in (1, 3, 4))
    remap = {1: 0, 3: 1, 4: 2}
    assert sorted(sub.edges()) == [(remap[u], remap[v]) for u, v in kept]


def test_add_remove_edge():
    g = empty(4)
    g2 = add_edge(g, 1, 3)
    assert g.edge_count() == 0 and g2.has_edge(1, 3)
    assert remove_edge(g2, 1, 3) == g
    with pytest.raises(ValueError):
        add_edge(g, 0, 4)


def _brute_isomorphic(g1, g2):
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    return any(relabel(g1, perm) == g2 for perm in permutations(range(g1.n)))


def test_canonical_form_invariance():
    c5 = cycle(5)
    key = canonical_key(c5)
    for perm in permutations(range(5)):
        assert canonical_key(relabel(c5, perm)) == key
    assert canonical_key(path(4)) != canonical_key(star(4))


def test_canonical_classes_on_four_vertices():
    """Independent oracle: pairwise permutation-based isomorphism over all
    2^6 labelled graphs gives 11 classes; canonical keys must agree."""
    graphs = [graph_from_pair_mask(4, m) for m in range(1 << 6)]
    reps = []
    for g in graphs:
        if not any(_brute_isomorphic(g, r) for r in reps):
            reps.append(g)
    assert len(reps) == 11
    assert len({canonical_key(g) for g in graphs}) == 11


def test_canonical_matches_brute_isomorphism_on_five_vertices():
    rng = random.Random(11)
    for _ in range(60):
        g1 = graph_from_pair_mask(5, rng.randrange(1 << 10))
        g2 = graph_from_pair_mask(5, rng.randrange(1 << 10))
        assert (canonical_key(g1) == canonical_key(g2)) == _brute_isomorphic(g1, g2)


def test_canonical_permutation_postcondition():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(0, 9)
        g = graph_from_pair_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
        cf = canonical_form(g)
        assert relabel(g, cf.permutation) == cf.graph


def _closure_orbits(n, gens):
    """Vertex and edge orbits of the group generated by gens."""

    def orbits(points, image):
        out, seen = set(), set()
        for x in points:
            if x in seen:
                continue
            orbit, stack = {x}, [x]
            while stack:
                y = stack.pop()
                for g in gens:
                    z = image(g, y)
                    if z not in orbit:
                        orbit.add(z)
                        stack.append(z)
            seen |= orbit
            out.add(frozenset(orbit))
        return out

    return orbits(range(n), lambda g, v: g[v]), orbits(
        combinations(range(n), 2), lambda g, e: tuple(sorted((g[e[0]], g[e[1]])))
    )


def test_automorphism_generators_match_brute_force():
    rng = random.Random(5)
    for n in range(0, 7):
        for rep in enumerate_free(n, GraphFamily()):
            perm = list(range(n))
            rng.shuffle(perm)
            g = relabel(rep, perm)
            cf = canonical_form(g)
            for sigma in cf.automorphisms:
                assert relabel(g, sigma) == g
            group = [p for p in permutations(range(n)) if relabel(g, p) == g]
            assert _closure_orbits(n, cf.automorphisms) == _closure_orbits(n, group)


def test_canonical_form_is_dict_key():
    d = {canonical_form(cycle(5)): "pentagon"}
    assert d[canonical_form(relabel(cycle(5), (2, 0, 4, 1, 3)))] == "pentagon"


def test_graph6_known_values():
    # hand-packed per the format: n=3 -> chr(66), bits 111000 -> chr(119)
    assert to_graph6(complete(3)) == "Bw"
    assert to_graph6(empty(1)) == "@"
    assert from_graph6("Bw") == complete(3)
    assert from_graph6("@") == empty(1)


def test_graph6_roundtrip_small():
    for n in range(0, 5):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_pair_mask(n, mask)
            assert from_graph6(to_graph6(g)) == g


def test_graph6_roundtrip_up_to_capacity():
    rng = random.Random(42)
    for _ in range(120):
        n = rng.randrange(0, 65)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25
        ]
        g = Graph(n, edges)
        assert from_graph6(to_graph6(g)) == g


def test_graph6_malformed():
    with pytest.raises(Graph6Error):
        from_graph6("")
    with pytest.raises(Graph6Error):
        from_graph6("Bw ")  # space is below the offset range
    with pytest.raises(Graph6Error):
        from_graph6("B")  # missing edge bits
    with pytest.raises(Graph6Error):
        from_graph6("@w")  # extra edge bits
    with pytest.raises(Graph6Error):
        from_graph6("A" + chr(63 + 0b010000))  # nonzero padding bit
    with pytest.raises(GraphCapacityError):
        from_graph6("~" + chr(63) + chr(63 + 1) + chr(63 + 1))  # n = 65


def test_graph6_corpus_lines():
    lines = [
        "# witnesses",
        "Bw  # the triangle",
        "",
        "D~{",
    ]
    graphs = read_graph6_lines(lines)
    assert graphs == [complete(3), complete(5)]
