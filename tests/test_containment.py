import random
from itertools import permutations

from graph_builders import add_edge, graph_from_pair_mask, is_family_free
import matchturan.containment
from matchturan.containment import (
    GraphFamily,
    _plan,
    _through_edge,
    contains_subgraph,
    contains_subgraph_using_edge,
    minimalize,
)
from matchturan.covering import family_fp
from matchturan.graphs import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    matching,
    path,
    read_graph6_lines,
    relabel,
    star,
    to_graph6,
)
from matchturan.solver import enumerate_free


def test_contains_basics():
    assert contains_subgraph(complete(4), complete(3))
    assert contains_subgraph(path(4), matching(2))  # the two end edges
    k2_k1 = disjoint_union(complete(2), empty(1))
    assert contains_subgraph(complete(3), k2_k1)
    assert not contains_subgraph(complete(2), k2_k1)  # too few vertices
    assert not contains_subgraph(star(5), matching(2))
    assert contains_subgraph(cycle(5), path(5))
    assert not contains_subgraph(cycle(5), cycle(4))


def test_contains_self_and_empty_pattern():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randrange(0, 7)
        g = graph_from_pair_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
        assert contains_subgraph(g, g)
        for k in range(0, 8):
            assert contains_subgraph(g, empty(k)) == (k <= n)


def _contains_all_injections(host, pattern):
    """Oracle: try every injective vertex map."""
    if pattern.n > host.n:
        return False
    pedges = list(pattern.edges())
    for img in permutations(range(host.n), pattern.n):
        if all(host.has_edge(img[a], img[b]) for a, b in pedges):
            return True
    return False


def test_contains_matches_all_injections_oracle():
    rng = random.Random(17)
    for _ in range(250):
        np_ = rng.randrange(1, 6)
        nh = rng.randrange(1, 8)
        pattern = graph_from_pair_mask(np_, rng.randrange(1 << (np_ * (np_ - 1) // 2)))
        host = graph_from_pair_mask(nh, rng.randrange(1 << (nh * (nh - 1) // 2)))
        assert contains_subgraph(host, pattern) == _contains_all_injections(
            host, pattern
        )


def test_contains_monotone_under_host_edges():
    rng = random.Random(23)
    for _ in range(60):
        host = graph_from_pair_mask(6, rng.randrange(1 << 15))
        pattern = graph_from_pair_mask(4, rng.randrange(1 << 6))
        if not contains_subgraph(host, pattern):
            continue
        u, v = rng.randrange(6), rng.randrange(6)
        if u != v and not host.has_edge(u, v):
            assert contains_subgraph(add_edge(host, u, v), pattern)


def test_contains_using_edge_matches_difference():
    rng = random.Random(31)
    for _ in range(200):
        host = graph_from_pair_mask(6, rng.randrange(1 << 15))
        pattern = graph_from_pair_mask(4, rng.randrange(1 << 6))
        if pattern.edge_count() == 0:
            continue
        non_edges = [
            (u, v)
            for u in range(6)
            for v in range(u + 1, 6)
            if not host.has_edge(u, v)
        ]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        bigger = add_edge(host, u, v)
        created = contains_subgraph_using_edge(bigger, pattern, u, v)
        assert created == (
            contains_subgraph(bigger, pattern) and not contains_subgraph(host, pattern)
        )


def test_using_edge_false_when_copy_avoids_the_edge():
    # a-b-c with uv = ab: the edge bc is already a copy of K2
    assert not contains_subgraph_using_edge(path(3), complete(2), 0, 1)
    assert contains_subgraph_using_edge(add_edge(empty(3), 0, 1), complete(2), 0, 1)


def _labelled_copies(n, pattern, index):
    """Edge masks (bit index[a, b] per edge) of every labelled copy of
    pattern among n vertices."""
    copies = set()
    for img in permutations(range(n), pattern.n):
        mask = 0
        for a, b in pattern.edges():
            x, y = sorted((img[a], img[b]))
            mask |= 1 << index[x, y]
        copies.add(mask)
    return copies


def test_using_edge_exhaustive_small_hosts(monkeypatch):
    # every labelled host on <= 5 vertices, every vertex pair, against an
    # oracle built from the labelled copies of each pattern; a non-edge is
    # answered without any search
    searches = []
    search = matchturan.containment.contains_subgraph

    def counted(host, pattern):
        searches.append(1)
        return search(host, pattern)

    monkeypatch.setattr(matchturan.containment, "contains_subgraph", counted)
    patterns = [
        complete(2), path(3), complete(3), cycle(4), matching(2), complete_bipartite(1, 3)
    ]
    for n in range(6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        index = {pair: i for i, pair in enumerate(pairs)}
        copies = [(p, _labelled_copies(n, p, index)) for p in patterns]
        for mask in range(1 << len(pairs)):
            host = empty(n)
            for (a, b), i in index.items():
                if mask >> i & 1:
                    host = add_edge(host, a, b)
            for pattern, cps in copies:
                for (u, v), i in index.items():
                    bit = 1 << i
                    expected = (
                        bool(mask & bit)
                        and any(c & mask == c for c in cps)
                        and not any(c & mask & ~bit == c for c in cps)
                    )
                    searches.clear()
                    got = contains_subgraph_using_edge(host, pattern, u, v)
                    assert got == expected, (to_graph6(host), to_graph6(pattern), u, v)
                    if not mask & bit:
                        assert not searches


def _paw():
    return add_edge(disjoint_union(complete(3), empty(1)), 2, 3)


ANCHORED_PATTERNS = {
    "K2": complete(2),
    "P3": path(3),
    "K3": complete(3),
    "P4": path(4),
    "C4": cycle(4),
    "paw": _paw(),
    "K1,3": complete_bipartite(1, 3),
    "P3+K2": disjoint_union(path(3), complete(2)),
    "K3+K1": disjoint_union(complete(3), empty(1)),
}


def _automorphisms(g):
    return [
        p for p in permutations(range(g.n))
        if all(g.has_edge(p[a], p[b]) for a, b in g.edges())
    ]


def test_plan_holds_one_arc_per_automorphism_orbit():
    for name, pattern in ANCHORED_PATTERNS.items():
        for perm in [tuple(range(pattern.n)), tuple(reversed(range(pattern.n)))]:
            g = relabel(pattern, perm)
            autos = _automorphisms(g)
            degs, arcs = _plan(g)
            assert degs == tuple(g.degree(v) for v in range(g.n))
            orbits = {
                frozenset((p[a], p[b]) for p in autos)
                for e in g.edges()
                for a, b in (e, e[::-1])
            }
            assert len(arcs) == len(orbits), name
            for orbit in orbits:
                assert sum((a, b) in orbit for a, b, _ in arcs) == 1, name
            # each search places every other non-isolated vertex once, after
            # the neighbours it is checked against
            for a, b, steps in arcs:
                placed = [a, b] + [w for w, _, _ in steps]
                assert sorted(placed) == [v for v in range(g.n) if g.degree(v)]
                for i, (w, need, back) in enumerate(steps):
                    assert need == g.degree(w)
                    assert set(back) == {x for x in placed[: i + 2] if g.has_edge(w, x)}


def test_anchored_search_matches_labelled_copies():
    # every labelled host on <= 5 vertices and every host edge uv: a search
    # through uv succeeds iff some labelled copy inside the host uses uv
    for n in range(6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        index = {pair: i for i, pair in enumerate(pairs)}
        copies = [
            (name, _plan(p), _labelled_copies(n, p, index))
            for name, p in ANCHORED_PATTERNS.items()
        ]
        for mask in range(1 << len(pairs)):
            host = graph_from_pair_mask(n, mask)
            inside = [
                (name, plan, [c for c in cps if c & mask == c])
                for name, plan, cps in copies
            ]
            for (u, v), i in index.items():
                if not mask >> i & 1:
                    continue
                for name, plan, cps in inside:
                    expected = any(c >> i & 1 for c in cps)
                    for x, y in ((u, v), (v, u)):
                        got = _through_edge(host, plan, x, y)
                        assert got == expected, (to_graph6(host), name, x, y)


def test_family_dedup_and_membership():
    fam = GraphFamily([complete(3), cycle(3), path(3)], label="x")
    assert len(fam) == 2
    assert complete(3) in fam and path(3) in fam
    assert matching(2) not in fam
    # label-independent equality
    assert fam == GraphFamily([path(3), complete(3)], label="y")


def test_family_serialization_roundtrip():
    fam = GraphFamily([complete(3), matching(2)], label="forbidden pair")
    lines = fam.to_lines()
    assert lines[0] == "# forbidden pair"
    assert GraphFamily(read_graph6_lines(lines)) == fam
    # a blank first line and inline comments keep the members
    edited = ["", lines[0]] + [f"{g6}  # member {i}" for i, g6 in enumerate(lines[1:])]
    assert GraphFamily(read_graph6_lines(edited)) == fam


def test_is_family_free():
    assert is_family_free(complete(5), GraphFamily([matching(3)]))
    assert is_family_free(cycle(5), GraphFamily([complete(3)]))
    g = add_edge(complete_bipartite(2, 3), 0, 1)
    assert not is_family_free(g, GraphFamily([complete(3)]))
    assert is_family_free(complete(6), GraphFamily())


def test_minimalize():
    fam = minimalize(GraphFamily([complete(3), complete(4)]))
    assert list(fam) == list(GraphFamily([complete(3)]))
    fam2 = minimalize(GraphFamily([path(3), matching(2)]))
    assert len(fam2) == 2  # incomparable
    fam3 = minimalize(family_fp(complete(4), 4))
    assert list(fam3) == list(GraphFamily([complete(3)]))


def test_minimalize_does_not_recanonicalize(monkeypatch):
    c5 = relabel(cycle(5), (3, 0, 4, 2, 1))
    fam = GraphFamily([complete(4), c5, complete(3)], label="L")
    expected = GraphFamily([relabel(cycle(5), (1, 3, 0, 4, 2)), complete(3)], label="L")

    def no_call(g):
        raise AssertionError("minimalize called canonical_form")

    monkeypatch.setattr(matchturan.containment, "canonical_form", no_call)
    reduced = minimalize(fam)
    assert reduced == expected and reduced.label == "L"


def test_minimalize_preserves_freeness_exhaustively():
    fams = [
        GraphFamily([complete(3), complete(4), path(4)]),
        GraphFamily([path(3), matching(2), star(4)]),
        family_fp(cycle(5), 5),
    ]
    for fam in fams:
        reduced = minimalize(fam)
        for n in range(1, 7):
            for g in enumerate_free(n, GraphFamily(), ceiling=7):
                assert is_family_free(g, fam) == is_family_free(g, reduced), to_graph6(g)
