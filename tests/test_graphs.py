import random
import time
from hashlib import sha256
from itertools import combinations, permutations

import pytest

from graph_builders import add_edge, graph_from_pair_mask
from matchturan import graphs, solver
from matchturan.containment import GraphFamily
from matchturan.graphs import (
    CanonicalForm,
    Graph,
    Graph6Error,
    GraphCapacityError,
    _bits,
    _colors,
    _count_planes,
    _cycles,
    _orbit_roots,
    _permuted_rows,
    _picked_rows,
    _raw,
    _refine,
    _twin_order,
    canonical_form,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    from_graph6,
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
    with pytest.raises(ValueError, match="negative vertex count -1"):
        complete(-1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Graph(-1), ValueError, "^negative vertex count -1$"),
    (lambda: complete(65), GraphCapacityError, "^K_65 exceeds capacity$"),
    (lambda: disjoint_union(complete(40), empty(25)), GraphCapacityError,
     "^union on 65 vertices exceeds capacity$"),
    (lambda: induced(path(3), [0, 3]), ValueError, "^vertex 3 out of range for n=3$"),
    (lambda: remove_edge(path(3), 0, 3), ValueError, r"^edge \(0,3\) out of range for n=3$"),
    (lambda: from_graph6("~??"), Graph6Error, "^truncated vertex count"),
    (lambda: from_graph6("~~???"), Graph6Error, "beyond 258047 vertices unsupported$"),
], ids=["Graph(-1)", "complete(65)", "union", "induced", "remove_edge",
        "graph6-truncated-header", "graph6-past-258047"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_turan_graph():
    assert (
        canonical_form(turan_graph(5, 2)).key()
        == canonical_form(complete_bipartite(2, 3)).key()
    )
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
    assert canonical_form(join_all(empty(2), empty(3))).key() == canonical_form(
        complete_bipartite(2, 3)
    ).key()
    rng = random.Random(7)
    for _ in range(30):
        a = graph_from_pair_mask(4, rng.randrange(1 << 6))
        b = graph_from_pair_mask(5, rng.randrange(1 << 10))
        j = join_all(a, b)
        assert j.edge_count() == a.edge_count() + b.edge_count() + a.n * b.n


def test_induced():
    c5 = cycle(5)
    assert canonical_form(induced(c5, [0, 1, 2])).key() == canonical_form(path(3)).key()
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


def test_relabel_rejects_non_permutations():
    g = path(3)
    assert relabel(g, (2, 1, 0)) == g
    # a repeated index used to give a looped, asymmetric Graph, a negative
    # one a bare "negative shift count"
    for perm in ([0, 0, 1], [-1, 0, 1], [0, 1], [0, 1, 2, 3], [1, 2, 3]):
        with pytest.raises(ValueError, match=r"^relabel needs a permutation of range\(3\)"):
            relabel(g, perm)


def _brute_isomorphic(g1, g2):
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    return any(relabel(g1, perm) == g2 for perm in permutations(range(g1.n)))


def test_canonical_form_invariance():
    c5 = cycle(5)
    key = canonical_form(c5).key()
    for perm in permutations(range(5)):
        assert canonical_form(relabel(c5, perm)).key() == key
    assert canonical_form(path(4)).key() != canonical_form(star(4)).key()


def test_canonical_classes_on_four_vertices():
    """Independent oracle: pairwise permutation-based isomorphism over all
    2^6 labelled graphs gives 11 classes; canonical keys must agree."""
    graphs = [graph_from_pair_mask(4, m) for m in range(1 << 6)]
    reps = []
    for g in graphs:
        if not any(_brute_isomorphic(g, r) for r in reps):
            reps.append(g)
    assert len(reps) == 11
    assert len({canonical_form(g).key() for g in graphs}) == 11


def test_canonical_matches_brute_isomorphism_on_five_vertices():
    rng = random.Random(11)
    for _ in range(60):
        g1 = graph_from_pair_mask(5, rng.randrange(1 << 10))
        g2 = graph_from_pair_mask(5, rng.randrange(1 << 10))
        same = canonical_form(g1).key() == canonical_form(g2).key()
        assert same == _brute_isomorphic(g1, g2)


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


def _oracle_refine(n, adj, colors):
    # the equitable refinement that canonical_form used before automorphism
    # pruning: one 1024-bit signature int per vertex
    while True:
        sigs = []
        for v in range(n):
            acc = colors[v] << 1024
            m = adj[v]
            while m:
                b = m & -m
                acc += 1 << 7 * colors[b.bit_length() - 1]
                m ^= b
            sigs.append(acc)
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _oracle_canonical_form(g):
    """canonical_form before automorphism pruning: the full search tree less
    the siblings in the orbit of an explored one, recording every
    automorphism a repeated leaf yields."""
    n = g.n
    if n == 0:
        return CanonicalForm(g, ())
    adj = g.adj
    base = _oracle_refine(n, adj, [0] * n)

    best_rows = None
    best_perm = None
    leaf_first = {}
    autos = []

    def record_leaf(colors):
        nonlocal best_rows, best_perm
        rows = _permuted_rows(n, adj, colors)
        if best_rows is None or rows < best_rows:
            best_rows, best_perm = rows, list(colors)
        prev = leaf_first.get(rows)
        if prev is None:
            leaf_first[rows] = list(colors)
        else:
            inv_prev = [0] * n
            for v, p in enumerate(prev):
                inv_prev[p] = v
            sigma = tuple(inv_prev[colors[v]] for v in range(n))
            if any(sigma[v] != v for v in range(n)) and sigma not in autos:
                autos.append(sigma)

    def orbit_mask(v, gens):
        seen = 1 << v
        stack = [v]
        while stack:
            x = stack.pop()
            for s in gens:
                y = s[x]
                if not seen >> y & 1:
                    seen |= 1 << y
                    stack.append(y)
        return seen

    def descend(colors, fixed):
        cell_of = {}
        for v in range(n):
            cell_of.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(cell_of):
            if len(cell_of[c]) > 1:
                target = cell_of[c]
                break
        if target is None:
            record_leaf(colors)
            return
        tried_mask = 0
        stab = []
        stab_upto = 0
        for w in target:
            if tried_mask:
                if stab_upto < len(autos):
                    stab = [s for s in autos if all(s[f] == f for f in fixed)]
                    stab_upto = len(autos)
                if stab and orbit_mask(w, stab) & tried_mask:
                    continue
            tried_mask |= 1 << w
            nc = [2 * c + 1 for c in colors]
            nc[w] -= 1
            fixed.append(w)
            descend(_oracle_refine(n, adj, nc), fixed)
            fixed.pop()

    descend(base, [])
    return CanonicalForm(_raw(n, best_rows), tuple(best_perm), tuple(autos))


def _assert_same_as_oracle(g):
    cf, oracle = canonical_form(g), _oracle_canonical_form(g)
    assert cf.graph.adj == oracle.graph.adj
    assert cf.permutation == oracle.permutation
    assert _closure_orbits(g.n, cf.automorphisms) == _closure_orbits(
        g.n, oracle.automorphisms
    )
    for sigma in cf.automorphisms:
        assert relabel(g, sigma) == g


def test_canonical_form_matches_oracle_on_every_small_labelled_graph():
    for n in range(0, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            _assert_same_as_oracle(graph_from_pair_mask(n, mask))


@pytest.mark.parametrize("n", [6, 7])
def test_canonical_form_matches_oracle_on_relabelled_classes(n):
    rng = random.Random(n)
    for rep in enumerate_free(n, GraphFamily()):
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            _assert_same_as_oracle(relabel(rep, perm))


def _disjoint_cycles(k, length):
    g = empty(0)
    for _ in range(k):
        g = disjoint_union(g, cycle(length))
    return g


# the symmetric shapes of the benchmark's 64-vertex domain
_SYMMETRIC = [
    matching(6), matching(8), star(12), empty(12), cycle(12), cycle(16),
    turan_graph(12, 3), turan_graph(12, 4), complete_bipartite(6, 6),
    _disjoint_cycles(3, 5), _disjoint_cycles(4, 5), matching(20), star(32),
    empty(64), cycle(64), turan_graph(64, 4), complete_bipartite(32, 32),
    _disjoint_cycles(12, 5),
]


@pytest.mark.parametrize("g", _SYMMETRIC, ids=lambda g: f"n{g.n}e{g.edge_count()}")
def test_symmetric_shapes_canonicalize_quickly_with_few_generators(g):
    t0 = time.perf_counter()
    cf = canonical_form(g)
    assert time.perf_counter() - t0 < 2.0
    assert len(cf.automorphisms) <= g.n - 1
    for sigma in cf.automorphisms:
        assert relabel(g, sigma) == g


def _random_graph(rng, n, p):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


# sha256 (first 16 hex digits) of the canonical rows and permutation of each
# _SYMMETRIC shape under the relabellings drawn from random.Random(64), as
# canonical_form gave them before its dense leaf rows, cell-local orbits and
# breadth-first component labelling; the oracle is too slow at this size
_PINNED = [
    "a506b320f9907719", "4340b1901c87c5c9", "c068d633ecd5cc0b", "43cdcc82e1407f28",
    "d39bc596bc8058f6", "ad5b663fd4ea9d40", "20a71a061f59c2e9", "9c1f52a6fd291c0c",
    "2ec249ca60e8f7d4", "278f404fdde30f27", "d0b3a782194d7c9b", "1598de2b219a5da7",
    "504bef4c849562a0", "d155fd0cc649c2a2", "d8390f2212158864", "fc05b57df7ddafe5",
    "a35127ea81cadf8f", "abff19c775cc3bf4",
]


def test_canonical_forms_of_the_symmetric_shapes_are_pinned():
    rng = random.Random(64)
    for g, digest in zip(_SYMMETRIC, _PINNED, strict=True):
        h = relabel(g, rng.sample(range(g.n), g.n))
        cf = canonical_form(h)
        assert sha256(repr((cf.graph.adj, cf.permutation)).encode()).hexdigest()[:16] == digest
        assert len(cf.automorphisms) <= g.n - 1
        for sigma in cf.automorphisms:
            assert relabel(h, sigma) == h


def _bit_loop_rows(n, adj, perm):
    rows = [0] * n
    for v in range(n):
        for u in _bits(adj[v]):
            rows[perm[v]] |= 1 << perm[u]
    return tuple(rows)


def test_dense_leaf_rows_match_the_bit_loop(monkeypatch):
    rng = random.Random(17)
    shapes = [
        _random_graph(rng, n, p)
        for n in (16, 17, 63, 64)
        for p in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
    ]
    # at the threshold: 8 bits per row on average keeps the bit loop, one
    # more edge takes the string path
    regular = Graph(16, [(v, (v + d) % 16) for v in range(16) for d in range(1, 5)])
    shapes += [complete(64), empty(64), regular, add_edge(regular, 0, 8)]
    picked = []

    def spy(n, adj, order):
        picked.append(adj)
        return _picked_rows(n, adj, order)

    monkeypatch.setattr(graphs, "_picked_rows", spy)
    for g in shapes:
        perm = rng.sample(range(g.n), g.n)
        assert _permuted_rows(g.n, g.adj, perm) == _bit_loop_rows(g.n, g.adj, perm)
    assert regular.adj not in picked
    assert add_edge(regular, 0, 8).adj in picked and complete(64).adj in picked


def _nested_forms(monkeypatch, g):
    # the canonical_form calls that component seeding makes inside g's
    calls = []

    def spy(sub, _real=graphs.canonical_form):
        calls.append(sub)
        return _real(sub)

    monkeypatch.setattr(graphs, "canonical_form", spy)
    cf = canonical_form(g)
    monkeypatch.undo()
    return cf, calls


@pytest.mark.parametrize(
    "g",
    [_disjoint_cycles(12, 5), matching(20), turan_graph(64, 4), complete_bipartite(32, 32)],
    ids=["12C5", "M20", "T64,4", "K32,32"],
)
def test_component_classes_are_labelled_once(g, monkeypatch):
    # copies labelled breadth-first from their least vertex induce equal
    # rows, so each class of copies (of the complement's components for the
    # two connected shapes) costs one canonical_form
    g = relabel(g, random.Random(21).sample(range(g.n), g.n))
    cf, calls = _nested_forms(monkeypatch, g)
    assert len(calls) == 1
    assert len(cf.automorphisms) <= g.n - 1
    for sigma in cf.automorphisms:
        assert relabel(g, sigma) == g


def _cells(n, colors):
    cells = [0] * (max(colors) + 1)
    for v in range(n):
        cells[colors[v]] |= 1 << v
    return cells


def test_refine_matches_oracle_colour_for_colour():
    # at the root, then after individualising each vertex of the first
    # non-singleton cell, following the first child 3 levels deep
    rng = random.Random(64)
    densities = [0.05, 0.25, 0.5, 0.75, 0.95]
    graphs = [_random_graph(rng, n, densities[n % 5]) for n in range(1, 65, 3)]
    for g in graphs + _SYMMETRIC:
        n, adj = g.n, g.adj
        colors = _oracle_refine(n, adj, [0] * n)
        assert _colors(n, _refine(adj, [(1 << n) - 1], [0])) == colors
        for _ in range(3):
            cells = _cells(n, colors)
            i = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
            if i is None:
                break
            children = []
            for w in _bits(cells[i]):
                nc = [2 * c + 1 for c in colors]
                nc[w] -= 1
                b = 1 << w
                split = [*cells[:i], b, cells[i] ^ b, *cells[i + 1 :]]
                child = _colors(n, _refine(adj, split, [i, i + 1]))
                assert child == _oracle_refine(n, adj, nc), (g, w)
                children.append(child)
            colors = children[0]


def test_count_planes_are_bit_sliced_neighbour_counts():
    rng = random.Random(11)
    for n in range(1, 65):
        g = _random_graph(rng, n, rng.random())
        for f in (0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(4))):
            planes = _count_planes(g.adj, f)
            for v in range(n):
                count = sum((p >> v & 1) << i for i, p in enumerate(planes))
                assert count == (g.adj[v] & f).bit_count(), (g, f, v)


def _degree_cells(n, adj):
    return [c for c in _cells(n, [adj[v].bit_count() for v in range(n)]) if c]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_refine_matches_oracle_on_groups_of_three_or_more_fragments(where):
    # The degree cells are the fragments of the one root cell, a group with
    # >= 3 fragments here, whose largest comes first, in the middle or last
    # in key order.  Each graph splits further against that group, at the
    # root and when _refine starts from the degree cells.
    rng = random.Random(where)
    found = 0
    while found < 12:
        n = rng.randint(6, 40)
        g = _random_graph(rng, n, rng.uniform(0.1, 0.9))
        n, adj = g.n, g.adj
        frags = _degree_cells(n, adj)
        sizes = [f.bit_count() for f in frags]
        big = sizes.index(max(sizes))
        at = "first" if big == 0 else "last" if big == len(frags) - 1 else "middle"
        colors = _oracle_refine(n, adj, [0] * n)
        if len(frags) < 3 or at != where or max(colors) + 1 == len(frags):
            continue
        found += 1
        assert _colors(n, _refine(adj, [(1 << n) - 1], [0])) == colors, g
        assert _colors(n, _refine(adj, frags, list(range(len(frags))))) == colors, g


def _auto(sigma):
    support = sum(1 << v for v, x in enumerate(sigma) if x != v)
    return (sigma, support, *_cycles(sigma, support))


def test_cycles_give_tails_and_spanning_links():
    # (0 1 2)(3 4): 1, 2 and 4 are not the least of their cycle, and the
    # edges 0 -> 1, 1 -> 2 and 3 -> 4 span both cycles
    assert _auto((1, 2, 0, 4, 3))[2:] == (0b10110, 0b01011)
    assert _auto((0, 1, 2))[2:] == (0, 0)


def test_orbits_follow_only_automorphisms_that_fix_the_prefix():
    # vertex 0 individualised, target cell {1, 2, 3, 4}: (0 1)(2 3) moves it
    # and is ignored; (1 3), then (2 3), join 1, 2 and 3, though 2 is the
    # least of its cycle in both, so only the union-find drops it
    cell = 0b11110
    autos = [_auto((1, 0, 3, 2, 4))]
    assert _orbit_roots(5, autos, 1 << 0, cell, cell) == cell
    autos.append(_auto((0, 3, 2, 1, 4)))
    assert _orbit_roots(5, autos, 1 << 0, cell, cell) == 0b10110
    autos.append(_auto((0, 1, 3, 2, 4)))
    assert _orbit_roots(5, autos, 1 << 0, cell, 0b10110) == 0b10010
    assert _orbit_roots(5, autos, 1 << 0, cell, 0b10010) == 0b10010  # nothing new


def test_orbit_roots_match_a_plain_union_find():
    # random permutation sets on up to 16 points, split into a prefix, a
    # target cell and the rest; a permutation that fixes the prefix maps the
    # cell onto itself, as an automorphism maps a node's target cell
    rng = random.Random(27)
    pruned = 0
    for _ in range(400):
        n = rng.randint(2, 16)
        points = rng.sample(range(n), n)
        k = rng.randint(0, n - 2)
        prefix, cell = points[:k], points[k : k + rng.randint(2, n - k)]
        rest = points[k + len(cell) :]
        prefix_mask = sum(1 << v for v in prefix)
        cell_mask = sum(1 << v for v in cell)
        autos = []
        for _ in range(rng.randint(0, 6)):
            if prefix and rng.random() < 0.3:  # moves prefix[0]: any permutation
                sigma = rng.sample(range(n), n)
                j = sigma.index(rng.choice([v for v in range(n) if v != prefix[0]]))
                sigma[prefix[0]], sigma[j] = sigma[j], sigma[prefix[0]]
            else:
                sigma = list(range(n))
                for part in (cell, rest):
                    for v, x in zip(part, rng.sample(part, len(part))):
                        sigma[v] = x
            autos.append(_auto(tuple(sigma)))
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for sigma, support, _, _ in autos:
            if not support & prefix_mask:
                for v in cell:
                    a, b = find(v), find(sigma[v])
                    parent[max(a, b)] = min(a, b)
        mask = cell_mask & rng.getrandbits(n) if rng.random() < 0.5 else cell_mask
        expected = sum(1 << v for v in cell if mask >> v & 1 and find(v) == v)
        assert _orbit_roots(n, autos, prefix_mask, cell_mask, mask) == expected, autos
        pruned += expected != mask
    assert pruned > 100  # sets in which some vertex of the mask is no root


@pytest.mark.parametrize("n", range(12, 65))
def test_canonical_form_matches_oracle_on_sparse_random_graphs(n):
    _assert_same_as_oracle(_random_graph(random.Random(n), n, 3 / n))


@pytest.mark.parametrize(
    "g", [g for g in _SYMMETRIC if g.n <= 20], ids=lambda g: f"n{g.n}e{g.edge_count()}"
)
def test_canonical_form_matches_oracle_on_symmetric_shapes(g):
    _assert_same_as_oracle(g)


def test_twin_order_finds_cells_of_pairwise_twins():
    g = join_all(complete(3), empty(3))  # true twins 0..2, false twins 3..5
    assert _twin_order(g.adj, 0b000111) == [0, 1, 2]
    assert _twin_order(g.adj, 0b111000) == [3, 4, 5]
    assert _twin_order(g.adj, 0b111111) is None
    p = path(4)  # 0 and 3 have equal degree, not equal neighbourhoods
    assert _twin_order(p.adj, 0b1001) is None
    assert _twin_order(p.adj, 0b0110) is None
    assert _twin_order(add_edge(star(4), 1, 2).adj, 0b1110) is None  # partly twins


def _blow_up(rng, base_n, isolated):
    # each base vertex becomes 1-4 copies, pairwise adjacent (true twins) or
    # not (false twins); then isolated vertices, and a random relabelling
    base = {e for e in combinations(range(base_n), 2) if rng.random() < 0.5}
    verts = [(v, c) for v in range(base_n) for c in range(rng.randint(1, 4))]
    true = {v for v in range(base_n) if rng.random() < 0.5}
    edges = [
        (i, j)
        for (i, (u, _)), (j, (v, _)) in combinations(enumerate(verts), 2)
        if (u in true if u == v else (u, v) in base)
    ]
    n = len(verts) + isolated
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, edges), perm)


def _twin_shapes():
    rng = random.Random(15)
    shapes = [
        join_all(complete(4), empty(5)),
        join_all(complete(3), disjoint_union(complete(3), empty(3))),
        disjoint_union(star(5), empty(4)),
        disjoint_union(disjoint_union(star(4), star(4)), empty(2)),
        disjoint_union(complete(4), complete(4)),
        complete_bipartite(3, 5),
    ]
    out = []
    for g in shapes:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(relabel(g, perm))
    out += [_blow_up(rng, rng.randint(1, 5), rng.randint(0, 3)) for _ in range(40)]
    return out


@pytest.mark.parametrize("g", _twin_shapes(), ids=lambda g: f"n{g.n}e{g.edge_count()}")
def test_canonical_form_matches_oracle_on_twin_cells(g):
    _assert_same_as_oracle(g)


@pytest.mark.parametrize(
    "g",
    [empty(64), complete(12), complete_bipartite(32, 32), turan_graph(64, 4)],
    ids=["empty64", "K12", "K32,32", "T64,4"],
)
def test_twin_cells_split_without_refinement(g, monkeypatch):
    # After the root, _refine only individualises a vertex of a cell that is
    # not a class of pairwise twins; a twin cell splits in one step.  The
    # canonical forms of seeded components refine their own rows.
    splits = []

    def spy(adj, cells, splitters):
        if adj == g.adj:
            splits.append(cells[splitters[0]] | cells[splitters[-1]])
        return _refine(adj, cells, splitters)

    monkeypatch.setattr(graphs, "_refine", spy)
    cf = canonical_form(_raw(g.n, g.adj))  # a copy with no root refinement yet
    assert splits[0] == (1 << g.n) - 1
    assert all(_twin_order(g.adj, cell) is None for cell in splits[1:])
    if _twin_order(g.adj, splits[0]):
        assert len(splits) == 1
    assert len(cf.automorphisms) <= g.n - 1
    for sigma in cf.automorphisms:
        assert relabel(g, sigma) == g


def _union_of_copies(rng, bases, limit):
    # 2-4 relabelled copies of each of `bases` random 2-4-vertex graphs, then
    # a random remainder, kept to `limit` vertices and relabelled
    parts = []
    for _ in range(bases):
        k = rng.randint(2, 4)
        base = _random_graph(rng, k, rng.uniform(0.3, 1.0))
        copies = rng.randint(2, 4)
        parts += [relabel(base, rng.sample(range(k), k)) for _ in range(copies)]
    parts.append(_random_graph(rng, rng.randint(0, 5), rng.random()))
    g = empty(0)
    for part in parts:
        if g.n + part.n <= limit:
            g = disjoint_union(g, part)
    return relabel(g, rng.sample(range(g.n), g.n))


@pytest.mark.parametrize("seed", range(40))
def test_canonical_form_matches_oracle_on_unions_of_copies(seed):
    _assert_same_as_oracle(_union_of_copies(random.Random(seed), 1, 24))


def test_seeded_generators_stay_few_and_keep_the_orbits(monkeypatch):
    rng = random.Random(16)
    unions = [_union_of_copies(rng, rng.randint(1, 3), 24) for _ in range(150)]
    seeded = [canonical_form(g) for g in unions]
    monkeypatch.setattr(graphs, "_component_generators", lambda g: [])
    for g, cf in zip(unions, seeded):
        assert len(cf.automorphisms) <= max(g.n - 1, 0), g
        for sigma in cf.automorphisms:
            assert relabel(g, sigma) == g
        unseeded = canonical_form(g)
        assert (cf.graph, cf.permutation) == (unseeded.graph, unseeded.permutation)
        assert _closure_orbits(g.n, cf.automorphisms) == _closure_orbits(
            g.n, unseeded.automorphisms
        )


def test_twin_cells_record_each_transposition_once():
    # Beside three triangles, the search meets the C4's twin cells {0, 2} and
    # {1, 3} below many nodes; recording (z w) at each visit gave 20
    # generators on 13 vertices.
    g = disjoint_union(_disjoint_cycles(3, 3), cycle(4))
    g = relabel(g, random.Random(4).sample(range(g.n), g.n))
    cf = canonical_form(g)
    assert len(cf.automorphisms) <= g.n - 1
    _assert_same_as_oracle(g)


def _count_refinements(monkeypatch, g):
    calls = []

    def spy(adj, cells, splitters):
        calls.append((adj, splitters))
        return _refine(adj, cells, splitters)

    monkeypatch.setattr(graphs, "_refine", spy)
    return canonical_form(_raw(g.n, g.adj)), calls  # a copy with no root refinement yet


@pytest.mark.parametrize(
    "g", [matching(20), _disjoint_cycles(12, 5)], ids=["M20", "12C5"]
)
def test_component_seeds_halve_the_refinements(g, monkeypatch):
    # the per-component canonical forms' refinements count too
    cf, calls = _count_refinements(monkeypatch, g)
    monkeypatch.setattr(graphs, "_component_generators", lambda g: [])
    _, unseeded = _count_refinements(monkeypatch, g)
    assert len(calls) <= len(unseeded) // 2
    assert len(cf.automorphisms) <= g.n - 1
    for sigma in cf.automorphisms:
        assert relabel(g, sigma) == g


def test_each_child_is_refined_from_the_root_once(monkeypatch):
    # The enumerator refines a child in _top_class, then canonicalizes the
    # same child object, which reuses that refinement, also when component
    # seeding canonicalizes the child's isomorphic components first.
    roots = []  # the adjacency rows of every root refinement, in order
    children = {}  # id -> child, held so that no id is reused
    seeded = 0

    def refine(adj, cells, splitters):
        if splitters == [0]:
            roots.append(adj)
        return _refine(adj, cells, splitters)

    def top_class(child, u, v, _real=solver._top_class):
        assert id(child) not in children
        children[id(child)] = child
        before = len(roots)
        out = _real(child, u, v)
        assert roots[before:] == [child.adj]
        return out

    def canonical(g, _real=solver.canonical_form):
        nonlocal seeded
        before = len(roots)
        cf = _real(g)
        if id(g) in children:
            assert g.adj not in roots[before:]
            seeded += len(roots) > before
        return cf

    monkeypatch.setattr(graphs, "_refine", refine)
    monkeypatch.setattr(solver, "_top_class", top_class)
    monkeypatch.setattr(solver, "canonical_form", canonical)
    classes = sum(1 for _ in enumerate_free(8, GraphFamily([matching(3)])))
    assert classes == 115 and len(children) > classes
    assert seeded > 0  # some children's components were canonicalized
    # one root refinement per child, plus the empty root's
    assert sum(len(a) == 8 for a in roots) == len(children) + 1


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
