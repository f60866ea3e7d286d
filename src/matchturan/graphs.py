"""Bitset-backed simple graphs on up to 64 vertices.

Vertices are 0-indexed; the neighbourhood of vertex v is one machine word
whose bit u is set iff uv is an edge.  Graphs are immutable: every operation
returns a fresh instance, so values can be shared across threads and worker
processes without copying or locks.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator

MAX_VERTICES = 64


class GraphCapacityError(ValueError):
    """Raised when a construction would exceed 64 vertices."""


class Graph6Error(ValueError):
    """Raised on malformed graph6 text."""


class Graph:
    __slots__ = ("n", "adj", "_hash", "_root")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        if n > MAX_VERTICES:
            raise GraphCapacityError(f"{n} vertices exceeds capacity {MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)
        self._hash = -1
        self._root = None

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        if self._hash == -1:
            self._hash = hash((self.n, self.adj))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(self.edges())})"


def _raw(n: int, rows: Iterable[int]) -> Graph:
    # internal fast path: caller guarantees symmetry / no loops / bit range
    g = Graph.__new__(Graph)
    g.n = n
    g.adj = tuple(rows)
    g._hash = -1
    g._root = None
    return g


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def empty(n: int) -> Graph:
    """Edgeless graph on n vertices."""
    return Graph(n)


def complete(n: int) -> Graph:
    """K_n."""
    if n < 0:
        raise ValueError(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise GraphCapacityError(f"K_{n} exceeds capacity")
    full = (1 << n) - 1
    return _raw(n, (full ^ (1 << v) for v in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: part {0..a-1} fully joined to part {a..a+b-1}."""
    return join_all(empty(a), empty(b))


def star(k: int) -> Graph:
    """Star on k vertices (centre 0, k-1 leaves)."""
    if k == 0:
        return empty(0)
    return Graph(k, ((0, v) for v in range(1, k)))


def matching(s: int) -> Graph:
    """s pairwise disjoint edges on 2s vertices."""
    return Graph(2 * s, ((2 * i, 2 * i + 1) for i in range(s)))


def cycle(k: int) -> Graph:
    """C_k, k >= 3."""
    if k == 0:
        return empty(0)
    if k < 3:
        raise ValueError(f"no simple cycle on {k} vertices")
    return Graph(k, ((v, (v + 1) % k) for v in range(k)))


def path(k: int) -> Graph:
    """Path on k vertices (k-1 edges)."""
    return Graph(k, ((v, v + 1) for v in range(k - 1)))


def turan_graph(p: int, parts: int) -> Graph:
    """Complete multipartite graph on p vertices with the given number of
    parts, sizes differing by at most one (remainder goes to the earliest
    parts)."""
    if p == 0:
        return empty(0)
    if parts < 1:
        raise ValueError(f"need at least one part, got {parts}")
    if parts > p:
        raise ValueError(f"{parts} parts exceed {p} vertices")
    q, r = divmod(p, parts)
    part_of = []
    for i in range(parts):
        part_of.extend([i] * (q + 1 if i < r else q))
    return Graph(
        p,
        (
            (u, v)
            for u in range(p)
            for v in range(u + 1, p)
            if part_of[u] != part_of[v]
        ),
    )


# ---------------------------------------------------------------------------
# combination operators
# ---------------------------------------------------------------------------


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    if g1.n + g2.n > MAX_VERTICES:
        raise GraphCapacityError(f"union on {g1.n + g2.n} vertices exceeds capacity")
    rows = list(g1.adj) + [row << g1.n for row in g2.adj]
    return _raw(g1.n + g2.n, rows)


def join_all(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every cross edge."""
    g = disjoint_union(g1, g2)
    mask1 = (1 << g1.n) - 1
    mask2 = ((1 << g2.n) - 1) << g1.n
    rows = [
        row | (mask2 if v < g1.n else mask1) for v, row in enumerate(g.adj)
    ]
    return _raw(g.n, rows)


def induced(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on the given vertex set, relabelled in sorted order."""
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    pos = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        for u in _bits(g.adj[v]):
            if u in pos:
                rows[pos[v]] |= 1 << pos[u]
    return _raw(len(keep), rows)


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"edge ({u},{v}) out of range for n={g.n}")
    rows = list(g.adj)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return _raw(g.n, rows)


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Image of g under the permutation perm (perm[v] = new index of v)."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError(f"relabel needs a permutation of range({g.n}), got {perm}")
    return _raw(g.n, _permuted_rows(g.n, g.adj, perm))


# ---------------------------------------------------------------------------
# canonical labelling
# ---------------------------------------------------------------------------


class CanonicalForm:
    """Canonical relabelling of a graph.

    Two graphs are isomorphic iff their canonical forms compare equal;
    equality and hashing ignore everything but the canonical graph, so a
    CanonicalForm (or its .key()) works as a dictionary key for isomorphism
    classes.

    `automorphisms` are the non-identity automorphisms of the input graph
    that the search discovered, in the input's labelling (sigma[v] is the
    image of v); they always generate its whole automorphism group.
    """

    __slots__ = ("graph", "permutation", "automorphisms")

    def __init__(
        self,
        graph: Graph,
        permutation: tuple[int, ...],
        automorphisms: tuple[tuple[int, ...], ...] = (),
    ):
        self.graph = graph
        self.permutation = permutation
        self.automorphisms = automorphisms

    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.graph.n, self.graph.adj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CanonicalForm) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"CanonicalForm({self.graph!r}, perm={self.permutation})"


def _count_planes(adj: tuple[int, ...], f: int) -> list[int]:
    """Bit-sliced |N(v) & f|, a carry chain per row: bit v of planes[i] is bit i."""
    planes: list[int] = []
    while f:
        b = f & -f
        f ^= b
        carry = adj[b.bit_length() - 1]
        for i, p in enumerate(planes):
            planes[i] = p ^ carry
            carry &= p
            if not carry:
                break
        else:
            planes.append(carry)
    return planes


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Equitable refinement of an ordered partition (vertex masks, cell i of
    colour i): each round gives a vertex the rank of (colour, neighbour
    counts per colour from the highest colour down) until no cell splits.
    `splitters` index the fragments of one earlier cell (the root, or {w}
    and c - {w}).  Every cell has equal counts to each cell of the previous
    round, so in a group of fragments of a cell that split, the lowest
    colour's count is implied, and the largest one's is the complement of
    the count to the fragments below it (those above are uniform there); the
    root's one fragment is counted.  Bit-planes of a count split a cell high
    bit first, clear before set."""
    groups = [[cells[i] for i in splitters]]
    while groups:
        masks: list[int] = []  # highest colour first
        for frags in reversed(groups):
            k = len(frags)
            if k == 1:
                masks += reversed(_count_planes(adj, frags[0]))
                continue
            if k == 2:
                big = frags[1].bit_count() >= frags[0].bit_count()
            else:
                big = max(range(k), key=lambda i: frags[i].bit_count())
            for j in range(k - 1, 0, -1):
                flip = -(j == big)  # -1: complement
                f = sum(frags[:j]) if flip else frags[j]
                if f & (f - 1):
                    masks += [p ^ flip for p in reversed(_count_planes(adj, f))]
                else:
                    masks.append(adj[f.bit_length() - 1] ^ flip)
        # a cell that misses every neighbour of the counted fragments keeps
        # its counts; telling which do pays only when there are many cells
        reach = -1
        if len(cells) > 8:
            reach = 0
            for m in masks:
                reach |= m if m >= 0 else ~m
        new: list[int] = []
        groups = []
        for cell in cells:
            if not cell & (cell - 1) or not cell & reach:
                new.append(cell)
                continue
            parts = None
            for m in masks:
                if parts is None:
                    hi = cell & m
                    if hi and hi != cell:
                        parts = [cell ^ hi, hi]
                    continue
                out = []
                for part in parts:
                    hi = part & m
                    out += (part ^ hi, hi) if hi and hi != part else (part,)
                parts = out
            new += parts or (cell,)
            if parts:
                groups.append(parts)
        cells = new
    return cells


def _cycles(sigma: tuple[int, ...], support: int) -> tuple[int, int]:
    """Of the vertices of `support` (the ones sigma moves): those that are
    not the least of their cycle, and those whose image is one of them (the
    edges v -> sigma(v) from these span every cycle)."""
    tails = links = 0
    while support:
        b = support & -support
        v = u = b.bit_length() - 1
        while sigma[u] != v:
            links |= 1 << u
            u = sigma[u]
            tails |= 1 << u
        support &= ~(tails | b)
    return tails, links


def _colors(n: int, cells: list[int]) -> list[int]:
    colors = [0] * n
    for i, cell in enumerate(cells):
        while cell:
            b = cell & -cell
            colors[b.bit_length() - 1] = i
            cell ^= b
    return colors


def _root_cells(g: Graph) -> list[int]:
    """The equitable refinement of g's one-cell colouring, as cells, kept on
    g: the enumerator refines a child and then canonicalizes the same child.
    Callers must not mutate the list."""
    if g._root is None:
        g._root = _refine(g.adj, [(1 << g.n) - 1], [0])
    return g._root


def _twin_order(adj: tuple[int, ...], cell: int) -> list[int] | None:
    """The vertices of `cell` in ascending order if they are pairwise twins
    (the same neighbours outside the cell, which is a clique or an
    independent set), else None."""
    z = (cell & -cell).bit_length() - 1
    clique = adj[z] & cell
    key = adj[z] | 1 << z if clique else adj[z]
    order = []
    while cell:
        b = cell & -cell
        cell ^= b
        v = b.bit_length() - 1
        if (adj[v] | b if clique else adj[v]) != key:
            return None
        order.append(v)
    return order


def _permuted_rows(n: int, adj: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    if n >= 16 and sum(map(int.bit_count, adj)) > 8 * n:
        inv = [0] * n
        for v, p in enumerate(perm):
            inv[p] = v
        return _picked_rows(n, adj, inv)
    rows = [0] * n
    for v in range(n):
        acc = 0
        m = adj[v]
        while m:
            b = m & -m
            acc |= 1 << perm[b.bit_length() - 1]
            m ^= b
        rows[perm[v]] = acc
    return tuple(rows)


def _picked_rows(n: int, adj: tuple[int, ...], order: list[int]) -> tuple[int, ...]:
    """The rows of the subgraph induced on `order`, order[i] relabelled i.
    Each row is a string of n bits, highest first, whose characters move in
    one itemgetter call, so a row costs the same whatever its density."""
    pick = itemgetter(*[n - 1 - v for v in reversed(order)])
    form = f"0{n}b"
    return tuple(int("".join(pick(format(adj[v], form))), 2) for v in order)


def _orbit_roots(
    n: int, autos: list[tuple[tuple[int, ...], int, int, int]], prefix: int, cell: int, mask: int
) -> int:
    """The vertices of `mask`, part of a search node's target cell, that are
    the least of their orbit under the automorphisms of `autos` that fix the
    node's prefix (a mask), those whose support misses it; they map the cell
    onto itself.  A vertex that is not the least of its cycle in one of them
    is no root, which a mask settles; a union-find over the spanning edges
    of their cycles (see _cycles) runs only if some vertex survives that."""
    fixing = [auto for auto in autos if auto[3] & cell and not auto[1] & prefix]
    for auto in fixing:
        mask &= ~auto[2]
    if not mask or not fixing:
        return mask
    parent = list(range(n))
    joined = 0  # the vertices that do not root their orbit
    for sigma, _, _, links in fixing:
        m = links & cell
        while m:
            b = m & -m
            m ^= b
            a = b.bit_length() - 1
            c = sigma[a]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[c] != c:
                parent[c] = c = parent[parent[c]]
            if a < c:
                parent[c] = a
                joined |= 1 << c
            elif c < a:
                parent[a] = c
                joined |= 1 << a
    return mask & ~joined


def canonical_form(g: Graph) -> CanonicalForm:
    """Deterministic canonical labelling.

    The search tree: the root is the equitable refinement of the one-cell
    colouring; a node's children individualise each vertex of its first
    non-singleton cell in turn, then refine; a leaf is a discrete colouring,
    read as a relabelling.  The canonical graph is the lexicographic minimum
    of the relabelled adjacency rows over all leaves, and the permutation is
    the first leaf in depth-first order that attains it.

    Refinement (_refine) gives the colours of keying every vertex by its
    counts to every cell ({w} and c - {w} as colours 2c and 2c + 1), so the
    same leaves, but counts bit-sliced and skips the implied counts.

    The search skips a subtree only when it is the image, under an
    automorphism that fixes the subtree's individualised prefix, of a
    subtree it has explored (as nauty does: McKay and Piperno, Practical
    graph isomorphism II, 2014), so the skipped leaves repeat explored rows
    and the result is that of the full tree:
    - orbit pruning: a child in the orbit of an explored sibling under the
      automorphisms found so far that fix the prefix (_orbit_roots, taken
      afresh from all of them whenever the node has taken in new ones);
    - twins: a child w whose neighbourhood outside {z, w} equals that of the
      node's first child z, because the transposition (z w) is an
      automorphism;
    - twin cells: when the target cell T is a class of pairwise twins (one
      neighbourhood outside T, and T a clique or an independent set),
      individualising its vertices splits no other cell, and every sibling
      at the t - 1 levels of that path is a twin of the first child.  The
      node splits T into singletons in ascending vertex order at once, with
      no refinement, pushes the t - 1 individualised vertices onto the
      path, and records (z w) for the least z and each other w of T that
      is not yet in z's orbit;
    - backjumping: a leaf that repeats an earlier leaf's rows yields the
      automorphism sigma mapping it onto that leaf.  Refinement and
      individualisation commute with automorphisms, so sigma maps this
      leaf's path onto the earlier one; it fixes their common prefix and
      maps this path's next vertex to the earlier path's, and the search
      returns to the node where the two paths diverge;
    - component seeding: when the search first reaches a node's second
      child, it records generators of the group that permutes isomorphic
      connected components of at least 2 vertices, or those of the
      complement of a connected graph on 16 or more (each copy's own, from
      canonical_form on the component, and a swap of each consecutive pair
      of copies), so orbit pruning no longer finds each swap by a descent.
      Seeding only adds automorphisms: the rows and the permutation stay
      those of the full tree.
    Every twin transposition and every backjump's sigma is recorded (a twin
    cell's transpositions once its subtree is done, unless a backjump leaves
    it).  Every leaf equivalent to the first one is then explored or the
    image of an explored one under recorded automorphisms, so they generate
    the whole automorphism group (see CanonicalForm).  The seeds generate
    every automorphism that moves only vertices of the seeded components,
    so of the automorphisms the search finds, only those that move another
    vertex are returned after the seeds.
    """
    n = g.n
    if n == 0:
        return CanonicalForm(g, ())
    adj = g.adj

    best_rows: tuple[int, ...] | None = None
    best_perm: list[int] = []
    first: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    autos: list[tuple[tuple[int, ...], int, int, int]] = []  # sigma, support, *_cycles
    path: list[int] = []  # the individualised vertices, one per level
    seeds: list[tuple[tuple[int, ...], int]] | None = None  # set at the first second child met
    seeded = 0  # the vertices the seeds move

    def leaf(cells: list[int]) -> int:
        # returns the level at which the search goes on
        nonlocal best_rows, best_perm
        depth = len(path)
        colors = _colors(n, cells)
        rows = _permuted_rows(n, adj, colors)
        if best_rows is None or rows < best_rows:
            best_rows, best_perm = rows, colors
        earlier = first.get(rows)
        if earlier is None:
            first[rows] = (colors, path[:])
            return depth
        earlier_colors, earlier_path = earlier
        inv = [0] * n
        for v, c in enumerate(earlier_colors):
            inv[c] = v
        sigma = tuple(inv[c] for c in colors)  # this leaf onto the earlier one
        support = sum(1 << v for v, x in enumerate(sigma) if x != v)
        autos.append((sigma, support, *_cycles(sigma, support)))
        level = 0
        while path[level] == earlier_path[level]:
            level += 1
        return level

    def transpose(z: int, w: int) -> None:
        # records the twin automorphism (z w)
        swap = list(range(n))
        swap[z], swap[w] = w, z
        autos.append((tuple(swap), 1 << z | 1 << w, 1 << w, 1 << z))

    def seed() -> None:
        nonlocal seeds, seeded
        seeds = _component_generators(g)
        for sigma, support in seeds:
            autos.append((sigma, support, *_cycles(sigma, support)))
            seeded |= support

    def descend(cells: list[int], prefix: int, i: int) -> int:
        # explores the subtree; returns the level at which the search goes on.
        # The cells before index i are singletons.
        depth = len(path)
        if len(cells) == n:
            return leaf(cells)
        while not cells[i] & (cells[i] - 1):
            i += 1
        cell = cells[i]
        z = (cell & -cell).bit_length() - 1
        order = _twin_order(adj, cell)
        if order:
            # individualising its vertices in ascending order splits only the
            # cell, so this node stands for the t - 1 levels of that path; a
            # backjump to a level inside them finds only twins left there
            path.extend(order[:-1])
            level = descend(
                [*cells[:i], *(1 << v for v in order), *cells[i + 1 :]],
                prefix | cell ^ 1 << order[-1],
                i + len(order),
            )
            del path[depth:]
            if level < depth:
                return level
            # recorded automorphisms that fix the prefix may already join
            # part of T: one transposition per other orbit suffices
            roots = _orbit_roots(n, autos, prefix, cell, cell)
            for w in order[1:]:
                if roots >> w & 1:
                    transpose(z, w)
            return depth
        seen = 0  # the automorphisms m has taken in
        m = cell
        while m:
            b = m & -m
            m ^= b
            w = b.bit_length() - 1
            if w != z:
                if seeds is None:
                    seed()
                if seen < len(autos):
                    # every vertex of the cell below w was tried or joined to
                    # a tried one, so only the orbit roots are left to try
                    seen = len(autos)
                    m = _orbit_roots(n, autos, prefix, cell, m | b)
                    if not m & b:
                        continue
                    m ^= b
                if adj[z] & ~(1 << w) == adj[w] & ~(1 << z):
                    transpose(z, w)
                    continue
            path.append(w)
            split = [*cells[:i], b, cell ^ b, *cells[i + 1 :]]
            level = descend(_refine(adj, split, [i, i + 1]), prefix | b, i + 1)
            path.pop()
            if level < depth:
                break
        else:
            level = depth
        return level

    descend(_root_cells(g), 0, 0)
    assert best_rows is not None
    found = tuple(sigma for sigma, support, _, _ in autos if support & ~seeded)
    return CanonicalForm(
        _raw(n, best_rows), tuple(best_perm), (*(sigma for sigma, _ in seeds or ()), *found)
    )


def _component_generators(g: Graph) -> list[tuple[tuple[int, ...], int]]:
    """Generators, with their support masks, of the group that permutes the
    isomorphic connected components of g with at least 2 vertices, or those
    of its complement when g is connected and has at least 16 vertices (g
    and its complement have the same automorphisms; on fewer vertices the
    search they would save costs less than finding them): for each class of
    two or more copies, each copy's own generators and one swap per
    consecutive pair of copies.  Each copy is labelled breadth-first from
    its least vertex, neighbours ascending, so that copies often induce
    equal rows and share one canonical_form; the swap of two such copies
    pairs their vertices of equal label, and that of two others their
    vertices of equal canonical position."""
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    comps = _components(adj, full)
    if len(comps) == 1 and n >= 16:
        adj = tuple(full ^ row ^ 1 << v for v, row in enumerate(adj))
        comps = _components(adj, full)
    by_size: dict[int, list[int]] = {}
    for comp in comps:
        if comp & (comp - 1):
            by_size.setdefault(comp.bit_count(), []).append(comp)
    forms: dict[Graph, CanonicalForm] = {}
    classes: dict[tuple, list[tuple[int, list[int], CanonicalForm]]] = {}
    for comps in by_size.values():
        if len(comps) > 1:
            for comp in comps:
                verts = [(comp & -comp).bit_length() - 1]  # breadth-first
                seen = comp & -comp
                for v in verts:
                    new = adj[v] & ~seen
                    seen |= new
                    verts += _bits(new)
                sub = _raw(len(verts), _picked_rows(n, adj, verts))
                if sub not in forms:
                    forms[sub] = canonical_form(sub)
                classes.setdefault(forms[sub].key(), []).append((comp, verts, forms[sub]))
    gens = []
    for copies in classes.values():
        if len(copies) < 2:
            continue
        for _, verts, cf in copies:
            for sigma in cf.automorphisms:
                perm = list(range(n))
                support = 0
                for i, x in enumerate(sigma):
                    if x != i:
                        perm[verts[i]] = verts[x]
                        support |= 1 << verts[i]
                gens.append((tuple(perm), support))
        for (comp, verts, cf), (other_comp, other, other_cf) in zip(copies, copies[1:]):
            if other_cf is not cf:  # the two labellings induce different rows
                at = [0] * len(other)  # canonical position -> vertex of `other`
                for i, p in enumerate(other_cf.permutation):
                    at[p] = other[i]
                other = [at[p] for p in cf.permutation]
            perm = list(range(n))
            for u, v in zip(verts, other):
                perm[u], perm[v] = v, u
            gens.append((tuple(perm), comp | other_comp))
    return gens


def _components(adj: tuple[int, ...], mask: int) -> list[int]:
    """Vertex masks of the connected components of the graph induced on
    `mask`, ordered by lowest vertex."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                reach |= adj[b.bit_length() - 1]
            frontier = reach & mask & ~comp
            comp |= frontier
        comps.append(comp)
        mask &= ~comp
    return comps


# ---------------------------------------------------------------------------
# graph6 text format
# ---------------------------------------------------------------------------


def to_graph6(g: Graph) -> str:
    """Header-free graph6: column-major upper-triangle bits, 6 per char,
    each offset by 63."""
    n = g.n
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = ["~", chr(63 + (n >> 12 & 63)), chr(63 + (n >> 6 & 63)), chr(63 + (n & 63))]
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def from_graph6(text: str) -> Graph:
    """Inverse of to_graph6; raises Graph6Error on malformed input."""
    data = [ord(ch) - 63 for ch in text]
    if any(not 0 <= v <= 63 for v in data):
        raise Graph6Error(f"character out of graph6 range in {text!r}")
    if not data:
        raise Graph6Error("empty graph6 string")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    else:
        if len(data) < 4:
            raise Graph6Error(f"truncated vertex count in {text!r}")
        if data[1] == 63:
            raise Graph6Error("graph6 strings beyond 258047 vertices unsupported")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    if n > MAX_VERTICES:
        raise GraphCapacityError(f"graph6 string encodes {n} vertices")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise Graph6Error(
            f"expected {(need + 5) // 6} edge-bit characters, got {len(body)}"
        )
    stream = "".join(format(chunk, "06b") for chunk in body)
    if "1" in stream[need:]:
        raise Graph6Error(f"nonzero padding bits in {text!r}")
    # the same column-major walk of the upper triangle as to_graph6
    bits = iter(stream)
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if next(bits) == "1":
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return _raw(n, rows)


def read_graph6_lines(lines: Iterable[str]) -> list[Graph]:
    """Parse a graph6 corpus: one graph per line, '#' starts a comment."""
    out = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(from_graph6(line))
    return out
