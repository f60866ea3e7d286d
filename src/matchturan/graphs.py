"""Bitset-backed simple graphs on up to 64 vertices.

Vertices are 0-indexed; the neighbourhood of vertex v is one machine word
whose bit u is set iff uv is an edge.  Graphs are immutable: every operation
returns a fresh instance, so values can be shared across threads and worker
processes without copying or locks.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

MAX_VERTICES = 64


class GraphCapacityError(ValueError):
    """Raised when a construction would exceed 64 vertices."""


class Graph6Error(ValueError):
    """Raised on malformed graph6 text."""


class Graph:
    __slots__ = ("n", "adj", "_hash")

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

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)
            while m:
                b = m & -m
                yield (u, b.bit_length() - 1)
                m ^= b

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


def add_edge(g: Graph, u: int, v: int) -> Graph:
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"edge ({u},{v}) out of range for n={g.n}")
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    rows = list(g.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return _raw(g.n, rows)


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"edge ({u},{v}) out of range for n={g.n}")
    rows = list(g.adj)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return _raw(g.n, rows)


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Image of g under the permutation perm (perm[v] = new index of v)."""
    return _raw(g.n, _permuted_rows(g.n, g.adj, list(perm)))


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


def _refine(n: int, adj: tuple[int, ...], colors: list[int]) -> list[int]:
    # iterate equitable refinement: split cells by multiset of neighbour
    # colors, packed into one int (7 bits per color class, counts < 128)
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


def _permuted_rows(n: int, adj: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
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


def canonical_form(g: Graph) -> CanonicalForm:
    """Deterministic canonical labelling.

    Degree-refinement plus backtracking over individualisations; subtrees led
    by a vertex in the same orbit (under automorphisms discovered so far,
    restricted to those fixing the individualised prefix) as an explored
    sibling are pruned.  The canonical graph is the lexicographic minimum of
    the relabelled adjacency rows over all refinement-consistent labellings.
    Each leaf that repeats an earlier leaf's rows yields an automorphism,
    and every one is recorded; since every pruned leaf is the image of an
    explored one under those, they generate the whole automorphism group
    (see CanonicalForm).
    """
    n = g.n
    if n == 0:
        return CanonicalForm(g, ())
    adj = g.adj
    base = _refine(n, adj, [0] * n)

    best_rows: tuple[int, ...] | None = None
    best_perm: list[int] | None = None
    leaf_first: dict[tuple[int, ...], list[int]] = {}
    autos: list[tuple[int, ...]] = []

    def record_leaf(colors: list[int]) -> None:
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

    def orbit_mask(v: int, gens: list[tuple[int, ...]]) -> int:
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

    def descend(colors: list[int], fixed: list[int]) -> None:
        cell_of: dict[int, list[int]] = {}
        for v in range(n):
            cell_of.setdefault(colors[v], []).append(v)
        target: list[int] | None = None
        for c in sorted(cell_of):
            if len(cell_of[c]) > 1:
                target = cell_of[c]
                break
        if target is None:
            record_leaf(colors)
            return
        tried_mask = 0
        stab: list[tuple[int, ...]] = []
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
            descend(_refine(n, adj, nc), fixed)
            fixed.pop()

    descend(base, [])
    assert best_rows is not None and best_perm is not None
    return CanonicalForm(_raw(n, best_rows), tuple(best_perm), tuple(autos))


def canonical_key(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Hashable isomorphism-class key (shorthand for canonical_form(g).key())."""
    return canonical_form(g).key()


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
    rows = [0] * n
    k = 0
    for chunk in body:
        for shift in (5, 4, 3, 2, 1, 0):
            bit = chunk >> shift & 1
            if k < need:
                if bit:
                    # k-th pair in column-major order
                    i, j = _pair_at(k)
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            elif bit:
                raise Graph6Error(f"nonzero padding bits in {text!r}")
            k += 1
    return _raw(n, rows)


def _pair_at(k: int) -> tuple[int, int]:
    # inverse of the column-major enumeration (0,1),(0,2),(1,2),(0,3),...
    j = 1
    while j * (j + 1) // 2 <= k:
        j += 1
    return (k - j * (j - 1) // 2, j)


def read_graph6_lines(lines: Iterable[str]) -> list[Graph]:
    """Parse a graph6 corpus: one graph per line, '#' starts a comment."""
    out = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(from_graph6(line))
    return out


def graph_from_pair_mask(n: int, mask: int) -> Graph:
    """Build a graph from a bitmask over combinations(range(n), 2)."""
    pairs = list(combinations(range(n), 2))
    return Graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))
