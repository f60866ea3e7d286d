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


# 1 << 7c for every colour that _refine can see (individualisation maps
# colour c to 2c or 2c + 1)
_WEIGHT = [1 << 7 * c for c in range(2 * MAX_VERTICES)]


def _refinement_plan(n: int, adj: tuple[int, ...]) -> list[tuple[bool, list[int]]]:
    # per vertex: whether it counts its non-neighbours (degree above n/2),
    # and the vertices it counts
    full = (1 << n) - 1
    plan = []
    for v, row in enumerate(adj):
        dense = 2 * row.bit_count() > n
        plan.append((dense, list(_bits(full ^ row ^ 1 << v if dense else row))))
    return plan


def _refine(plan: list[tuple[bool, list[int]]], colors: list[int]) -> list[int]:
    # iterate equitable refinement: split cells by (colour, multiset of
    # neighbour colours), the multiset packed into one int (7 bits per colour
    # class, counts < 128); a dense vertex packs its non-neighbours and
    # subtracts them and itself from the whole vertex set
    n = len(colors)
    while True:
        weight = [_WEIGHT[c] for c in colors]
        total = sum(weight)
        keys = []
        for v in range(n):
            dense, counted = plan[v]
            packed = sum(map(weight.__getitem__, counted))
            if dense:
                packed = total - weight[v] - packed
            keys.append((colors[v], packed))
        ranks = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [ranks[k] for k in keys]
        if new == colors:
            return new
        colors = new


_last_unit: tuple = ((), [], [])


def _unit_refinement(
    n: int, adj: tuple[int, ...]
) -> tuple[list[tuple[bool, list[int]]], list[int]]:
    """The refinement plan of adj and the equitable refinement of its
    one-cell colouring.  The last answer is kept: the enumerator refines a
    child and then canonicalizes the same child.  Callers must not mutate
    the lists."""
    global _last_unit
    key, plan, colors = _last_unit
    if key != adj:
        plan = _refinement_plan(n, adj)
        colors = _refine(plan, [0] * n)
        _last_unit = (adj, plan, colors)
    return plan, colors


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


class _Orbits:
    """Orbits on a search node's target cell of the automorphisms found so
    far that fix the node's individualised prefix, as a union-find fed only
    the automorphisms added since it last looked.  Such an automorphism
    preserves the node's colouring, so it maps the cell onto itself."""

    __slots__ = ("parent", "prefix", "seen")

    def __init__(self, cell: list[int], prefix: list[int]):
        self.parent = {v: v for v in cell}
        self.prefix = tuple(prefix)
        self.seen = 0

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def update(self, autos: list[tuple[int, ...]]) -> None:
        for s in autos[self.seen :]:
            if all(s[f] == f for f in self.prefix):
                for v in self.parent:
                    a, b = self.find(v), self.find(s[v])
                    if a != b:
                        self.parent[max(a, b)] = min(a, b)
        self.seen = len(autos)


def canonical_form(g: Graph) -> CanonicalForm:
    """Deterministic canonical labelling.

    The search tree: the root is the equitable refinement of the one-cell
    colouring; a node's children individualise each vertex of its first
    non-singleton cell in turn, then refine; a leaf is a discrete colouring,
    read as a relabelling.  The canonical graph is the lexicographic minimum
    of the relabelled adjacency rows over all leaves, and the permutation is
    the first leaf in depth-first order that attains it.

    The search skips a subtree only when it is the image, under an
    automorphism that fixes the subtree's individualised prefix, of a
    subtree it has explored (as nauty does: McKay and Piperno, Practical
    graph isomorphism II, 2014), so the skipped leaves repeat explored rows
    and the result is that of the full tree:
    - orbit pruning: a child in the orbit of an explored sibling under the
      automorphisms found so far that fix the prefix;
    - twins: a child w whose neighbourhood outside {z, w} equals that of the
      node's first child z, because the transposition (z w) is an
      automorphism;
    - backjumping: a leaf that repeats an earlier leaf's rows yields the
      automorphism sigma mapping it onto that leaf.  Refinement and
      individualisation commute with automorphisms, so sigma maps this
      leaf's path onto the earlier one; it fixes their common prefix and
      maps this path's next vertex to the earlier path's, and the search
      returns to the node where the two paths diverge.
    Every twin transposition and every backjump's sigma is recorded.  Every
    leaf equivalent to the first one is then explored or the image of an
    explored one under recorded automorphisms, so they generate the whole
    automorphism group (see CanonicalForm).
    """
    n = g.n
    if n == 0:
        return CanonicalForm(g, ())
    adj = g.adj
    plan, base = _unit_refinement(n, adj)

    best_rows: tuple[int, ...] | None = None
    best_perm: list[int] = []
    first: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    autos: list[tuple[int, ...]] = []
    path: list[int] = []  # the individualised vertices, one per level

    def leaf(colors: list[int]) -> int:
        # returns the level at which the search goes on
        nonlocal best_rows, best_perm
        depth = len(path)
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
        autos.append(sigma)
        level = 0
        while path[level] == earlier_path[level]:
            level += 1
        return level

    def descend(colors: list[int]) -> int:
        # explores the subtree; returns the level at which the search goes on
        depth = len(path)
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        cell = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if cell is None:
            return leaf(colors)
        orbits = _Orbits(cell, path)
        z = cell[0]
        tried: list[int] = []
        for w in cell:
            if tried:
                orbits.update(autos)
                root = orbits.find(w)
                if any(orbits.find(t) == root for t in tried):
                    continue
                if adj[z] & ~(1 << w) == adj[w] & ~(1 << z):
                    swap = list(range(n))
                    swap[z], swap[w] = w, z
                    autos.append(tuple(swap))
                    continue
            tried.append(w)
            nc = [2 * c + 1 for c in colors]
            nc[w] -= 1
            path.append(w)
            level = descend(_refine(plan, nc))
            path.pop()
            if level < depth:
                break
        else:
            level = depth
        return level

    descend(base)
    assert best_rows is not None
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


def graph_from_pair_mask(n: int, mask: int) -> Graph:
    """Build a graph from a bitmask over combinations(range(n), 2)."""
    pairs = list(combinations(range(n), 2))
    return Graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))
