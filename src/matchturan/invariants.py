"""Exact graph invariants: clique counts, chromatic number, matching number,
and matching-duality certificates.

Everything here is exact.  The matching number is polynomial (Edmonds'
blossom algorithm), and so is the Tutte-Berge certificate, read off the
same search; clique counting and the chromatic number are branch-and-bound
searches, tuned for the desk-scale graphs the rest of the package produces.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, _bits, _components


def count_cliques(g: Graph, r: int) -> int:
    """Number of r-vertex subsets inducing a complete graph."""
    if r < 1:
        raise ValueError(f"clique order must be >= 1, got {r}")
    if r > g.n:
        return 0
    if r == 1:
        return g.n
    adj = g.adj

    def rec(cand: int, need: int) -> int:
        if need == 1:
            return cand.bit_count()
        total = 0
        while cand:
            b = cand & -cand
            cand ^= b
            sub = cand & adj[b.bit_length() - 1]
            if sub:
                total += rec(sub, need - 1)
        return total

    return rec((1 << g.n) - 1, r)


def clique_number(g: Graph) -> int:
    """Largest r with count_cliques(g, r) > 0 (0 for the null graph)."""
    if g.n == 0:
        return 0
    adj = g.adj
    best = 1

    def rec(cand: int, size: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        while cand:
            b = cand & -cand
            cand ^= b
            if size + 1 + cand.bit_count() <= best:
                return
            if size + 1 > best:
                best = size + 1
            rec(cand & adj[b.bit_length() - 1], size + 1)

    rec((1 << g.n) - 1, 0)
    return best


CHROMATIC_MAX_NODES = 60_000


class ChromaticLimitError(ValueError):
    """Raised when chromatic_number's colouring backtracking passes
    CHROMATIC_MAX_NODES search nodes (about 0.15 s)."""


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number via branch and bound: clique lower bound,
    greedy upper bound, then k-colourability backtracking in between.
    Raises ChromaticLimitError when the backtracking, over every k, passes
    CHROMATIC_MAX_NODES search nodes (G(45, 1/2) needs about 200,000)."""
    if g.n == 0:
        return 0
    if all(row == 0 for row in g.adj):
        return 1
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    lower = clique_number(g)
    upper = _greedy_colors(g, order)
    nodes = [0]  # search nodes so far, over every k
    for k in range(lower, upper):
        if _colorable(g, order, k, nodes):
            return k
    return upper


def _greedy_colors(g: Graph, order: list[int]) -> int:
    color = [-1] * g.n
    used = 0
    for v in order:
        taken = 0
        for u in _bits(g.adj[v]):
            if color[u] >= 0:
                taken |= 1 << color[u]
        c = 0
        while taken >> c & 1:
            c += 1
        color[v] = c
        used = max(used, c + 1)
    return used


def _colorable(g: Graph, order: list[int], k: int, nodes: list[int]) -> bool:
    classes = [0] * k  # vertex mask per colour

    def rec(i: int, used: int) -> bool:
        nodes[0] += 1
        if nodes[0] > CHROMATIC_MAX_NODES:
            raise ChromaticLimitError(
                f"{nodes[0]} colouring search nodes at k={k}, over {CHROMATIC_MAX_NODES}"
            )
        if i == g.n:
            return True
        v = order[i]
        # trying more than one fresh colour only relabels the palette
        for c in range(min(k, used + 1)):
            if g.adj[v] & classes[c]:
                continue
            classes[c] |= 1 << v
            if rec(i + 1, max(used, c + 1)):
                return True
            classes[c] ^= 1 << v
        return False

    return rec(0, 0)


def matching_number(g: Graph) -> int:
    """Maximum matching size, by Edmonds' cardinality blossom algorithm
    (J. Edmonds, Paths, trees, and flowers, 1965): a greedy matching, then
    one alternating-tree search per free vertex, contracting odd cycles
    (blossoms) to their base; O(n^3)."""
    _, mate = _maximum_matching(g)
    return (g.n - mate.count(-1)) // 2


def _maximum_matching(g: Graph) -> tuple[list[list[int]], list[int]]:
    # neighbour lists and the mate of each vertex (-1 if free) in a maximum
    # matching
    n = g.n
    nbrs = [list(_bits(row)) for row in g.adj]
    mate = [-1] * n
    for v in range(n):
        if mate[v] < 0:
            for u in nbrs[v]:
                if mate[u] < 0:
                    mate[v], mate[u] = u, v
                    break
    free = mate.count(-1)
    for root in range(n):
        if free < 2:
            break  # an augmenting path joins two free vertices
        if mate[root] < 0 and _augment(nbrs, mate, [root]) is None:
            free -= 2
    return nbrs, mate


def _augment(nbrs: list[list[int]], mate: list[int], roots: list[int]) -> list[bool] | None:
    # grow an alternating forest from the free vertices roots; on reaching a
    # free vertex outside it, flip the path to it and return None, else
    # return the outer flags.  With several roots the matching must be
    # maximum: the search follows no augmenting path between two trees.
    n = len(mate)
    base = list(range(n))  # the base of the blossom holding each vertex
    parent = [-1] * n  # tree parent of each inner (odd) vertex
    outer = [False] * n  # in the forest at even distance from a root
    for root in roots:
        outer[root] = True
    queue = list(roots)

    def common_base(a: int, b: int) -> int:
        # the lowest even tree vertex on both paths to the root
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while not seen[base[b]]:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v: int, top: int, child: int, blossom: list[bool]) -> None:
        # walk from v down to the blossom base top, re-pointing parents so
        # that every vertex of the cycle can reach the root alternately
        while base[v] != top:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for u in nbrs[v]:
            if base[v] == base[u] or mate[v] == u:
                continue
            if (outer[u] and mate[u] < 0) or (mate[u] >= 0 and parent[mate[u]] >= 0):
                # an edge between two outer vertices closes a blossom
                top = common_base(v, u)
                blossom = [False] * n
                mark(v, top, u, blossom)
                mark(u, top, v, blossom)
                for x in range(n):
                    if blossom[base[x]]:
                        base[x] = top
                        if not outer[x]:
                            outer[x] = True
                            queue.append(x)
            elif parent[u] < 0:
                parent[u] = v
                if mate[u] < 0:
                    while u >= 0:  # flip the augmenting path root .. u
                        v = parent[u]
                        w = mate[v]
                        mate[u], mate[v] = v, u
                        u = w
                    return None
                outer[mate[u]] = True
                queue.append(mate[u])
    return outer


def connected_components(g: Graph, within: int | None = None) -> list[int]:
    """Vertex bitmasks of the connected components of g (restricted to the
    `within` mask when given), ordered by lowest vertex."""
    return _components(g.adj, g.vertex_mask() if within is None else within)


class TutteBergeCertificate(NamedTuple):
    """Vertex set B minimizing |B| + sum(floor(|C|/2)) over the components C
    of G - B (sorted sizes in component_sizes); that minimum, value, equals
    the matching number."""

    b: tuple[int, ...]
    component_sizes: tuple[int, ...]
    value: int


def tutte_berge_certificate(g: Graph) -> TutteBergeCertificate:
    """The Gallai-Edmonds set B = A(G) (Lovasz and Plummer, Matching Theory,
    1986, ch. 3): grow one alternating forest from every free vertex of a
    maximum matching; its outer vertices are D(G), the vertices some maximum
    matching misses, and B = N(D) - D.  The value is counted from B and the
    components of G - B alone, so it bounds the matching number from above
    whatever B is, and equals it because B is a minimizer; O(n^3)."""
    nbrs, mate = _maximum_matching(g)
    outer = _augment(nbrs, mate, [v for v in range(g.n) if mate[v] < 0])
    assert outer is not None  # the matching is maximum
    b = tuple(v for v in range(g.n) if not outer[v] and any(outer[u] for u in nbrs[v]))
    rest = g.vertex_mask() & ~sum(1 << v for v in b)
    sizes = tuple(sorted(c.bit_count() for c in connected_components(g, rest)))
    return TutteBergeCertificate(b, sizes, len(b) + sum(c // 2 for c in sizes))
