"""Subgraph containment and forbidden-graph families.

Containment is non-induced throughout: `pattern` is contained in `host` iff
some injective vertex map carries every pattern edge to a host edge.
Isolated pattern vertices only need distinct images, so they reduce to a
vertex-count check.  One backtracking kernel places pattern vertices in a
fixed order; the unanchored search starts it empty, and the search for a
copy through a host edge uv starts it from an arc (a, b) mapped onto
(u, v), one arc per automorphism orbit (see _plan).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

from .graphs import (
    Graph,
    _bits,
    canonical_form,
    remove_edge,
    to_graph6,
)

# a search step: a pattern vertex, its degree and its earlier-placed neighbours
Step = tuple[int, int, tuple[int, ...]]
# a pattern's degrees and, per Aut(pattern)-orbit of arcs, one (a, b, steps)
Plan = tuple[tuple[int, ...], tuple[tuple[int, int, tuple[Step, ...]], ...]]


def _pattern_order(pattern: Graph, placed: int = 0) -> tuple[Step, ...]:
    # the non-isolated vertices outside `placed`; greedily prefer vertices
    # with the most already-placed neighbours (ties: higher degree, lower id)
    adj = pattern.adj
    degs = [row.bit_count() for row in adj]
    rest = [v for v in range(pattern.n) if degs[v] > 0 and not placed >> v & 1]
    out = []
    while rest:
        best = max(rest, key=lambda v: ((adj[v] & placed).bit_count(), degs[v], -v))
        rest.remove(best)
        out.append((best, degs[best], tuple(_bits(adj[best] & placed))))
        placed |= 1 << best
    return tuple(out)


def _extend(
    adj: tuple[int, ...], steps: tuple[Step, ...], i: int, img: list[int], free: int
) -> bool:
    # the search kernel: place steps[i:] on `free` host vertices, next to
    # the images of their placed neighbours
    if i == len(steps):
        return True
    a, need, back = steps[i]
    cand = free
    for w in back:
        cand &= adj[img[w]]
    while cand:
        b = cand & -cand
        cand ^= b
        hv = b.bit_length() - 1
        if adj[hv].bit_count() >= need:
            img[a] = hv
            if _extend(adj, steps, i + 1, img, free ^ b):
                return True
    return False


@lru_cache(maxsize=256)
def _plan(pattern: Graph) -> Plan:
    """The searches through a host edge uv, one per Aut(pattern)-orbit of
    arcs (a, b): map a onto u and b onto v, then place `steps`.  A copy
    composed with an automorphism serves every arc of the orbit."""
    gens = canonical_form(pattern).automorphisms
    seen: set[tuple[int, int]] = set()
    arcs = []
    for a in range(pattern.n):
        for b in _bits(pattern.adj[a]):
            if (a, b) not in seen:
                arcs.append((a, b, _pattern_order(pattern, 1 << a | 1 << b)))
                stack = [(a, b)]
                while stack:
                    arc = stack.pop()
                    if arc not in seen:
                        seen.add(arc)
                        stack.extend((g[arc[0]], g[arc[1]]) for g in gens)
    return tuple(pattern.degree(v) for v in range(pattern.n)), tuple(arcs)


def _through_edge(host: Graph, plan: Plan, u: int, v: int) -> bool:
    # True iff some copy of the planned pattern maps an edge onto host edge uv
    degs, arcs = plan
    if len(degs) > host.n:
        return False
    adj, img = host.adj, [0] * len(degs)
    free = host.vertex_mask() & ~(1 << u | 1 << v)
    for a, b, steps in arcs:
        if degs[a] <= adj[u].bit_count() and degs[b] <= adj[v].bit_count():
            img[a], img[b] = u, v
            if _extend(adj, steps, 0, img, free):
                return True
    return False


def contains_subgraph(host: Graph, pattern: Graph) -> bool:
    """True iff pattern embeds into host as a (not necessarily induced)
    subgraph."""
    return pattern.n <= host.n and _extend(
        host.adj, _pattern_order(pattern), 0, [0] * pattern.n, host.vertex_mask()
    )


def contains_subgraph_using_edge(host: Graph, pattern: Graph, u: int, v: int) -> bool:
    """True iff the host edge uv completes a copy of pattern: some copy uses
    uv and host - uv contains none.  False when uv is not a host edge."""
    return (
        host.has_edge(u, v)
        and _through_edge(host, _plan(pattern), u, v)
        and not contains_subgraph(remove_edge(host, u, v), pattern)
    )


class GraphFamily:
    """A set of forbidden graphs, deduplicated up to isomorphism.

    Members are stored as canonical representatives sorted by their canonical
    key, so iteration order, equality, and serialization are deterministic
    and label-independent.
    """

    __slots__ = ("members", "label")

    def __init__(self, graphs: Iterable[Graph] = (), label: str = ""):
        by_key = {}
        for g in graphs:
            cf = canonical_form(g)
            by_key[cf.key()] = cf.graph
        self.members = tuple(by_key[k] for k in sorted(by_key))
        self.label = label

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, g: Graph) -> bool:
        key = canonical_form(g).key()
        return any((m.n, m.adj) == key for m in self.members)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GraphFamily) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        label = f" label={self.label!r}" if self.label else ""
        return f"GraphFamily({len(self.members)} members{label})"

    def to_lines(self) -> list[str]:
        """Serialize as a label header plus one graph6 line per member."""
        return [f"# {self.label}"] + [to_graph6(m) for m in self.members]


def minimalize(family: GraphFamily) -> GraphFamily:
    """Drop members that contain another member as a subgraph; freeness
    semantics are unchanged for every host.  The kept members are already
    canonical and sorted, so they are not canonicalized again."""
    keep = []
    for i, m in enumerate(family.members):
        dominated = any(
            j != i and contains_subgraph(m, other)
            for j, other in enumerate(family.members)
        )
        if not dominated:
            keep.append(m)
    out = GraphFamily.__new__(GraphFamily)
    out.members = tuple(keep)
    out.label = family.label
    return out
