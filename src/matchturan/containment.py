"""Subgraph containment and forbidden-graph families.

Containment is non-induced throughout: `pattern` is contained in `host` iff
some injective vertex map carries every pattern edge to a host edge.
Isolated pattern vertices only need distinct images, so they reduce to a
vertex-count check.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .graphs import Graph, canonical_form, read_graph6_lines, remove_edge, to_graph6


def _pattern_order(pattern: Graph) -> list[int]:
    # non-isolated vertices only; greedily prefer vertices with the most
    # already-placed neighbours (ties: higher degree, lower id)
    degs = [pattern.degree(v) for v in range(pattern.n)]
    rest = [v for v in range(pattern.n) if degs[v] > 0]
    out = []
    placed_mask = 0
    while rest:
        best = max(
            rest,
            key=lambda v: ((pattern.adj[v] & placed_mask).bit_count(), degs[v], -v),
        )
        rest.remove(best)
        out.append(best)
        placed_mask |= 1 << best
    return out


def _find_embedding(host: Graph, pattern: Graph) -> bool:
    if pattern.n > host.n:
        return False
    img = [-1] * pattern.n
    order = _pattern_order(pattern)
    host_full = host.vertex_mask()
    hdeg = [host.degree(v) for v in range(host.n)]

    def rec(i: int, used: int) -> bool:
        if i == len(order):
            return True
        a = order[i]
        need = pattern.degree(a)
        cand = host_full & ~used
        m = pattern.adj[a]
        while m:
            b = m & -m
            m ^= b
            t = img[b.bit_length() - 1]
            if t >= 0:
                cand &= host.adj[t]
        while cand:
            b = cand & -cand
            cand ^= b
            hv = b.bit_length() - 1
            if hdeg[hv] < need:
                continue
            img[a] = hv
            if rec(i + 1, used | b):
                return True
        img[a] = -1
        return False

    return rec(0, 0)


def contains_subgraph(host: Graph, pattern: Graph) -> bool:
    """True iff pattern embeds into host as a (not necessarily induced)
    subgraph."""
    return _find_embedding(host, pattern)


def contains_subgraph_using_edge(host: Graph, pattern: Graph, u: int, v: int) -> bool:
    """True iff the host edge uv completes a copy of pattern: host contains
    pattern and host - uv does not.  False when uv is not a host edge, and
    False when host - uv already contains pattern.  Used for incremental
    freeness checks after adding uv to a pattern-free graph, where it equals
    "host contains pattern"."""
    return (
        host.has_edge(u, v)
        and _find_embedding(host, pattern)
        and not _find_embedding(remove_edge(host, u, v), pattern)
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

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "GraphFamily":
        """Inverse of to_lines: the label is the first non-empty comment
        before the first graph."""
        lines = list(lines)
        label = ""
        for line in lines:
            line = line.strip()
            if line and not line.startswith("#"):
                break
            label = label or line.lstrip("#").strip()
        return cls(read_graph6_lines(lines), label=label)


def is_family_free(g: Graph, family: GraphFamily) -> bool:
    """True iff no family member is a subgraph of g (vacuously true for the
    empty family)."""
    return not any(contains_subgraph(g, m) for m in family)


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
