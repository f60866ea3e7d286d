"""Vertex coverings of a forbidden graph and the induced-cover family they
generate, plus the minimum independent-cover size and color-criticality.

For a graph F and a bound p, the cover family collects the subgraphs F[S]
induced on every covering S (a set whose removal leaves F edgeless) with
|S| <= p, deduplicated up to isomorphism.  When no such covering exists the
family falls back to the single clique on p+1 vertices.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .containment import GraphFamily
from .graphs import Graph, _bits, canonical_form, complete, induced, remove_edge, to_graph6
from .invariants import _colorable, chromatic_number

INFINITE = math.inf


def all_coverings(f: Graph, p: int) -> list[tuple[int, ...]]:
    """All vertex sets S with |S| <= p whose removal leaves f edgeless,
    ordered by (size, lexicographic).  S = V(f) counts when |V(f)| <= p."""
    if p < 0:
        raise ValueError(f"cover bound must be >= 0, got {p}")
    full = f.vertex_mask()
    out = []
    for size in range(min(p, f.n) + 1):
        for s in combinations(range(f.n), size):
            smask = 0
            for v in s:
                smask |= 1 << v
            rest = full & ~smask
            if all(f.adj[v] & rest == 0 for v in range(f.n) if rest >> v & 1):
                out.append(s)
    return out


def family_fp(f: Graph, p: int) -> GraphFamily:
    """The family {f[S] : S a covering of f, |S| <= p}, deduplicated up to
    isomorphism; {K_{p+1}} when f has no covering of size <= p."""
    return covering_report(f, p).family


class CoveringReport(NamedTuple):
    """Covers of size <= p of one graph and the family they induce."""

    graph: Graph
    p: int
    covers: tuple[tuple[int, ...], ...]
    family: GraphFamily
    fallback_used: bool

    def to_payload(self) -> dict:
        return {
            "graph": to_graph6(self.graph),
            "p": self.p,
            "covers": [list(s) for s in self.covers],
            "family_label": self.family.label,
            "family": [to_graph6(m) for m in self.family],
            "fallback_used": self.fallback_used,
        }


def covering_report(f: Graph, p: int, label: str = "") -> CoveringReport:
    covers = all_coverings(f, p)
    if not label:
        label = f"fp({to_graph6(canonical_form(f).graph)},{p})"
    if covers:
        family = GraphFamily((induced(f, s) for s in covers), label=label)
    else:
        family = GraphFamily([complete(p + 1)], label=label)
    return CoveringReport(
        graph=f,
        p=p,
        covers=tuple(covers),
        family=family,
        fallback_used=not covers,
    )


def p_of_f(f: Graph) -> int | float:
    """Minimum size of an independent covering: for bipartite f this is the
    smallest colour-class size summed per component; INFINITE when the
    chromatic number is at least 3."""
    total, rest = 0, f.vertex_mask()
    while rest:
        layer = rest & -rest
        a = b = 0  # the component's two colour classes, swapped at each BFS layer
        while layer:
            rest &= ~layer
            reach = 0
            for v in _bits(layer):
                if f.adj[v] & layer:
                    return INFINITE  # an edge inside a BFS layer closes an odd cycle
                reach |= f.adj[v]
            a, b = b, a + layer.bit_count()
            layer = reach & rest
        total += min(a, b)
    return total


def is_color_critical(f: Graph) -> bool:
    """True iff deleting some single edge lowers the chromatic number: chi(f)
    once, then whether f - e is (chi - 1)-colourable for each edge e, all of
    those searches under one CHROMATIC_MAX_NODES budget.  Raises
    ChromaticLimitError past that budget or chromatic_number's own."""
    edges = list(f.edges())
    if not edges:
        return False
    chi = chromatic_number(f)
    order = sorted(range(f.n), key=lambda v: (-f.degree(v), v))
    nodes = [0]  # search nodes so far, over every edge
    return any(_colorable(remove_edge(f, u, v), order, chi - 1, nodes) for u, v in edges)
