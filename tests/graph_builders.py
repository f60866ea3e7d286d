"""Graph builders and oracles that only the tests use."""

from itertools import combinations

from matchturan.containment import GraphFamily, contains_subgraph
from matchturan.graphs import Graph


def graph_from_pair_mask(n: int, mask: int) -> Graph:
    """Build a graph from a bitmask over combinations(range(n), 2)."""
    pairs = list(combinations(range(n), 2))
    return Graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """g plus the edge uv (ValueError on a loop or an out-of-range end)."""
    return Graph(g.n, [*g.edges(), (u, v)])


def is_family_free(g: Graph, family: GraphFamily) -> bool:
    """True iff no family member is a subgraph of g (vacuously true for the
    empty family)."""
    return not any(contains_subgraph(g, m) for m in family)
