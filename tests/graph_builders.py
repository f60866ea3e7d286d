"""Graph builders that only the tests use."""

from itertools import combinations

from matchturan.graphs import Graph


def graph_from_pair_mask(n: int, mask: int) -> Graph:
    """Build a graph from a bitmask over combinations(range(n), 2)."""
    pairs = list(combinations(range(n), 2))
    return Graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))
