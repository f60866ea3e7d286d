"""Property test: canonical_form is invariant under relabelling on the whole
64-vertex domain."""

import random
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matchturan.graphs import Graph, canonical_form, relabel  # noqa: E402


@st.composite
def relabelled_pairs(draw):
    n = draw(st.integers(0, 64))
    density = draw(st.sampled_from([0.0, 0.05, 3 / max(n, 1), 0.3, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density])
    perm = list(range(n))
    rng.shuffle(perm)
    return g, relabel(g, perm)


@settings(max_examples=60, deadline=None)
@given(relabelled_pairs())
def test_canonical_form_is_relabelling_invariant(pair):
    g, h = pair
    cf = canonical_form(g)
    assert cf == canonical_form(h)
    assert relabel(g, cf.permutation) == cf.graph
    for sigma in cf.automorphisms:
        assert relabel(g, sigma) == g
