"""Isomorph-free exhaustive enumeration of forbidden-family-free graphs and
exact generalized Turán values with extremal witnesses.

Enumeration is level-synchronous over the edge count and uses McKay's
canonical augmentation (B. D. McKay, Isomorph-free exhaustive generation,
J. Algorithms 26, 1998), the scheme behind nauty's geng.  Each class
representative carries generators of its automorphism group; its non-edges
are tried one per orbit, a child is dropped when the new edge creates a
forbidden subgraph, and a child is kept only when the new edge is
equivalent to its canonical edge, so every class is produced once, with one
canonical labelling, and no set is needed.  Each non-edge takes the tests
cheapest first: the first refinement round of the canonical-edge test, one
bit of masks built once per parent from its degrees; the orbit mark; the
member test; the rest of the canonical-edge test; canonical_form.  The
first round depends only on degrees, so it is constant on an orbit and may
run before the orbit is marked.  Freeness is monotone under edge deletion,
so the pruning is exact, and the parent is family-free, so a member is
created iff one search that maps a member edge onto the new edge succeeds
(containment._plan, built once per member and enumeration).
Each level is sorted by canonical adjacency, so the stream - and
everything derived from it - is deterministic, with or without workers.
With workers > 1, a level of at least PARENTS_PER_WORKER parents per
worker is split across a forked pool that lives for that one level: no
worker exists while the generator waits at a yield, and narrower levels
run inline, where a fork costs more than it saves.
"""

from __future__ import annotations

import json
import os
import time
from typing import Iterator, NamedTuple

from .containment import GraphFamily, Plan, _plan, _through_edge, minimalize
from .covering import family_fp, p_of_f
from .graphs import (
    CanonicalForm,
    Graph,
    _colors,
    _raw,
    _root_cells,
    canonical_form,
    to_graph6,
)
from .invariants import count_cliques

HARD_CEILING = 10
ENV_CEILING = "MATCHTURAN_CEILING"
# parents per worker a level needs before it forks a pool.  The widest levels
# of `verify-grid` (20 parents) and `ex --n 9 --forbid M3` (25) stay serial
# at two workers (so >= 13); the empty family's widest at n = 7 (148) still
# forks at eight (so <= 18).
PARENTS_PER_WORKER = 16


def get_context(method: str):
    """multiprocessing.get_context, imported only when a level forks: the
    import costs about 15 ms, and most processes never fork."""
    import multiprocessing

    return multiprocessing.get_context(method)


class CeilingError(ValueError):
    """Raised when an enumeration would exceed the configured ceiling."""


def validate_ceiling(value: int | str, source: str) -> int:
    """`value` (an int, or its decimal text) as an int in 1..HARD_CEILING,
    else a ValueError naming the `source` it came from.  A bool or a float is
    refused, as its text would be."""
    try:
        ceiling = int(value) if type(value) in (int, str) else 0
    except ValueError:
        ceiling = 0
    if not 1 <= ceiling <= HARD_CEILING:
        raise ValueError(
            f"{source} must be an integer between 1 and {HARD_CEILING}, got {value!r}"
        )
    return ceiling


def validate_workers(value: int, source: str) -> None:
    """A ValueError naming the `source` unless `value` is an int >= 1 (not a
    bool)."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {value!r}")


def resolve_ceiling(family: GraphFamily, ceiling: int | None = None) -> int:
    """Explicit argument, else the MATCHTURAN_CEILING env var, else 10 when
    the family prunes hard (some member on <= 4 vertices), else 9.  The
    argument and the env var must lie in 1..HARD_CEILING."""
    if ceiling is not None:
        return validate_ceiling(ceiling, "ceiling argument")
    env = os.environ.get(ENV_CEILING)
    if env:
        return validate_ceiling(env, ENV_CEILING)
    if any(m.n <= 4 for m in family):
        return 10
    return 9


def _matching_size(m: Graph) -> int:
    """k when m is the plain matching M_k (k >= 1), else 0."""
    return m.edge_count() if all(row.bit_count() == 1 for row in m.adj) else 0


def _has_matching(adj: tuple[int, ...], avail: int, k: int) -> bool:
    # early-exit search for k disjoint edges inside avail
    if k == 0:
        return True
    if avail.bit_count() < 2 * k:
        return False
    m = avail
    v = -1
    while m:
        b = m & -m
        c = b.bit_length() - 1
        if adj[c] & avail:
            v = c
            break
        m ^= b
    if v < 0:
        return False
    rest = avail & ~(1 << v)
    nb = adj[v] & avail
    while nb:
        b = nb & -nb
        nb ^= b
        if _has_matching(adj, rest & ~b, k - 1):
            return True
    return _has_matching(adj, rest, k)


def _edge_creates_member(
    child: Graph, members: list[tuple[int, Plan | None]], u: int, v: int
) -> bool:
    # members: (k, None) for the matching M_k, else (0, its search plan)
    for k, plan in members:
        if k:
            # a new copy must use edge uv; the rest is a matching avoiding u, v
            rest = child.vertex_mask() & ~(1 << u) & ~(1 << v)
            if _has_matching(child.adj, rest, k - 1):
                return True
        elif _through_edge(child, plan, u, v):
            return True
    return False


# a class representative: canonical rows and generators of its automorphism
# group in that labelling
Labelled = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def _labelled(cf: CanonicalForm) -> Labelled:
    # carry the automorphisms over from the input labelling to the canonical one
    perm = cf.permutation
    gens = []
    for sigma in cf.automorphisms:
        tau = [0] * len(perm)
        for v, p in enumerate(perm):
            tau[p] = perm[sigma[v]]
        gens.append(tuple(tau))
    return cf.graph.adj, tuple(gens)


def _pair_orbit(
    u: int, v: int, gens: tuple[tuple[int, ...], ...]
) -> set[tuple[int, int]]:
    orbit = {(u, v)}
    stack = [(u, v)]
    while stack:
        a, b = stack.pop()
        for g in gens:
            x, y = g[a], g[b]
            pair = (x, y) if x < y else (y, x)
            if pair not in orbit:
                orbit.add(pair)
                stack.append(pair)
    return orbit


def _top_class(child: Graph, u: int, v: int) -> list[tuple[int, int]] | None:
    # An edge's colour is its sorted pair of endpoint colours under the
    # child's equitable refinement, an isomorphism invariant.  Returns the
    # edges of the largest colour when uv has it, else None.
    n, adj = child.n, child.adj
    colors = _colors(n, _root_cells(child))
    cu, cv = colors[u], colors[v]
    top = (cu, cv) if cu < cv else (cv, cu)
    out = []
    for a in range(n):
        ca = colors[a]
        m = adj[a] >> (a + 1)
        while m:
            bit = m & -m
            m ^= bit
            b = a + bit.bit_length()
            cb = colors[b]
            pair = (ca, cb) if ca < cb else (cb, ca)
            if pair > top:
                return None
            if pair == top:
                out.append((a, b))
    return out


def _round0_rejects(n: int, rows: tuple[int, ...]) -> list[int]:
    # Round 0 on P + uv for every non-edge uv of P: v is in mask u iff some
    # edge of P + uv has both endpoints of degree above the smaller of u's
    # and v's.  In P's degrees that bound is low = min(du, dv) + 1, and the
    # edge is one of P with both degrees > low (min(du, dv) <= tmax - 2,
    # tmax the largest smaller-endpoint degree of an edge), or, when
    # du = dv + 1, one from u to a vertex of degree > du (u is hot), or the
    # same with u and v swapped.
    deg = [r.bit_count() for r in rows]
    above = [0] * n  # above[t]: the vertices of degree > t
    by_degree = [0] * (n + 1)
    for a, d in enumerate(deg):
        by_degree[d] |= 1 << a
        for t in range(d):
            above[t] |= 1 << a
    hot = tmax = 0
    for a, d in enumerate(deg):
        if rows[a] & above[d]:
            hot |= 1 << a
        # an edge ab has min(d, deg[b]) > t iff d > t and b is in above[t]
        for t in range(d - 1, tmax - 1, -1):
            if rows[a] & above[t]:
                tmax = t + 1
                break
    full = (1 << n) - 1
    small = full & ~above[tmax - 2] if tmax >= 2 else 0  # degree <= tmax - 2
    masks = []
    for u, d in enumerate(deg):
        mask = small | by_degree[d + 1] & hot
        if hot >> u & 1:  # so d >= 1
            mask |= by_degree[d - 1]
        masks.append(full if small >> u & 1 else mask)
    return masks


def _expand_parents(
    n: int, parents: list[Labelled], members: list[tuple[int, Plan | None]]
) -> list[Labelled]:
    """Canonical augmentation (McKay 1998): the children of `parents` that
    are accepted, one per isomorphism class.  A child C = P + uv is
    accepted iff uv lies in the Aut(C)-orbit of C's canonical edge m(C),
    the edge of C's largest edge colour (see _top_class) with the largest
    canonical image.  Then C is accepted only from the class representative
    of C - m(C), and only from one Aut(P)-orbit of non-edges, which the
    parent's generators prune to a single representative.

    A non-edge first meets round 0, one bit of the masks _round0_rejects
    builds once per parent from its degree tables, then the orbit mark, the
    member test, _top_class and canonical_form.  Round 0 is the first
    refinement round's verdict, and refinement orders colours by degree
    first: C is rejected when some edge has both endpoints of degree above
    the smaller of u's and v's.  Aut(P) preserves degrees, so the verdict is
    the same for every non-edge of an orbit, and an orbit it rejects needs
    no mark."""
    out: list[Labelled] = []
    for rows, gens in parents:
        rejects = _round0_rejects(n, rows)
        seen: set[tuple[int, int]] = set()
        for u in range(n):
            skip = rows[u] | rejects[u]
            for v in range(u + 1, n):
                if skip >> v & 1 or (u, v) in seen:
                    continue
                if gens:
                    seen |= _pair_orbit(u, v, gens)
                child_rows = list(rows)
                child_rows[u] |= 1 << v
                child_rows[v] |= 1 << u
                child = _raw(n, child_rows)
                if members and _edge_creates_member(child, members, u, v):
                    continue
                top = _top_class(child, u, v)
                if top is None:
                    continue
                cf = canonical_form(child)
                if len(top) > 1:
                    perm = cf.permutation
                    a, b = max(top, key=lambda e: sorted((perm[e[0]], perm[e[1]])))
                    if (a, b) not in _pair_orbit(u, v, cf.automorphisms):
                        continue
                out.append(_labelled(cf))
    return out


def enumerate_free(
    n: int,
    family: GraphFamily,
    *,
    ceiling: int | None = None,
    workers: int = 1,
) -> Iterator[Graph]:
    """Yield exactly one representative per isomorphism class of
    family-free n-vertex graphs, in deterministic order (by edge count,
    then canonical adjacency).  The arguments are checked at the call, not
    at the first next()."""
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    validate_workers(workers, "workers argument")
    limit = resolve_ceiling(family, ceiling)
    if n > limit:
        raise CeilingError(f"n={n} exceeds enumeration ceiling {limit}")
    return _enumerate(n, family, workers)


def _enumerate(n: int, family: GraphFamily, workers: int) -> Iterator[Graph]:
    reduced = minimalize(family)
    if any(m.edge_count() == 0 and m.n <= n for m in reduced):
        return  # an edgeless member embeds into every n-vertex graph
    members = [
        ((k := _matching_size(m)), None if k else _plan(m)) for m in reduced if m.n <= n
    ]

    level = [_labelled(canonical_form(_raw(n, [0] * n)))]
    while level:
        for rows, _ in level:
            yield _raw(n, rows)
        if workers > 1 and len(level) >= PARENTS_PER_WORKER * workers:
            chunk = (len(level) + workers - 1) // workers
            with get_context("fork").Pool(workers) as pool:
                parts = pool.starmap(
                    _expand_parents,
                    [(n, level[i : i + chunk], members) for i in range(0, len(level), chunk)],
                )
            level = [kid for part in parts for kid in part]
        else:
            level = _expand_parents(n, level, members)
        level.sort()


class ExResult(NamedTuple):
    """Exact maximum r-clique count over family-free n-vertex graphs,
    with every extremal graph up to isomorphism (as graph6)."""

    n: int
    r: int
    family_label: str
    value: int | None
    witnesses: tuple[str, ...]
    enumerated_count: int
    elapsed: float

    def to_payload(self) -> dict:
        # elapsed is a sidecar measurement, excluded from the deterministic payload
        return {
            "n": self.n,
            "r": self.r,
            "family": self.family_label,
            "value": self.value,
            "witnesses": list(self.witnesses),
            "enumerated_classes": self.enumerated_count,
        }

    def payload_bytes(self) -> bytes:
        return json.dumps(self.to_payload(), sort_keys=True).encode()


def ex_general(
    n: int,
    r: int,
    family: GraphFamily,
    *,
    ceiling: int | None = None,
    workers: int = 1,
) -> ExResult:
    """ex(n, K_r, family): exact value plus all extremal witnesses.

    value is None when no family-free n-vertex graph exists (the family
    contains an edgeless graph on at most n vertices)."""
    if r < 1:
        raise ValueError(f"clique order must be >= 1, got {r}")
    t0 = time.perf_counter()
    best: int | None = None
    tying: list[Graph] = []
    count = 0
    for g in enumerate_free(n, family, ceiling=ceiling, workers=workers):
        count += 1
        c = count_cliques(g, r)
        if best is None or c > best:
            best = c
            tying = [g]
        elif c == best:
            tying.append(g)
    return ExResult(
        n=n,
        r=r,
        family_label=family.label,
        value=best,
        witnesses=tuple(sorted(map(to_graph6, tying))),
        enumerated_count=count,
        elapsed=time.perf_counter() - t0,
    )


class ExProfile(NamedTuple):
    """Values of ex(p, K_{r-1}, cover-family(F, p)) over the admissible
    range p < min(s+1, p(F)), and the smallest maximizing p."""

    r: int
    s: int
    p_limit: int
    points: tuple[tuple[int, int], ...]
    t: int | None


def ex_profile(
    f: Graph,
    r: int,
    s: int,
    *,
    ceiling: int | None = None,
    workers: int = 1,
) -> ExProfile:
    """Profile p -> ex(p, K_{r-1}, cover-family(F, p)) for the p admissible
    under the matching bound s, with the argmax t (smallest on ties)."""
    p_limit = min(s + 1, p_of_f(f))  # p(F) is infinite or an int
    points = []
    for p in range(1, p_limit):
        fam = family_fp(f, p)
        value = ex_general(p, r - 1, fam, ceiling=ceiling, workers=workers).value
        assert value is not None  # within the admissible range a free graph exists
        points.append((p, value))
    t = None
    if points:
        best = max(v for _, v in points)
        t = min(p for p, v in points if v == best)
    return ExProfile(r=r, s=s, p_limit=p_limit, points=tuple(points), t=t)
