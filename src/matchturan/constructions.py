"""Extremal candidate constructions: the split construction (a clique-side
part fully joined to an independent part, with an optimal forbidden-family-
free filling), odd cliques, and forest-theorem composites.

Fillings are found exhaustively by the solver, so at desk scale the returned
objective values are true maxima, and every tying filling is reported.
`build_forest_extremal` takes its filling; `realize` finds it with
`build_g_n_s`, as the verifier's `forest` gate does once per run.
"""

from __future__ import annotations

from typing import NamedTuple

from .containment import GraphFamily
from .graphs import (
    Graph,
    GraphCapacityError,
    MAX_VERTICES,
    complete,
    disjoint_union,
    from_graph6,
    join_all,
    to_graph6,
    turan_graph,
)
from .invariants import count_cliques
from .solver import enumerate_free


def assemble_gns(n: int, s: int, filling: Graph) -> Graph:
    """K_{s,n-s} with `filling` (a graph on s vertices) placed inside the
    s-part; vertices 0..s-1 form that part."""
    if filling.n != s:
        raise ValueError(f"filling has {filling.n} vertices, expected {s}")
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    return join_all(filling, Graph(n - s))


class GnsBuild(NamedTuple):
    """Result of optimizing the split construction's filling."""

    n: int
    s: int
    objective: str
    graph: Graph
    filling: Graph
    fillings: tuple[Graph, ...]
    value: int


def build_g_n_s(
    n: int,
    s: int,
    family: GraphFamily,
    objective: str = "edges",
    r: int | None = None,
    *,
    ceiling: int | None = None,
    workers: int = 1,
) -> GnsBuild:
    """Split construction with the family-free filling maximizing the
    construction's K_k count N_{k-1}(filling)*(n-s) + N_k(filling): k = r
    for the `kr_count` objective, and k = 2 (total edges) for `edges`,
    which takes no r.

    All maximizing fillings are kept (deterministically ordered); `graph`
    and `value` use the first."""
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    if n > MAX_VERTICES:
        raise GraphCapacityError(f"{n} vertices exceeds capacity")
    if (objective, r is None) not in (("edges", True), ("kr_count", False)):
        raise ValueError(f"objective {objective!r} with r={r}: want edges, or kr_count with r")
    if r is not None and r < 2:
        raise ValueError(f"objective kr_count needs r >= 2, got r={r}")
    k = 2 if r is None else r
    best: int | None = None
    fillings: list[Graph] = []
    for q in enumerate_free(s, family, ceiling=ceiling, workers=workers):
        val = count_cliques(q, k - 1) * (n - s) + count_cliques(q, k)
        if best is None or val > best:
            best = val
            fillings = [q]
        elif val == best:
            fillings.append(q)
    if best is None:
        raise ValueError(
            f"no {family.label or 'family'}-free filling exists on {s} vertices"
        )
    fillings.sort(key=lambda g: g.adj)
    return GnsBuild(
        n=n,
        s=s,
        objective=objective if objective == "edges" else f"kr_count(r={r})",
        graph=assemble_gns(n, s, fillings[0]),
        filling=fillings[0],
        fillings=tuple(fillings),
        value=best,
    )


def build_clique_candidate(s: int) -> Graph:
    """The odd clique on 2s+1 vertices (matching number exactly s)."""
    return complete(2 * s + 1)


def build_forest_extremal(n: int, p: int, t: int, filling: Graph) -> Graph:
    """Disjoint union of the split construction on n - t(2p-1) vertices with
    part size p-1, filled with `filling`, and t copies of K_{2p-1}."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    rest = n - t * (2 * p - 1)
    if rest < p - 1:
        raise ValueError(
            f"n={n} too small for p={p}, t={t}: needs at least {p - 1 + t * (2 * p - 1)}"
        )
    if rest > MAX_VERTICES:
        raise GraphCapacityError(f"{rest} vertices exceeds capacity")
    g = assemble_gns(rest, p - 1, filling)
    for _ in range(t):
        g = disjoint_union(g, complete(2 * p - 1))
    return g


# the spec fields each construction kind needs
_REQUIRED_FIELDS = {
    "gns": ("n", "s"),
    "clique": ("s",),
    "forest_extremal": ("n", "p", "t"),
    "turan": ("p", "parts"),
}


class ConstructionSpec(NamedTuple):
    """Serializable description of a candidate construction; `to_payload`
    is the `spec` section of the `construct` report."""

    kind: str  # a key of _REQUIRED_FIELDS
    n: int | None = None
    s: int | None = None
    p: int | None = None
    t: int | None = None
    parts: int | None = None
    r: int | None = None
    objective: str = "edges"
    family_graph6: tuple[str, ...] = ()
    family_label: str = ""

    def validate(self) -> None:
        if self.kind not in _REQUIRED_FIELDS:
            raise ValueError(f"unknown construction kind {self.kind!r}")
        needed = _REQUIRED_FIELDS[self.kind]
        if any(getattr(self, name) is None for name in needed):
            raise ValueError(f"{self.kind} needs {', '.join(needed)}")
        if self.kind == "clique" and self.s < 0:
            raise ValueError("clique needs s >= 0")

    def family(self) -> GraphFamily:
        return GraphFamily(
            [from_graph6(s) for s in self.family_graph6], label=self.family_label
        )

    def to_payload(self) -> dict:
        payload = self._asdict()
        payload["family"] = list(payload.pop("family_graph6"))
        return payload


def realize(
    spec: ConstructionSpec, *, ceiling: int | None = None, workers: int = 1
) -> tuple[Graph, dict]:
    """Build the graph a spec describes; returns it with a payload of
    construction details."""
    spec.validate()
    opts = {"ceiling": ceiling, "workers": workers}
    if spec.kind == "gns":
        build = build_g_n_s(spec.n, spec.s, spec.family(), spec.objective, spec.r, **opts)
        return build.graph, {
            "value": build.value,
            "objective": build.objective,
            "filling": to_graph6(build.filling),
            "tying_fillings": [to_graph6(q) for q in build.fillings],
        }
    if spec.kind == "clique":
        g = build_clique_candidate(spec.s)
    elif spec.kind == "forest_extremal":
        filling = build_g_n_s(spec.p - 1, spec.p - 1, spec.family(), **opts).filling
        g = build_forest_extremal(spec.n, spec.p, spec.t, filling)
    else:  # "turan", the one kind validate() leaves
        g = turan_graph(spec.p, spec.parts)
    return g, {"edges": g.edge_count()}
