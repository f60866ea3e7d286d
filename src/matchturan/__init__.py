"""Exact computation of generalized Turán numbers under a matching
constraint: compact bitset graphs, cover families of a forbidden graph,
extremal candidate constructions, an isomorph-free exhaustive solver, and
desk-scale verification of the closed forms they satisfy.

The namespace is lazy (PEP 562): `matchturan.X` imports the submodule that
defines X on first use, so `import matchturan.graphs` runs graphs.py alone."""

# public name -> the submodule that defines it
_SOURCE = {
    "ConstructionSpec": "constructions", "GnsBuild": "constructions",
    "assemble_gns": "constructions", "build_clique_candidate": "constructions",
    "build_forest_extremal": "constructions", "build_g_n_s": "constructions",
    "realize": "constructions",
    "GraphFamily": "containment", "contains_subgraph": "containment",
    "contains_subgraph_using_edge": "containment", "minimalize": "containment",
    "INFINITE": "covering", "CoveringReport": "covering", "all_coverings": "covering",
    "covering_report": "covering", "family_fp": "covering",
    "is_color_critical": "covering", "p_of_f": "covering",
    "MAX_VERTICES": "graphs", "CanonicalForm": "graphs", "Graph": "graphs",
    "Graph6Error": "graphs", "GraphCapacityError": "graphs", "canonical_form": "graphs",
    "complete": "graphs", "complete_bipartite": "graphs", "cycle": "graphs",
    "disjoint_union": "graphs", "empty": "graphs", "from_graph6": "graphs",
    "induced": "graphs", "join_all": "graphs", "matching": "graphs", "path": "graphs",
    "read_graph6_lines": "graphs", "relabel": "graphs", "remove_edge": "graphs",
    "star": "graphs", "to_graph6": "graphs", "turan_graph": "graphs",
    "ChromaticLimitError": "invariants", "TutteBergeCertificate": "invariants",
    "chromatic_number": "invariants", "clique_number": "invariants",
    "connected_components": "invariants", "count_cliques": "invariants",
    "matching_number": "invariants", "tutte_berge_certificate": "invariants",
    "CeilingError": "solver", "ExProfile": "solver", "ExResult": "solver",
    "enumerate_free": "solver", "ex_general": "solver", "ex_profile": "solver",
    "resolve_ceiling": "solver",
    "TheoremReport": "verifier", "verify_color_critical_components": "verifier",
    "verify_cover_family_example": "verifier", "verify_erdos_gallai": "verifier",
    "verify_forest_theorem": "verifier", "verify_gerbner_slope": "verifier",
    "verify_ma_hou": "verifier", "verify_main_theorem_exact": "verifier",
    "verify_tutte_berge": "verifier",
}
__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return [*__all__, "__version__"]
