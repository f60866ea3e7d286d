"""Exact computation of generalized Turán numbers under a matching
constraint: compact bitset graphs, cover families of a forbidden graph,
extremal candidate constructions, an isomorph-free exhaustive solver, and
desk-scale verification of the closed forms they satisfy."""

from .constructions import (
    ConstructionSpec,
    GnsBuild,
    assemble_gns,
    build_clique_candidate,
    build_forest_extremal,
    build_g_n_s,
    realize,
)
from .containment import (
    GraphFamily,
    contains_subgraph,
    contains_subgraph_using_edge,
    minimalize,
)
from .covering import (
    INFINITE,
    CoveringReport,
    all_coverings,
    covering_report,
    family_fp,
    is_color_critical,
    p_of_f,
)
from .graphs import (
    MAX_VERTICES,
    CanonicalForm,
    Graph,
    Graph6Error,
    GraphCapacityError,
    canonical_form,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    from_graph6,
    induced,
    join_all,
    matching,
    path,
    read_graph6_lines,
    relabel,
    remove_edge,
    star,
    to_graph6,
    turan_graph,
)
from .invariants import (
    ChromaticLimitError,
    TutteBergeCertificate,
    chromatic_number,
    clique_number,
    connected_components,
    count_cliques,
    matching_number,
    tutte_berge_certificate,
)
from .solver import (
    CeilingError,
    ExProfile,
    ExResult,
    enumerate_free,
    ex_general,
    ex_profile,
    resolve_ceiling,
)
from .verifier import (
    TheoremReport,
    verify_color_critical_components,
    verify_cover_family_example,
    verify_erdos_gallai,
    verify_forest_theorem,
    verify_gerbner_slope,
    verify_ma_hou,
    verify_main_theorem_exact,
    verify_tutte_berge,
)

__version__ = "0.1.0"
