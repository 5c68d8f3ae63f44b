"""Von Neumann and Renyi entropies of finite simple graphs.

The entropy of a graph G with at least one edge is read off the scaled
combinatorial Laplacian rho(G) = L(G) / d_G, d_G = 2|E|: the von Neumann
entropy S(G) is the Shannon entropy (bits) of rho's eigenvalues, and
H_alpha(G) its Renyi relaxations. The package computes these exactly where
closed forms exist, numerically otherwise, and ships an isomorph-free
enumerator plus verification engines that re-check the known extremal
statements exhaustively at small orders.
"""

from .graphs import (
    MAX_VERTICES,
    DegreeSequence,
    Graph,
    Graph6Error,
    add_edge,
    add_edges,
    complete,
    complete_bipartite,
    component_count,
    cycle,
    degree_sequence,
    diameter,
    disjoint_union,
    empty_graph,
    from_edges,
    is_connected,
    laplacian,
    matching_number,
    max_degree,
    parse_graph6,
    path,
    star,
    write_graph6,
)
from .spectral import DEFAULT_TOL, density_spectrum, eigenvalues_symmetric
from .entropy import (
    EntropyReport,
    bipartite_entropy_closed,
    density_test,
    entropy_augmentation,
    entropy_report,
    graph_renyi_entropy,
    h2_degree,
    k2n2_closed,
    renyi_entropy,
    shannon_entropy,
    star_entropy_closed,
    star_test,
    tr2,
    von_neumann_entropy,
)
from .enumeration import (
    canonical_form,
    enumerate_graphs,
    enumerate_trees,
    stream_graph6,
)
from .verify import (
    CoentropyGroup,
    ParamComparison,
    TheoremViolation,
    VerificationResult,
    coentropy_search,
    edge_add_decrease_search,
    failing_graph_properties,
    param_comparability,
    table1_row,
    verify_density_implies_star,
    verify_renyi_max,
    verify_renyi_star_min,
    verify_star_min_von_neumann,
    verify_tree_extremes,
)

__version__ = "0.1.0"

__all__ = [
    # graphs
    "MAX_VERTICES", "DegreeSequence", "Graph", "Graph6Error", "add_edge",
    "add_edges", "complete", "complete_bipartite", "component_count", "cycle",
    "degree_sequence", "diameter", "disjoint_union", "empty_graph",
    "from_edges", "is_connected", "laplacian", "matching_number", "max_degree",
    "parse_graph6", "path", "star", "write_graph6",
    # spectral
    "DEFAULT_TOL", "density_spectrum", "eigenvalues_symmetric",
    # entropy
    "EntropyReport", "bipartite_entropy_closed", "density_test",
    "entropy_augmentation", "entropy_report", "graph_renyi_entropy",
    "h2_degree", "k2n2_closed", "renyi_entropy", "shannon_entropy",
    "star_entropy_closed", "star_test", "tr2", "von_neumann_entropy",
    # enumeration
    "canonical_form", "enumerate_graphs", "enumerate_trees", "stream_graph6",
    # verify
    "CoentropyGroup", "ParamComparison", "TheoremViolation",
    "VerificationResult", "coentropy_search", "edge_add_decrease_search",
    "failing_graph_properties", "param_comparability", "table1_row",
    "verify_density_implies_star", "verify_renyi_max", "verify_renyi_star_min",
    "verify_star_min_von_neumann", "verify_tree_extremes",
]
