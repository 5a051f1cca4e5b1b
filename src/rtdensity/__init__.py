"""Exact clique-density engine for weighted graphs.

Computes generalized Ramsey-Turan densities by exact optimization over
balanced partition graphs, decides weighted t-clique freeness, brute-forces
discrete extremal searches, and realizes weighted graphs as concrete
sphere-point graphs.
"""

from .freeness import (
    FreenessResult,
    WeightedCliqueWitness,
    is_ckt_free,
    max_weighted_clique_score,
)
from .graphs import SimpleGraph, clique_number, independence_number
from .optimize import (
    AuditReport,
    OptimizationResult,
    SpecOptimum,
    audit_conjecture,
    balanced_density,
    optimize_spec,
    periodicity_check,
    rho,
)
from .partitions import (
    PartitionSpec,
    complete_balanced,
    enumerate_specs,
    parts_density,
    realize_spec,
    spec_density,
    uniform_assignment,
)
from .rationals import format_fraction, parse_fraction
from .sphere import BEConfig, RealizedGraph, be_graph, graph_stats, realize, sample_sphere
from .verify import (
    BruteForceResult,
    NoFreeGraphError,
    SearchConfig,
    SearchSpaceError,
    StructureReport,
    basis_coefficients,
    brute_force_extremal,
    check_structure,
    lemma_inequality_suite,
    maclaurin_gap,
    two_part_basis,
    two_part_graph,
    verify_two_part_decomposition,
)
from .weighted import (
    ValidationReport,
    WeightedGraph,
    dumps_graph,
    graph_from_dict,
    graph_to_dict,
    h_density,
    ks_density,
    ks_density_with,
    load_graph,
    loads_graph,
    merge_zero_edge,
    round_edges_up,
    threshold_subgraph,
    validate,
)

__version__ = "0.1.0"
