"""Exact clique-density engine for weighted graphs.

Computes generalized Ramsey-Turan densities by exact optimization over
balanced partition graphs, decides weighted t-clique freeness, brute-forces
discrete extremal searches, and realizes weighted graphs as concrete
sphere-point graphs.
"""

import importlib

__version__ = "0.1.0"

# Every layer loads on first use of one of its names or of the module itself
# (PEP 562), so a program pays only for the layers it runs; `sphere` alone
# imports numpy.
_EXPORTS = {
    "freeness": ("FreenessResult", "WeightedCliqueWitness", "is_ckt_free", "max_weighted_clique_score"),
    "graphs": ("SimpleGraph", "clique_number", "independence_number"),
    "optimize": (
        "AuditReport", "OptimizationResult", "SpecOptimum", "audit_conjecture", "balanced_density",
        "optimize_spec", "periodicity_check", "rho",
    ),
    "partitions": (
        "PartitionSpec", "complete_balanced", "enumerate_specs", "parts_density", "realize_spec",
        "spec_density", "uniform_assignment",
    ),
    "rationals": ("format_fraction", "parse_fraction"),
    "sphere": ("BEConfig", "RealizedGraph", "be_graph", "graph_stats", "realize", "sample_sphere"),
    "verify": (
        "BruteForceResult", "SearchConfig", "SearchSpaceError", "StructureReport", "basis_coefficients",
        "brute_force_extremal", "check_structure", "lemma_inequality_suite", "maclaurin_gap",
        "two_part_basis", "two_part_graph", "verify_two_part_decomposition",
    ),
    "weighted": (
        "NoFreeGraphError", "ValidationReport", "WeightedGraph", "dumps_graph", "graph_from_dict",
        "graph_to_dict", "h_density", "ks_density", "ks_density_with", "load_graph", "loads_graph",
        "merge_zero_edge", "round_edges_up", "threshold_subgraph", "validate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
