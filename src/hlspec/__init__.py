"""Median adjacency eigenvalue toolkit.

Compute the index R(G) = max(|lam_h|, |lam_l|) at the median spectrum
positions, certify bounds on it with exact integer arithmetic, mechanically
re-verify the supporting structural arguments on concrete graphs, and
enumerate the small-graph families the desk-scale checks sweep over.

Each public name is imported from its submodule on first access (PEP 562),
so `import hlspec` and each CLI command load only the modules they use.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "graph_core": (
        "Graph", "Graph6Error", "bipartition", "components", "cut_vertices",
        "induced_delete", "induced_subgraph", "is_bipartite", "is_connected", "parse_graph6",
        "spanning_subgraph", "to_graph6",
    ),
    "named": (
        "complete_bipartite", "complete_graph", "cycle_graph", "diamond_graph", "empty_graph",
        "heawood_graph", "path_graph", "paw_graph", "petersen_graph", "prism_graph",
        "star_graph",
    ),
    "spectra": (
        "SQRT2", "HLIndex", "InertiaCount", "RBoundCertificate", "Spectrum", "Sqrt2Rational",
        "certify_R_le", "count_at_threshold", "hl_index", "median_positions", "spectrum",
    ),
    "structure": (
        "K23Embedding", "Partition", "SPReductionTrace", "find_k23", "is_k4_minor_free",
        "is_unfriendly", "replay_reduction",
    ),
    "enumeration": ("HARD_CAP", "GenSpec", "canonical_key", "enumerate_graphs"),
    "proofs": (
        "FAIL", "NOT_APPLICABLE", "PASS", "TraceStep", "WitnessTrace", "check_lemma_odd",
        "replay_trace", "trace_from_json_dict", "verify_theorem_k23", "verify_theorem_sp",
    ),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE)


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
