"""Median adjacency eigenvalue toolkit.

Compute the index R(G) = max(|lam_h|, |lam_l|) at the median spectrum
positions, certify bounds on it with exact integer arithmetic, mechanically
re-verify the supporting structural arguments on concrete graphs, and
enumerate the small-graph families the desk-scale checks sweep over.
"""

from .graph_core import (
    Graph,
    Graph6Error,
    Multigraph,
    bipartition,
    components,
    cut_vertices,
    induced_delete,
    induced_subgraph,
    is_bipartite,
    is_connected,
    parse_graph6,
    spanning_subgraph,
    to_graph6,
)
from .named import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diamond_graph,
    empty_graph,
    heawood_graph,
    path_graph,
    paw_graph,
    petersen_graph,
    prism_graph,
    star_graph,
)
from .spectra import (
    SQRT2,
    HLIndex,
    InertiaCount,
    RBoundCertificate,
    Spectrum,
    Sqrt2Rational,
    certify_R_le,
    count_at_threshold,
    hl_index,
    median_positions,
    spectrum,
)
from .structure import (
    K23Embedding,
    Partition,
    SPReductionTrace,
    UnbalancedSearch,
    find_k23,
    find_twins,
    find_unbalanced_unfriendly,
    is_k4_minor_free,
    is_unfriendly,
    longest_cycle,
    reduce_multigraph,
    replay_reduction,
    unfriendly_partition,
)
from .enumeration import (
    HARD_CAP,
    GenSpec,
    canonical_key,
    enumerate_graphs,
)
from .proofs import (
    FAIL,
    NOT_APPLICABLE,
    NOT_FOUND,
    PASS,
    TraceStep,
    WitnessTrace,
    check_lemma_odd,
    check_lemma_twins,
    check_lemma_unbalanced,
    replay_trace,
    trace_from_json_dict,
    verify_theorem_k23,
    verify_theorem_sp,
)

__version__ = "0.1.0"
