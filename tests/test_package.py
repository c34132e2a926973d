"""The package's public names: the export list, each name resolved from its
submodule on first access, star import, dir() and unknown names."""

import importlib

import pytest

import hlspec

# the public names by defining module, in export order
EXPORTS = {
    "graph_core": [
        "Graph", "Graph6Error", "bipartition", "components", "cut_vertices",
        "induced_delete", "induced_subgraph", "is_bipartite", "is_connected", "parse_graph6",
        "spanning_subgraph", "to_graph6",
    ],
    "named": [
        "complete_bipartite", "complete_graph", "cycle_graph", "diamond_graph", "empty_graph",
        "heawood_graph", "path_graph", "paw_graph", "petersen_graph", "prism_graph",
        "star_graph",
    ],
    "spectra": [
        "SQRT2", "HLIndex", "InertiaCount", "RBoundCertificate", "Spectrum", "Sqrt2Rational",
        "certify_R_le", "count_at_threshold", "hl_index", "median_positions", "spectrum",
    ],
    "structure": [
        "K23Embedding", "Partition", "SPReductionTrace", "find_k23", "is_k4_minor_free",
        "is_unfriendly", "replay_reduction",
    ],
    "enumeration": ["HARD_CAP", "GenSpec", "canonical_key", "enumerate_graphs"],
    "proofs": [
        "FAIL", "NOT_APPLICABLE", "PASS", "TraceStep", "WitnessTrace", "check_lemma_odd",
        "replay_trace", "trace_from_json_dict", "verify_theorem_k23", "verify_theorem_sp",
    ],
}


def test_all_is_the_export_list():
    assert hlspec.__all__ == [name for names in EXPORTS.values() for name in names]
    assert hlspec.__version__ == "0.1.0"


def test_every_name_resolves_to_its_submodules_object():
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"hlspec.{module}")
        for name in names:
            assert getattr(hlspec, name) is getattr(submodule, name), name


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from hlspec import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(hlspec.__all__)
    assert all(namespace[name] is getattr(hlspec, name) for name in hlspec.__all__)
    listed = dir(hlspec)
    assert listed == sorted(listed)
    assert set(hlspec.__all__) | {"__version__"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hlspec.no_such_name
    # a submodule's private helper is not a public name
    assert not hasattr(hlspec, "prime")
    with pytest.raises(ImportError):
        exec("from hlspec import prime", {})
