"""The names ``tgtopo`` exports: a change to the public API edits this list on purpose."""

import types

import tgtopo

EXPORTS = [
    # temporal
    "TemporalGraph", "WindowGraph", "StaticGraph", "WindowSpec", "from_events", "window_count",
    "window_sequence", "temporal_degree", "static_projection",
    # topology
    "CliqueComplex2", "PersistenceDiagram", "BettiVector", "clique_complex", "betti0", "betti1",
    "sublevel_persistence0", "betti_curve",
    # spectral
    "SymMatrix", "DosHistogram", "normalized_laplacian", "eigenvalues_sym", "dos_histogram",
    "spectral_descriptor",
    # model, data, pipeline
    "ModelConfig", "TemporalGraphClassifier", "FusionOutput", "Dataset", "load_dataset",
    "save_dataset", "synth_generate", "RunConfig", "extract_descriptors", "train", "kfold_cv",
    "evaluate",
]


def test_package_exports_exactly_the_listed_names():
    names = [n for n, v in vars(tgtopo).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert sorted(names) == sorted(EXPORTS)
    assert len(set(EXPORTS)) == len(EXPORTS)
