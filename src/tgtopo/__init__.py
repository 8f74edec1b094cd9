"""Temporal graph classification from sliding-window topological and
spectral descriptors, with an empirical stability harness.

An exported name is imported from its module on first use (PEP 562), so
``import tgtopo`` loads none of its modules and ``load_dataset`` loads only
``data``, ``temporal`` and ``errors``."""

from importlib import import_module as _import_module

_MODULES = {
    "temporal": ("TemporalGraph", "WindowGraph", "StaticGraph", "WindowSpec", "from_events",
                 "window_count", "window_sequence", "temporal_degree", "static_projection"),
    "topology": ("CliqueComplex2", "PersistenceDiagram", "BettiVector", "clique_complex",
                 "betti0", "betti1", "sublevel_persistence0", "betti_curve"),
    "spectral": ("SymMatrix", "DosHistogram", "normalized_laplacian", "eigenvalues_sym",
                 "dos_histogram", "spectral_descriptor"),
    "model": ("ModelConfig", "TemporalGraphClassifier", "FusionOutput"),
    "data": ("Dataset", "load_dataset", "save_dataset", "synth_generate"),
    "pipeline": ("RunConfig", "extract_descriptors", "train", "kfold_cv", "evaluate"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
