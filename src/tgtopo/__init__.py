"""Temporal graph classification from sliding-window topological and
spectral descriptors, with an empirical stability harness."""

from .temporal import (
    TemporalGraph,
    WindowGraph,
    StaticGraph,
    WindowSpec,
    from_events,
    window_count,
    window_sequence,
    temporal_degree,
    static_projection,
)
from .topology import (
    CliqueComplex2,
    PersistenceDiagram,
    BettiVector,
    clique_complex,
    betti0,
    betti1,
    sublevel_persistence0,
    betti_curve,
)
from .spectral import (
    SymMatrix,
    DosHistogram,
    normalized_laplacian,
    eigenvalues_sym,
    dos_histogram,
    spectral_descriptor,
)
from .model import ModelConfig, TemporalGraphClassifier, FusionOutput
from .data import Dataset, load_dataset, save_dataset, synth_generate
from .pipeline import RunConfig, extract_descriptors, train, kfold_cv, evaluate

__version__ = "0.1.0"
