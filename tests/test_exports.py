"""The names ``tgtopo`` exports: a change to the public API edits this list on purpose.

Each name is imported from its module on first use, so ``vars(tgtopo)`` holds no export
until then; ``__all__`` and ``dir`` list them all from the start."""

import importlib
import os
import subprocess
import sys
import types

import pytest

import tgtopo
from tgtopo.data import save_dataset, synth_generate

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
# what loading a dataset must not load: the model stack, extraction and exact windows
COLD = ["tgtopo.model", "tgtopo.pipeline", "tgtopo.autodiff", "tgtopo.optim", "tgtopo.topology",
        "tgtopo.spectral", "tgtopo.stability", "fractions"]


def test_package_exports_exactly_the_listed_names():
    assert len(set(EXPORTS)) == len(EXPORTS)
    assert sorted(tgtopo.__all__) == sorted(EXPORTS)
    public = [n for n in dir(tgtopo)
              if not n.startswith("_") and not isinstance(getattr(tgtopo, n), types.ModuleType)]
    assert sorted(public) == sorted(EXPORTS)


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_the_object_its_module_defines(name):
    obj = getattr(tgtopo, name)
    assert obj.__module__.startswith("tgtopo.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert vars(tgtopo)[name] is obj  # stored on first use


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        tgtopo.nope
    assert getattr(tgtopo, "betti0_curve", None) is None  # defined in topology, not exported


def test_loading_a_dataset_loads_no_model_module(tmp_path):
    spec = dict(num_graphs=4, nodes=6, timesteps=6, classes=2, cycle_density=[0, 1])
    save_dataset(synth_generate(spec, 0), tmp_path / "ds")
    code = ("import sys, tgtopo\nfresh = [m for m in sys.modules if m.startswith('tgtopo.')]\n"
            "print(len(tgtopo.load_dataset(sys.argv[1]).graphs), *fresh)\n"
            f"print(*[m for m in {COLD!r} if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tgtopo.__file__)))
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "ds")], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert run.stdout.splitlines() == ["4", ""]
