"""Every function and method that perfbench's traced run wraps exists, and
extraction, training and the stability campaigns still call the ones that
mark a graph's extraction, a graph-step, a fusion span and a trial.

The traced benchmark replaces the package's functions by name; a renamed or
deleted one would fail only the benchmark's self-test.  This runs the same
wrapping and unwraps it again."""

import importlib.util
import sys
from pathlib import Path

import pytest

import tgtopo.model
import tgtopo.optim
import tgtopo.stability
import tgtopo.temporal
from tgtopo.data import load_dataset, save_dataset, synth_generate
from tgtopo.pipeline import RunConfig, extract_descriptors, kfold_cv, train
from tgtopo.stability import PerturbationSpec, run_campaign

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(monkeypatch):
    spans = _load("spans")
    monkeypatch.setitem(sys.modules, "spans", spans)  # bench imports it by name
    monkeypatch.setattr(sys, "path", list(sys.path))  # Program() prepends src/
    bench = _load("bench")
    forward = tgtopo.model.TransformerEncoder.forward
    with spans.Tracer() as tracer:
        bench.wrap_layers(bench.Program(), tracer)
        assert tgtopo.model.TransformerEncoder.forward.__wrapped__ is forward
    assert tgtopo.model.TransformerEncoder.forward is forward


def test_each_graph_extraction_starts_with_one_window_sequence_call():
    # perfbench times a graph's extraction from its window_sequence call, so a
    # pass that bypasses it records no extraction units
    spans = _load("spans")
    dataset = synth_generate(dict(num_graphs=4, nodes=8, timesteps=8, classes=2,
                                  cycle_density=[0, 2]), 1)
    log = []
    with spans.Tracer() as tracer:
        tracer.wrap(tgtopo.temporal, "window_sequence", "temporal.window_sequence",
                    lambda r, a, k, s: log.append(("windows", a[0], r)))
        tracer.wrap(tgtopo.temporal, "stack_windows", "temporal.stack_windows",
                    lambda r, a, k, s: log.append(("stack", a[0])))
        extract_descriptors(dataset, RunConfig(delta=4.0, sigma=2.0))
    assert tracer.calls["temporal.window_sequence"] == len(dataset.graphs)
    assert [entry[0] for entry in log] == ["windows", "stack"] * len(dataset.graphs)
    for (_, graph, windows), (_, stacked), g in zip(log[::2], log[1::2], dataset.graphs):
        assert graph is g and stacked is windows


def test_bench_output_check_accepts_extracted_descriptors(tmp_path, monkeypatch):
    # perfbench's oracle recomputes each graph's windows from its events; an
    # event store it cannot read would fail only the benchmark's output check
    monkeypatch.setitem(sys.modules, "spans", _load("spans"))  # bench imports it by name
    bench = _load("bench")
    synth = synth_generate(dict(num_graphs=6, nodes=8, timesteps=12, classes=2,
                                cycle_density=[0, 2]), 1)
    save_dataset(synth, tmp_path / "ds")
    cfg = RunConfig(delta=4.0, sigma=2.0)
    for dataset in (synth, load_dataset(tmp_path / "ds")):
        for graph, gf in zip(dataset.graphs, extract_descriptors(dataset, cfg), strict=True):
            assert bench.check_graph(graph, gf, cfg.delta, cfg.sigma, cfg.dos_bins)[0]


@pytest.mark.parametrize("spec, trial", [
    (PerturbationSpec("timestamp", 0.1, 31, 1), "topo_stability_trial"),
    (PerturbationSpec("edge", 2, 30, 2), "spectral_stability_trial"),
])
def test_each_campaign_trial_is_one_trial_call(spec, trial, monkeypatch):
    # perfbench times a trial from its call's start, so a campaign that batched
    # its trials would record none
    calls = []
    original = getattr(tgtopo.stability, trial)
    monkeypatch.setattr(tgtopo.stability, trial,
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    assert len(run_campaign(spec).trials) == len(calls) == spec.trials


def test_each_timestamp_trial_perturbs_once_by_module_attribute(monkeypatch):
    # perfbench's stability.perturb_timestamps span wraps the module attribute, so a
    # trial that perturbed through another name would leave that span at 0
    spec, calls = PerturbationSpec("timestamp", 0.1, 31, 1), []
    original = tgtopo.stability.perturb_timestamps
    monkeypatch.setattr(tgtopo.stability, "perturb_timestamps",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    assert len(run_campaign(spec).trials) == len(calls) == spec.trials


def test_one_adam_step_per_graph_step_and_one_fusion_call_per_forward(monkeypatch):
    # perfbench counts train_steps_per_s from Adam.step stamps and times the
    # fusion span around model.fusion_attention: a step that took two Adam
    # steps, or a head that fused without that call, would change what they
    # mean.  Its wrap_layers names a forward's span from its train argument (a
    # keyword, or the 7th positional argument with self), so a forward whose
    # parameters moved would shift time between the train and eval spans
    spans = _load("spans")
    monkeypatch.setitem(sys.modules, "spans", spans)  # bench imports it by name
    monkeypatch.setattr(sys, "path", list(sys.path))  # Program() prepends src/
    bench = _load("bench")
    dataset = synth_generate(dict(num_graphs=6, nodes=8, timesteps=8, classes=2,
                                  cycle_density=[0, 2]), 1)
    cfg = RunConfig(delta=4.0, sigma=2.0, epochs=2, folds=3)
    feats = extract_descriptors(dataset, cfg)
    for run, steps, evaluated in ((lambda: train(feats, 2, cfg), len(feats) * cfg.epochs, 0),
                                  (lambda: kfold_cv(dataset, cfg, features=feats),
                                   (cfg.folds - 1) * len(feats) * cfg.epochs, len(feats))):
        with spans.Tracer() as tracer:
            bench.wrap_layers(bench.Program(), tracer)
            run()
        assert tracer.calls["optim.adam_step"] == steps
        assert tracer.calls["model.forward.train"] == steps
        assert tracer.calls["model.forward.eval"] == evaluated
        assert tracer.calls["model.forward.fusion"] == steps + evaluated
