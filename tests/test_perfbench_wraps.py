"""Every function and method that perfbench's traced run wraps exists.

The traced benchmark replaces the package's functions by name; a renamed or
deleted one would fail only the benchmark's self-test.  This runs the same
wrapping and unwraps it again."""

import importlib.util
import sys
from pathlib import Path

import tgtopo.model

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
