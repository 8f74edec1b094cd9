"""Hypothesis fuzzing of the files a user hands the program: a checkpoint
and a run config may fail only with the package's documented errors."""

import json
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from tgtopo.model import CheckpointError, TemporalGraphClassifier
from tgtopo.pipeline import PipelineError, RunConfig

CHECKPOINT = json.loads((Path(__file__).parent / "data" / "checkpoint_v1_small.json").read_text())

# small numbers only: a checkpoint's config sizes the model before its
# arrays are read, so a large width allocates that much memory
scalars = (st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=True)
           | st.text(max_size=8))
json_values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.text(max_size=8), inner, max_size=4),
                           max_leaves=12)


@st.composite
def mutated_checkpoints(draw):
    """The small checkpoint with a few config entries, parameter entries or
    top-level keys replaced, removed or added."""
    payload = json.loads(json.dumps(CHECKPOINT))
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(["config", "params", "entry", "top"]))
        if where == "entry":
            params = payload.get("params")
            names = sorted(params) if isinstance(params, dict) else []
            target = params.get(draw(st.sampled_from(names))) if names else None
            if not isinstance(target, dict):
                continue
            key = draw(st.sampled_from(["shape", "data"]))
        else:
            target = payload if where == "top" else payload.get(where)
            if not isinstance(target, dict):
                continue
            key = draw(st.sampled_from(sorted(target) + ["extra"]))
        if draw(st.booleans()):
            target[key] = draw(json_values)
        else:
            target.pop(key, None)
    return json.dumps(payload, allow_nan=True)


def _outcome(call, path):
    try:
        call(path)
    except (CheckpointError, PipelineError, OSError):
        pass


@given(st.binary(max_size=200) | json_values.map(json.dumps) | mutated_checkpoints())
@example(b"[" * 100_000)  # nesting deeper than the JSON decoder recurses
@example(b"\xff\xfe{}")  # not UTF-8
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_checkpoint_load_raises_only_documented_errors(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    _outcome(TemporalGraphClassifier.load, path)


keys = st.sampled_from(sorted(RunConfig().__dict__)) | st.text(max_size=6)
lines = st.tuples(keys, st.text(max_size=10), st.sampled_from([" = ", "=", " ", "#"]))


@given(st.binary(max_size=120) | st.lists(lines, max_size=6).map(
    lambda ls: "\n".join(k + sep + v for k, v, sep in ls).encode("utf-8", "surrogatepass")))
@example(b"lr = 0.1\xff\n")
@settings(max_examples=150, deadline=None)
def test_run_config_raises_only_documented_errors(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_bytes(content)
    _outcome(RunConfig.from_file, path)
