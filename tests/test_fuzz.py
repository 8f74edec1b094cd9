"""Hypothesis fuzzing of the inputs a user hands the program: a checkpoint,
a run config, a graph file, a dataset manifest, an event list, a synth
spec, window and bin settings, a stability campaign, the ``stability``
command's arguments and the settings objects of the Python API may fail only
with the package's documented errors."""

import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tgtopo.cli import main
from tgtopo.data import (DataError, Dataset, load_dataset, load_graph, save_dataset,
                         synth_generate)
from tgtopo.errors import InputError, NumericalError
from tgtopo.model import MODES, CheckpointError, ModelConfig, TemporalGraphClassifier
from tgtopo.pipeline import FEATURE_MODES, PipelineError, RunConfig, extract_descriptors, train
from tgtopo.stability import (PerturbationSpec, StabilityError, StabilityReport, campaign_csv,
                              run_campaign)
from tgtopo.temporal import from_events

CHECKPOINT = json.loads((Path(__file__).parent / "data" / "checkpoint_v1_small.json").read_text())

scalars = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True)
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
@example(json.dumps({**CHECKPOINT, "config": {**CHECKPOINT["config"], "hidden_dim": 10**6}}))
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


numbers = (st.integers() | st.integers(-3, 12) | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([float("nan"), float("inf"), -float("inf"), -1, 10**30, 1e300]))
node_ids = numbers | st.booleans() | st.integers(-3, 12).map(float) | st.floats(-3, 12)
events = st.lists(st.tuples(node_ids, node_ids, numbers), max_size=8)


@given(numbers, events)
@example(3, [(float("nan"), 1, 0.0)])
@example(3, [(float("inf"), 1, 0.0)])
@example(float("inf"), [(0, 1, 0.0)])
@example(2.5, [(0, 1, 0.0)])
@example(3, [(0.5, 1.7, 0.0), (True, 2, 1.0)])  # truncated to (0, 1) and (1, 2) once
@settings(max_examples=300, deadline=None)
def test_from_events_raises_only_input_errors(num_nodes, event_list):
    try:
        g = from_events(num_nodes, event_list)
    except InputError:
        return
    assert isinstance(g.num_nodes, int) and 0 < g.num_nodes == num_nodes
    assert all(0 <= u < g.num_nodes and 0 <= v < g.num_nodes and u != v
               for u, v, _ in g.events.tolist())
    # every node id given was an integer, and is kept as it was
    assert all(not isinstance(x, bool) and x == int(x) for u, v, _ in event_list for x in (u, v))
    assert sorted(map(tuple, g.events.tolist())) == sorted(
        (int(u), int(v), float(t)) for u, v, t in event_list)


def _graph_text(num_nodes, label, event_list):
    return "\n".join([f"n {num_nodes} label {label}",
                      *(" ".join(map(str, e)) for e in event_list)]).encode()


@given(st.binary(max_size=200) | st.builds(_graph_text, numbers, numbers, events))
@example(b"\xff\xfe n 3 label 0\n")  # not UTF-8
@example(b"n 3 label 0\n0 1 nan\n")
@example(b"n 3 label 0\n0 1 1e400\n")
@settings(max_examples=300, deadline=None)
def test_load_graph_raises_only_input_errors(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("graph") / "graph.txt"
    path.write_bytes(content)
    try:
        load_graph(path)
    except InputError:
        pass


manifest_lines = (st.sampled_from(["a.txt", "b.txt", "# classes 2", "# comment", ""])
                  | st.text(max_size=6).map("# classes ".__add__) | st.text(max_size=8))


@given(st.binary(max_size=120) | st.lists(manifest_lines, max_size=5).map(
    lambda ls: "\n".join(ls).encode("utf-8", "surrogatepass")))
@example(b"# classes x\na.txt\n")
@example(b"a.txt\n\xff\xfe\n")  # not UTF-8
@example(b"a\x00.txt\n")  # a file name the OS cannot open
@example(b"# classes 2\na.txt\nb.txt\n")
@settings(max_examples=200, deadline=None)
def test_load_dataset_gives_a_dataset_or_a_data_error(tmp_path_factory, manifest):
    # the CLI maps InputError and OSError to exit 2
    root = tmp_path_factory.mktemp("ds")
    (root / "manifest.txt").write_bytes(manifest)
    (root / "a.txt").write_text("n 3 label 0\n0 1 1.0\n")
    (root / "b.txt").write_text("n 3 label 1\n1 2 1.0\n")
    try:
        assert isinstance(load_dataset(root), Dataset)
    except (InputError, OSError):
        pass


# Integers stay small, so no example plants more than a few thousand events.
spec_values = st.integers(-1, 5) | json_values.filter(lambda v: type(v) is not int)
spec_dicts = st.fixed_dictionaries({}, optional={
    **dict.fromkeys(["num_graphs", "nodes", "timesteps", "classes", "anchor_stride", "extra"],
                    spec_values),
    "cycle_density": st.lists(spec_values, max_size=4) | spec_values,
})


@given(json_values | spec_dicts)
@example({"num_graphs": 2, "nodes": 4, "timesteps": 3, "classes": 2, "cycle_density": [0, 1]})
@example({"num_graphs": 2, "nodes": 4, "timesteps": 3, "classes": 2, "cycle_density": [0, 4]})
@example({"num_graphs": 1.0, "nodes": 4, "timesteps": 3, "classes": 2, "cycle_density": [0, 1]})
@settings(max_examples=200, deadline=None)
def test_synth_gives_a_dataset_or_an_invalid_spec_error(tmp_path_factory, spec):
    try:
        assert isinstance(synth_generate(spec, 0), Dataset)
    except DataError:
        pass
    # an exception that main does not map to an exit code would reach a traceback
    root = tmp_path_factory.mktemp("synth")
    (root / "spec.json").write_text(json.dumps(spec))
    code = main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "x"),
                 "--seed", "0"])
    assert code in (0, 2)


numbers_or_nan = st.floats(allow_nan=True, allow_infinity=True) | st.integers()


@given(st.sampled_from(["timestamp", "edge"]), numbers_or_nan, st.integers(28, 31),
       numbers_or_nan)
@example("edge", 2.0, 30, 1)
@example("edge", 2.5, 30, 1)
@example("timestamp", float("inf"), 30, 1)
@example("timestamp", 0.1, 30, -1)
@settings(max_examples=100, deadline=None)
def test_stability_campaign_gives_a_report_or_a_stability_error(mode, magnitude, trials,
                                                                seed):
    try:
        assert isinstance(run_campaign(PerturbationSpec(mode, magnitude, trials, seed)),
                          StabilityReport)
    except StabilityError:
        pass


HOSTILE = ["-1", "0", "nan", "inf", "-inf", "-0.0", "1e301", "2.5", "abc", ""]


@st.composite
def stability_flags(draw):
    """``tgtopo stability`` flags and values: valid ones mixed with hostile ones.  Valid
    trial counts stay at most 40 and edge counts at most 64, so no run takes long."""
    def mixed(valid, hostile=st.sampled_from(HOSTILE)):  # valid four times in five
        return draw(st.integers(0, 4).flatmap(lambda i: valid if i else hostile))

    flags = {"--trials": mixed(st.integers(30, 40).map(str),
                               st.integers(0, 29).map(str) | st.sampled_from(HOSTILE))}
    if draw(st.integers(0, 9)):  # --mode is required
        flags["--mode"] = mixed(st.sampled_from(["topo", "spectral"]),
                                st.sampled_from(["timestamp", "edge", ""]))
    if draw(st.booleans()):
        flags["--seed"] = mixed(st.integers(0, 2**70).map(str))
    if draw(st.booleans()):
        flags["--magnitude"] = mixed(st.integers(0, 64).map(str),
                                     st.floats(1e-300, 1e3).map(repr) | st.sampled_from(HOSTILE))
    if draw(st.booleans()):
        flags["--out"] = draw(st.sampled_from(["file", "directory", "missing directory", ""]))
    return flags


@given(stability_flags())
@example({"--mode": "spectral", "--trials": "30", "--seed": "1"})
@example({"--mode": "topo", "--trials": "30", "--out": "directory"})
@example({"--mode": "spectral", "--trials": "30", "--magnitude": "-0.0", "--out": ""})
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_stability_command_exits_with_a_documented_code(tmp_path_factory, flags):
    root = tmp_path_factory.mktemp("stability_argv")
    paths = {"file": root / "campaign.csv", "directory": root,
             "missing directory": root / "absent" / "campaign.csv", "": ""}
    flags = {**flags, "--out": paths[flags["--out"]]} if "--out" in flags else flags
    argv = ["stability"] + [str(x) for item in flags.items() for x in item]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if code in (2, 3):
        assert len([line for line in err.splitlines()
                    if line.startswith(("data error:", "numerical failure:"))]) == 1, err
    if code == 0:
        mode, magnitude = {"topo": ("timestamp", 0.1), "spectral": ("edge", 2)}[flags["--mode"]]
        magnitude = float(flags.get("--magnitude", magnitude))
        csv = campaign_csv([run_campaign(PerturbationSpec(
            mode, magnitude, int(flags["--trials"]), int(flags.get("--seed", 0))))])
        if flags.get("--out"):
            assert out == "" and flags["--out"].read_text() == csv
        else:
            assert out == csv


# two graphs whose events span [0, 8]
TINY = Dataset("tiny", (from_events(4, [(0, 1, 0.0), (1, 2, 3.0), (2, 3, 8.0)], label=0),
                        from_events(4, [(0, 2, 0.0), (1, 3, 5.5), (0, 3, 8.0)], label=1)), 2)
# Each draw keeps the window count far from temporal.WINDOW_LIMIT: a stride of at
# least 0.01 cuts at most 801 windows from the span of 8, one of at most 1e-9 (with
# delta at most 7) over 10**9, and delta of 8 or more cuts one.
deltas = (st.floats(1e-300, 7.0) | st.floats(8.0, 1e300)
          | st.sampled_from([0.0, -1.0, float("nan"), float("inf")]))
sigmas = (st.floats(0.01, 1e300) | st.floats(5e-324, 1e-9)
          | st.sampled_from([0.0, -1.0, float("nan"), float("inf")]))


@given(deltas, sigmas, st.integers(-2, 12))
@example(2.0, 1e-300, 4)  # about 10**300 windows: refused before any allocation
@example(2.0, 1e-12, 4)
@example(7.0, 5e-324, 4)
@example(2.0, 1.0, 0)
@settings(max_examples=150, deadline=None)
def test_extraction_gives_descriptors_or_an_input_error(delta, sigma, bins):
    try:
        features = extract_descriptors(TINY, RunConfig(delta=delta, sigma=sigma, dos_bins=bins))
    except InputError:
        return
    assert len(features) == 2
    assert all(gf.phi.shape[0] == gf.psi.shape[0] <= 801 and gf.psi.shape[1] == bins
               for gf in features)


# -- the settings objects of the Python API ------------------------------------------------

HOSTILE_SETTINGS = [True, False, "1", "", None, float("nan"), float("inf"), -float("inf"), -0.0,
                    1e301]


@contextlib.contextmanager
def _no_warnings():
    """A settings check that warns fails: a float32 eps once cast 1e300 to inf with a
    RuntimeWarning and passed only because the comparison still came out right."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def _setting(valid, scalar=None):
    """A field's valid values, also as numpy scalars made by ``scalar``, or a hostile value."""
    numpy_values = valid.map(scalar) if scalar else st.nothing()
    return valid | numpy_values | st.sampled_from(HOSTILE_SETTINGS)


def _ints(low, high):  # numpy integers in the least dtype that holds them: 127 as an int8
    return _setting(st.integers(low, high), lambda v: np.min_scalar_type(v).type(v))


def _reals(low, high):
    return _setting(st.floats(low, high), np.float64) | st.floats(low, high).map(np.float32)


# Valid sizes stay small and the stride at least 0.5, so an example that passes cuts at
# most 9 windows from each graph's span of 4 and trains at most 2 epochs on 4 graphs.
RUN_FIELDS = {
    "delta": _reals(2.0, 8.0), "sigma": _reals(0.5, 4.0), "dos_bins": _ints(1, 6),
    "sage_layers": _ints(0, 2), "hidden_dim": _ints(1, 8), "lr": _reals(1e-4, 0.1),
    "dropout": _reals(0.0, 0.9), "weight_decay": _reals(0.0, 0.01),
    "seed": _ints(0, 2**64 - 1), "folds": _ints(1, 3),
    "feature_mode": _setting(st.sampled_from(FEATURE_MODES)),
    "mode": _setting(st.sampled_from(MODES)),
    "count_edge_multiplicity": _setting(st.booleans(), np.bool_),
}
SMALL = synth_generate({"num_graphs": 4, "nodes": 8, "timesteps": 6, "classes": 2,
                        "cycle_density": [0, 3]}, 0)


@given(st.fixed_dictionaries({"epochs": _ints(1, 2)}, optional=RUN_FIELDS))
@example({"seed": np.int8(127), "epochs": 1})  # train's seed + 1 wrapped to -128
@example({"lr": 1e301, "epochs": 2})
@example({"weight_decay": 1e301, "epochs": 2})
@settings(max_examples=100, deadline=None)
def test_run_config_trains_or_raises_the_package_errors(fields):
    try:
        with _no_warnings():
            config = RunConfig(**fields)
    except PipelineError:
        return
    try:
        train(extract_descriptors(SMALL, config), SMALL.num_classes, config)
    except (InputError, NumericalError):
        pass


MODEL_FIELDS = {
    **{key: _ints(0, 4) for key in ("num_classes", "topo_dim", "dos_bins", "feature_dim",
                                    "hidden_dim", "tf_layers", "tf_heads", "tf_ffn_dim")},
    "sage_layers": _ints(-1, 2), "tf_model_dim": _ints(0, 8), "dropout": _reals(-0.5, 1.5),
    "mode": _setting(st.sampled_from(MODES)),
}


@given(st.fixed_dictionaries({}, optional=MODEL_FIELDS))
@settings(max_examples=100, deadline=None)
def test_model_config_builds_a_model_or_raises_value_error(fields):
    try:
        with _no_warnings():
            config = ModelConfig(**fields)
    except ValueError:
        return
    TemporalGraphClassifier(config)


@given(_setting(st.sampled_from(["timestamp", "edge"])),
       _reals(0.0, 4.0) | _ints(-1, 4), _ints(28, 40), _ints(-1, 2**64 - 1) | st.integers())
@example("timestamp", np.float32(0.1), 30, 0)  # 1e300 cast to float32 warned of overflow
@settings(max_examples=100, deadline=None)
def test_perturbation_spec_passes_or_raises_stability_error(mode, magnitude, trials, seed):
    try:
        with _no_warnings():
            PerturbationSpec(mode, magnitude, trials, seed)
    except StabilityError:
        pass


SYNTH_FIELDS = {
    **{key: _ints(0, 4) for key in ("num_graphs", "timesteps", "classes", "anchor_stride")},
    "nodes": _ints(2, 8),
    "cycle_density": st.lists(_ints(-1, 6), max_size=3) | _ints(0, 3),
}


@given(st.fixed_dictionaries({}, optional=SYNTH_FIELDS), _ints(-1, 2**64 - 1) | st.integers())
@settings(max_examples=100, deadline=None)
def test_synth_spec_gives_a_dataset_or_a_data_error(spec, seed):
    try:
        with _no_warnings():
            assert isinstance(synth_generate(spec, seed), Dataset)
    except DataError:
        pass


# -- a config file, through the CLI ---------------------------------------------------------

BIG = "9" * 5000  # over the digits int() parses since Python 3.11; a number before that
CONFIG_HOSTILE = ["", "nan", "inf", "-1", "2.5", "1e400", "yes", BIG, "٢"]  # ٢ is 2
# Valid values stay small: every example trains at most 2 epochs of at most 3 folds on 4
# graphs, at widths of at most 8.
CONFIG_VALID = {
    "delta": ["4", "6.0"], "sigma": ["1", "2.5"], "dos_bins": ["1", "4"],
    "sage_layers": ["0", "1"], "hidden_dim": ["1", "8"], "lr": ["0.01", "1e-3"],
    "dropout": ["0", "0.5"], "weight_decay": ["0", "1e-4"], "epochs": ["1", "2"],
    "seed": ["0", str(2**64)], "folds": ["2", "3"], "feature_mode": list(FEATURE_MODES),
    "mode": list(MODES), "count_edge_multiplicity": ["yes", "false"],
}
CAPPED = {"epochs", "folds", "hidden_dim", "sage_layers"}  # they draw no BIG


@st.composite
def config_files(draw):
    """``key = value`` lines: RunConfig's fields, and now and then an unknown key, with valid
    values and hostile ones; now and then a line has no ``=``.  The first two lines set a
    small epoch count and a fold count the 4 graphs allow, so that most files train."""
    def one_in(n, rare, common):
        return draw(st.integers(1, n).flatmap(lambda i: rare if i == n else common))

    lines = [f"epochs = {draw(st.sampled_from(['1', '2']))}",
             f"folds = {draw(st.sampled_from(['2', '3']))}"]
    for _ in range(draw(st.integers(0, 4))):
        key = one_in(10, st.sampled_from(["widgets", ""]), st.sampled_from(sorted(CONFIG_VALID)))
        value = one_in(4, st.sampled_from([v for v in CONFIG_HOSTILE
                                           if key not in CAPPED or v != BIG]),
                       st.sampled_from(CONFIG_VALID.get(key, ["1"])))
        lines.append(f"{key}{one_in(10, st.just(' '), st.just(' = '))}{value}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def small_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_data")
    save_dataset(SMALL, root / "ds")
    return root


@given(config_files())
@example(f"epochs = 1\nfolds = 2\nseed = {BIG}\n")
@example("epochs = 1\nfolds = 2\ndelta = 1e400\n")
@example("epochs = 1\nfolds = 2\nhidden_dim = ٢\n")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_config_file_exits_with_a_documented_code(small_dir, config):
    (small_dir / "run.cfg").write_text(config, encoding="utf-8")
    data, cfg = str(small_dir / "ds"), str(small_dir / "run.cfg")
    for argv in (["cv", "--data", data, "--config", cfg],
                 ["train", "--data", data, "--config", cfg, "--test-fraction", "0.5",
                  "--out", str(small_dir / "model.json")],
                 ["sweep", "--data", data, "--deltas", "4", "--sigmas", "2", "--config", cfg]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3) and "Traceback" not in err, (argv, err)
        if code in (2, 3):
            assert len([line for line in err.splitlines()
                        if line.startswith(("data error:", "numerical failure:"))]) == 1, err
