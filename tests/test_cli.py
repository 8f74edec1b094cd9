import importlib
import json
import os
import pkgutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import tgtopo.cli
import tgtopo.pipeline
import tgtopo.spectral
import tgtopo.stability
import tgtopo.temporal
import tgtopo.topology
from tgtopo.cli import main
from tgtopo.errors import InputError, NumericalError
from tgtopo.data import DataError, load_dataset, synth_generate, save_dataset
from tgtopo.pipeline import PipelineError
from tgtopo.spectral import SpectralError
from tgtopo.stability import StabilityError
from tgtopo.temporal import TemporalGraphError
from tgtopo.topology import TopologyError
from tgtopo.model import CheckpointError, ModelConfig, TemporalGraphClassifier


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    spec = dict(num_graphs=10, nodes=10, timesteps=12, classes=2, cycle_density=[0, 3])
    save_dataset(synth_generate(spec, 2), root / "ds")
    return root / "ds"


@pytest.fixture(scope="module")
def long_dataset_dir(tmp_path_factory):
    # long-stream-shaped: cut with LONG_WINDOWS, each graph's stack is over the overlap gate
    root = tmp_path_factory.mktemp("cli_long_data")
    spec = dict(num_graphs=2, nodes=30, timesteps=96, anchor_stride=1, classes=2,
                cycle_density=[0, 3])
    save_dataset(synth_generate(spec, 1), root / "ds")
    return root / "ds"


LONG_WINDOWS = ["--delta", "4", "--sigma", "1"]


def _graph_args(root, dataset_dir, events):
    ds = root / "ds"
    ds.mkdir()
    (ds / "manifest.txt").write_text("g.txt\n")
    (ds / "g.txt").write_text("n 3 label 0\n" + events)
    return ["extract", "--data", str(ds), "--out", str(root / "o")]


def _node_count_args(root, dataset_dir, n):
    ds = root / "ds"
    ds.mkdir()
    (ds / "manifest.txt").write_text("g.txt\nh.txt\n")
    (ds / "g.txt").write_text(f"n {n} label 0\n0 1 1.0\n")
    (ds / "h.txt").write_text("n 3 label 1\n0 1 1.0\n")
    return ["extract", "--data", str(ds), "--out", str(root / "o")]


def _cv_args(root, dataset_dir, config):
    cfg = root / "run.cfg"
    cfg.write_text("epochs = 1\n" + config)
    return ["cv", "--data", str(dataset_dir), "--config", str(cfg)]


def _missing_file_args(root, dataset_dir, command):
    if command == "cv":
        return ["cv", "--data", str(dataset_dir), "--config", str(root / "nonexist.cfg")]
    return ["synth", "--spec", str(root / "nope.json"), "--out", str(root / "x"),
            "--seed", "0"]


def _extract_args(root, dataset_dir, bins):
    return ["extract", "--data", str(dataset_dir), "--out", str(root / "o"),
            "--bins", bins]


def _synth_args(root, dataset_dir, spec):
    (root / "spec.json").write_text(spec)
    return ["synth", "--spec", str(root / "spec.json"), "--out", str(root / "x"),
            "--seed", "0"]


def _synth_seed_args(root, dataset_dir, seed):
    spec = dict(num_graphs=2, nodes=6, timesteps=6, classes=2, cycle_density=[0, 1])
    return _synth_args(root, dataset_dir, json.dumps(spec))[:-1] + [seed]


def _manifest_args(root, dataset_dir, manifest):
    ds = root / "ds"
    ds.mkdir()
    (ds / "manifest.txt").write_bytes(manifest)
    (ds / "g.txt").write_text("n 3 label 0\n0 1 1.0\n")
    return ["cv", "--data", str(ds)]


def _stability_args(root, dataset_dir, flags):
    return ["stability", "--seed", "1", *flags.split()]


def _sweep_args(root, dataset_dir, deltas):
    return ["sweep", "--data", str(dataset_dir), "--deltas", deltas, "--sigmas", "2.0"]


def _tiny_stride_args(root, dataset_dir, command):
    # about 10**301 windows per graph: refused before anything is allocated
    if command == "extract":
        return ["extract", "--data", str(dataset_dir), "--out", str(root / "o"),
                "--delta", "2", "--sigma", "1e-300"]
    if command == "sweep":
        return ["sweep", "--data", str(dataset_dir), "--deltas", "2", "--sigmas", "1e-300"]
    return _cv_args(root, dataset_dir, "delta = 2.0\nsigma = 1e-300\n")


def _train_args(root, dataset_dir, fraction):
    return ["train", "--data", str(dataset_dir), "--out", str(root / "m.json"),
            "--test-fraction", fraction]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main([]) == 1
        assert main(["frobnicate"]) == 1

    def test_stability_takes_no_data_flag(self, tmp_path, capsys):
        # the campaigns draw their own graphs; a dataset flag was never read
        assert main(["stability", "--mode", "topo", "--data", str(tmp_path / "none")]) == 1

    def test_data_error(self, tmp_path, capsys):
        code = main(["extract", "--data", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_feature_matrices_over_entry_limit(self, dataset_dir, tmp_path, monkeypatch, capsys):
        # 11 nodes ask for an 11 x 11 aggregation matrix, over a limit made small here
        monkeypatch.setattr(tgtopo.temporal, "ENTRY_LIMIT", 100)
        assert main(_node_count_args(tmp_path, dataset_dir, 11)) == 2
        assert "100 matrix entries" in capsys.readouterr().err

    def test_dos_masses_over_entry_limit(self, dataset_dir, tmp_path, monkeypatch, capsys):
        # one window of 101 bins, over a limit made small here; the real case was
        # --bins 100000000, which the kernel killed for its memory
        monkeypatch.setattr(tgtopo.temporal, "ENTRY_LIMIT", 100)
        assert main(_node_count_args(tmp_path, dataset_dir, 3) + ["--bins", "101"]) == 2
        assert "1 windows of 101 DoS bins exceed 100" in capsys.readouterr().err

    def test_checkpoint_with_fewer_classes_than_the_data_is_data_error(self, tmp_path, capsys):
        # a 2-class checkpoint once scored a 3-class dataset with exit 0
        spec = dict(num_graphs=10, nodes=8, timesteps=8, cycle_density=[0, 2, 4])
        for classes in (2, 3):
            save_dataset(synth_generate({**spec, "classes": classes,
                                         "cycle_density": spec["cycle_density"][:classes]}, 1),
                         tmp_path / f"ds{classes}")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\n")
        ckpt = tmp_path / "model.json"
        assert main(["train", "--data", str(tmp_path / "ds2"), "--config", str(cfg),
                     "--out", str(ckpt)]) == 0
        code = main(["eval", "--model", str(ckpt), "--data", str(tmp_path / "ds3"),
                     "--report", str(tmp_path / "r.csv"), "--config", str(cfg)])
        assert code == 2
        assert "has label 2, outside [0, 2)" in capsys.readouterr().err

    def test_success(self, dataset_dir, tmp_path, capsys):
        code = main(["extract", "--data", str(dataset_dir), "--out", str(tmp_path / "o")])
        assert code == 0

    @pytest.mark.parametrize("build, text", [
        pytest.param(_graph_args, "0 0 1.0\n", id="self_loop"),
        pytest.param(_graph_args, "0 7 1.0\n", id="node_out_of_range"),
        pytest.param(_graph_args, "0 1 1.0\n0 1 nan\n", id="trailing_nan_timestamp"),
        pytest.param(_graph_args, "0 1 inf\n1 2 1.0\n", id="inf_timestamp"),
        pytest.param(_graph_args, "", id="header_only_graph_file"),
        pytest.param(_graph_args, "\n \n", id="blank_event_lines"),
        pytest.param(_node_count_args, 2**54, id="node_count_above_two_to_53"),
        # the (n, n) aggregation matrix is over temporal.ENTRY_LIMIT: refused unallocated
        pytest.param(_node_count_args, 2**53, id="node_count_out_of_memory"),
        pytest.param(_cv_args, "frobs = 1\n", id="unknown_config_key"),
        pytest.param(_cv_args, "epochs = abc\n", id="uncastable_config_value"),
        pytest.param(_cv_args, "delta = 4.0\nsigma = 4.0\n", id="sigma_not_below_delta"),
        pytest.param(_cv_args, "folds = 11\n", id="fewer_graphs_than_folds"),
        pytest.param(_cv_args, "mode = foo\n", id="unknown_mode"),
        pytest.param(_cv_args, "feature_mode = foo\n", id="unknown_feature_mode"),
        pytest.param(_cv_args, "feature_mode = provided\n", id="provided_feature_mode"),
        pytest.param(_cv_args, "lr = nan\n", id="nan_lr"),
        pytest.param(_cv_args, "dos_bins = 0\n", id="zero_dos_bins"),
        pytest.param(_cv_args, "epochs = 0\n", id="zero_epochs"),
        pytest.param(_cv_args, "hidden_dim = 0\n", id="zero_hidden_dim"),
        pytest.param(_cv_args, "dropout = 1.0\n", id="dropout_not_below_one"),
        pytest.param(_cv_args, "count_edge_multiplicity = maybe\n", id="non_boolean_flag"),
        pytest.param(_manifest_args, b"# classes x\ng.txt\n", id="manifest_classes_not_integer"),
        pytest.param(_manifest_args, b"g.txt\n\xff\xfe\n", id="manifest_not_utf8"),
        pytest.param(_extract_args, "0", id="zero_bins_flag"),
        pytest.param(_missing_file_args, "cv", id="missing_config_file"),
        pytest.param(_missing_file_args, "synth", id="missing_spec_file"),
        pytest.param(_synth_args, "{not json", id="spec_not_json"),
        pytest.param(_synth_args, "[1, 2]", id="spec_not_object"),
        pytest.param(_synth_args, '{"num_graphs": 4, "nodes": "abc", "timesteps": 8, '
                     '"classes": 2, "cycle_density": [0, 2]}', id="spec_value_not_integer"),
        pytest.param(_synth_seed_args, "-1", id="negative_synth_seed"),
        pytest.param(_stability_args, "--mode topo --trials 5", id="too_few_trials"),
        pytest.param(_stability_args, "--mode topo --trials 30 --magnitude -1",
                     id="negative_timestamp_noise"),
        pytest.param(_stability_args, "--mode spectral --trials 30 --magnitude 100000",
                     id="infeasible_edge_count"),
        pytest.param(_stability_args, "--mode spectral --trials 30 --magnitude nan",
                     id="nan_edge_count"),
        pytest.param(_stability_args, "--mode spectral --trials 30 --magnitude inf",
                     id="inf_edge_count"),
        pytest.param(_stability_args, "--mode spectral --trials 30 --magnitude 2.5",
                     id="non_integral_edge_count"),
        pytest.param(_stability_args, "--mode topo --trials 30 --magnitude inf",
                     id="inf_timestamp_noise"),
        pytest.param(_stability_args, "--mode topo --trials 30 --seed -1", id="negative_seed"),
        pytest.param(_sweep_args, "a", id="sweep_value_not_float"),
        pytest.param(_tiny_stride_args, "extract", id="window_count_above_cap_extract"),
        pytest.param(_tiny_stride_args, "sweep", id="window_count_above_cap_sweep"),
        pytest.param(_tiny_stride_args, "cv", id="window_count_above_cap_cv"),
        pytest.param(_train_args, "0", id="zero_test_fraction"),
        pytest.param(_train_args, "nan", id="nan_test_fraction"),
        pytest.param(_train_args, "5e-324", id="test_fraction_with_infinite_fold_count"),
    ])
    def test_malformed_input_is_data_error(self, build, text, dataset_dir, tmp_path,
                                           capsys):
        assert main(build(tmp_path, dataset_dir, text)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fraction, folds", [("5e-324", "inf"), ("1e-300", "1e+300"),
                                                 ("0.05", "20"), ("0.095", "11")])
    def test_more_folds_than_graphs_names_the_fraction(self, fraction, folds, dataset_dir,
                                                        tmp_path, capsys):
        # the 10-graph dataset takes at most 10 folds, and 1/0.095 = 10.53 rounds
        # to 11; the message names the fraction and the count in 3 digits
        assert main(_train_args(tmp_path, dataset_dir, fraction)) == 2
        assert capsys.readouterr().err == (f"data error: --test-fraction {float(fraction)!r} needs "
                                           f"{folds} folds, more than the 10 graphs\n")

    @pytest.mark.parametrize("header", ["# classes 1\n", ""])
    def test_one_class_data_is_data_error(self, header, tmp_path, capsys):
        # two graphs of class 0 once trained to accuracy 1.0 with exit 0
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "manifest.txt").write_text(header + "a.txt\nb.txt\n")
        for name in ("a.txt", "b.txt"):
            (ds / name).write_text("n 3 label 0\n0 1 1.0\n1 2 2.0\n")
        (tmp_path / "run.cfg").write_text("epochs = 1\nfolds = 2\n")
        assert main(["cv", "--data", str(ds), "--config", str(tmp_path / "run.cfg")]) == 2
        assert capsys.readouterr().err.startswith("data error: ")

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda p: {"format": "other"}, id="unknown_format"),
        pytest.param(lambda p: [p], id="not_an_object"),
        pytest.param(lambda p: p["params"]["cls.b"].update(shape=[1, 2]) or p,
                     id="wrong_shape"),
        pytest.param(lambda p: p["params"].update(bogus={"shape": [1], "data": [0.0]})
                     or p, id="unknown_parameter"),
        pytest.param(lambda p: p["config"].update(frobs=1) or p, id="unknown_config_key"),
        pytest.param(lambda p: p["params"].pop("cls.w") and p, id="missing_parameter"),
        pytest.param(lambda p: p["params"]["cls.b"].update(data=[float("nan"), 0.0]) or p,
                     id="nan_parameter"),
        pytest.param(lambda p: p["params"]["cls.w"]["data"].__setitem__(0, float("inf")) or p,
                     id="infinite_parameter"),
    ])
    def test_malformed_checkpoint_is_data_error(self, mutate, dataset_dir, tmp_path,
                                                capsys):
        path = tmp_path / "model.json"
        # the dataset's feature width, so that only the mutation can fail eval
        width = len({t for g in load_dataset(dataset_dir).graphs for _, _, t in g.events})
        TemporalGraphClassifier(ModelConfig(feature_dim=width)).save(path)
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        with pytest.raises(CheckpointError):
            TemporalGraphClassifier.load(path)
        code = main(["eval", "--model", str(path), "--data", str(dataset_dir),
                     "--report", str(tmp_path / "r.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [
        ("tf_layers", 0), ("tf_heads", 0), ("tf_model_dim", 0), ("tf_ffn_dim", 0),
        ("hidden_dim", 0), ("sage_layers", -1), ("tf_layers", 1.5), ("tf_heads", True),
    ])
    def test_checkpoint_config_with_a_bad_width_is_data_error(self, key, value, dataset_dir,
                                                               tmp_path, capsys):
        # a checkpoint of zero encoder layers, with no layer arrays, once loaded,
        # and eval ended in a ZeroDivisionError traceback with exit 1
        path = tmp_path / "model.json"
        width = len({t for g in load_dataset(dataset_dir).graphs for _, _, t in g.events})
        TemporalGraphClassifier(ModelConfig(feature_dim=width, tf_layers=1)).save(path)
        payload = json.loads(path.read_text())
        payload["config"][key] = value
        if key == "tf_layers":  # the arrays of a model with no encoder layer
            payload["params"] = {k: v for k, v in payload["params"].items() if "_tf.0." not in k}
        path.write_text(json.dumps(payload))
        code = main(["eval", "--model", str(path), "--data", str(dataset_dir),
                     "--report", str(tmp_path / "r.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert f"{key} must be an integer" in err

    @pytest.mark.parametrize("extra_timestamps, config, width", [
        pytest.param(3, "", "feature_dim", id="timestamp_count"),
        pytest.param(0, "dos_bins = 6\n", "dos_bins", id="dos_bins"),
    ])
    def test_checkpoint_width_mismatch_is_data_error(self, extra_timestamps, config, width,
                                                     dataset_dir, tmp_path, capsys):
        path = tmp_path / "model.json"
        count = len({t for g in load_dataset(dataset_dir).graphs for _, _, t in g.events})
        TemporalGraphClassifier(ModelConfig(feature_dim=count + extra_timestamps)).save(path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code = main(["eval", "--model", str(path), "--data", str(dataset_dir),
                     "--report", str(tmp_path / "r.csv"), "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert width in err

    @pytest.mark.parametrize("data, window, on_worker", [
        ("dataset_dir", [], False),
        ("long_dataset_dir", LONG_WINDOWS, True),  # raised on the worker, re-raised on join
    ])
    def test_eigensolver_failure_is_numerical_error(self, data, window, on_worker, request,
                                                    tmp_path, monkeypatch, capsys):
        where = []

        def fail(m):
            where.append(threading.current_thread() is not threading.main_thread())
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(tgtopo.spectral, "eigenvalues_sym", fail)
        code = main(["extract", "--data", str(request.getfixturevalue(data)),
                     "--out", str(tmp_path / "o"), *window])
        assert code == 3 and where == [on_worker]
        assert "numerical failure" in capsys.readouterr().err

    def test_spectral_refusal_on_the_worker_is_data_error(self, long_dataset_dir, tmp_path,
                                                          monkeypatch, capsys):
        where = []

        def fail(*args):
            where.append(threading.current_thread() is not threading.main_thread())
            raise SpectralError("window has a node without edges")

        monkeypatch.setattr(tgtopo.spectral, "_laplacians", fail)
        code = main(["extract", "--data", str(long_dataset_dir), "--out", str(tmp_path / "o"),
                     *LONG_WINDOWS])
        assert code == 2 and where == [True]
        assert capsys.readouterr().err == "data error: window has a node without edges\n"


class TestSynth:
    def test_generates_dataset(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            dict(num_graphs=6, nodes=8, timesteps=8, classes=2, cycle_density=[0, 2])
        ))
        out = tmp_path / "ds"
        code = main(["synth", "--spec", str(spec_path), "--out", str(out), "--seed", "3"])
        assert code == 0
        ds = load_dataset(out)
        assert len(ds) == 6 and ds.num_classes == 2

    def test_bad_spec_is_data_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(num_graphs=6)))
        code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x"),
                     "--seed", "0"])
        assert code == 2


class TestExtract:
    def test_writes_cache(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "cache"
        assert main(["extract", "--data", str(dataset_dir), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["dos.csv", "topo.csv"]


class TestTrainEvalCv:
    def test_train_then_eval(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\nmode = topo-only\n")
        ckpt = tmp_path / "model.json"
        assert main(["train", "--data", str(dataset_dir), "--config", str(cfg),
                     "--out", str(ckpt)]) == 0
        assert ckpt.exists()
        report = tmp_path / "attn.csv"
        emb = tmp_path / "emb.csv"
        assert main(["eval", "--model", str(ckpt), "--data", str(dataset_dir),
                     "--report", str(report), "--embeddings", str(emb),
                     "--config", str(cfg)]) == 0
        assert report.read_text().splitlines()[0] == "dataset,structural,topo,dos"
        assert emb.read_text().startswith("graph_id,label,")

    def test_csv_on_stdout_is_the_whole_of_stdout(self, dataset_dir, tmp_path, capsys):
        # eval and cv print their CSV to stdout when given no path; the summary line goes
        # to stderr, so a redirected stdout is exactly the CSV
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nmode = dos-only\nfolds = 2\n")
        config = tgtopo.pipeline.RunConfig.from_file(str(cfg))
        dataset = load_dataset(str(dataset_dir))
        assert main(["cv", "--data", str(dataset_dir), "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        metrics, report = tgtopo.pipeline.kfold_cv(dataset, config)
        assert out == tgtopo.pipeline.metrics_csv(metrics, config)
        assert err == (f"accuracy {metrics.accuracy_mean:.4f} +/- {metrics.accuracy_std:.4f}; "
                       f"view weights {report.structural:.3f}/{report.topological:.3f}/"
                       f"{report.spectral:.3f}\n")

        ckpt = tmp_path / "model.json"
        assert main(["train", "--data", str(dataset_dir), "--config", str(cfg),
                     "--out", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(ckpt), "--data", str(dataset_dir),
                     "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        features = tgtopo.pipeline.extract_descriptors(dataset, config)
        metrics, report, _ = tgtopo.pipeline.evaluate(TemporalGraphClassifier.load(str(ckpt)),
                                                      features, dataset.name)
        assert out == tgtopo.pipeline.attention_csv([report])
        assert err == f"accuracy {metrics.accuracy_mean:.4f}\n"

    def test_an_empty_config_path_is_an_unreadable_path(self, tmp_path, capsys):
        # --config '' ran the default config, where an empty output path is refused
        spec = dict(num_graphs=4, nodes=8, timesteps=6, classes=2, cycle_density=[0, 3])
        save_dataset(synth_generate(spec, 0), tmp_path / "ds")
        (tmp_path / "run.cfg").write_text("epochs = 1\nfolds = 2\n")
        assert main(["cv", "--data", str(tmp_path / "ds"), "--config",
                     str(tmp_path / "run.cfg")]) == 0
        capsys.readouterr()
        assert main(["cv", "--data", str(tmp_path / "ds"), "--config", ""]) == 2
        assert capsys.readouterr() == ("", "data error: [Errno 2] No such file or directory: ''\n")

    def test_cv_writes_metrics(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\nmode = dos-only\nfolds = 2\n")
        out = tmp_path / "metrics.csv"
        assert main(["cv", "--data", str(dataset_dir), "--config", str(cfg),
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("field,value")
        assert "accuracy_mean," in text


class TestSweepStability:
    def test_sweep(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nmode = topo-only\nfolds = 2\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--data", str(dataset_dir), "--deltas", "4.0,inf",
                     "--sigmas", "2.0,5.0", "--config", str(cfg),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,sigma,accuracy_mean,accuracy_std"
        assert lines[1].startswith("4.0,2.0,") and not lines[1].endswith("nan,nan")
        assert lines[2:] == ["4.0,5.0,nan,nan", "inf,2.0,nan,nan", "inf,5.0,nan,nan"]

    def test_stability(self, tmp_path, capsys):
        out = tmp_path / "stab.csv"
        assert main(["stability", "--mode", "spectral", "--trials", "30",
                     "--seed", "1", "--magnitude", "2", "--out", str(out)]) == 0
        assert out.read_text().startswith("trial,mode,magnitude,distance,ratio")
        assert capsys.readouterr() == ("", "spectral: 30 trials, sup ratio 0.5000, proven bound "
                                           "1.5000, 0 trials over it\n")

    def test_an_empty_output_path_is_an_unwritable_path(self, capsys):
        # an empty --out printed the CSV to stdout as if no path were given
        assert main(["stability", "--mode", "spectral", "--trials", "30", "--out", ""]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mode, spec", [("topo", ("timestamp", 0.1, 30, 1)),
                                            ("spectral", ("edge", 2, 30, 1))])
    def test_stability_csv_on_stdout_is_the_whole_of_stdout(self, mode, spec, capsys):
        assert main(["stability", "--mode", mode, "--trials", "30", "--seed", "1"]) == 0
        report = tgtopo.stability.run_campaign(tgtopo.stability.PerturbationSpec(*spec))
        out, err = capsys.readouterr()
        assert out == tgtopo.stability.campaign_csv([report])
        assert err == (f"{report.mode}: 30 trials, sup ratio {report.empirical_constant:.4f}, "
                       f"proven bound {report.bound:.4f}, 0 trials over it\n")

    @pytest.mark.parametrize("mode, trial, bound", [
        ("spectral", "spectral_stability_trial", 1.5),
        ("topo", "topo_stability_trial", 1.0)])
    def test_trial_over_the_proven_bound_is_numerical_failure(self, mode, trial, bound,
                                                              monkeypatch, capsys):
        # every third trial returns (distance, magnitude) 1e-9 over the bound: past rounding
        def over(*args, **kwargs):
            calls.append(1)
            return bound * 0.25 * (1 + 1e-9 * (len(calls) % 3 == 0)), 0.25

        calls = []
        monkeypatch.setattr(tgtopo.stability, trial, over)
        assert main(["stability", "--mode", mode, "--trials", "30", "--seed", "1"]) == 3
        out, err = capsys.readouterr()
        assert out.startswith("trial,mode,magnitude,distance,ratio\n")
        lines = err.splitlines()
        assert lines[0].endswith(f"proven bound {bound:.4f}, 10 trials over it")
        assert [line for line in lines if line.startswith("numerical failure:")] == lines[1:]
        assert lines[1:] == [f"numerical failure: 10 trials exceed the proven bound {bound}"]


class TestColdStart:
    # a fresh interpreter runs one command; the commands that never extract or train
    # load no training code, and --help loads no command's module and no numpy
    @pytest.mark.parametrize("argv, loaded", [
        (["--help"], []),
        (["synth", "--spec", "{spec}", "--out", "{out}", "--seed", "0"],
         ["data", "numpy", "temporal"]),
        (["stability", "--mode", "topo", "--trials", "30", "--out", "{out}"],
         ["numpy", "spectral", "stability", "temporal", "topology"]),
    ])
    def test_command_loads_only_what_it_runs(self, argv, loaded, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(num_graphs=2, nodes=6, timesteps=6, classes=2,
                                        cycle_density=[0, 1])))
        argv = [a.format(spec=spec, out=tmp_path / "out") for a in argv]
        code = ("import sys\nfrom tgtopo.cli import main\nassert main(sys.argv[1:]) == 0\n"
                "print(*(m.removeprefix('tgtopo.') for m in sys.modules\n"
                "        if m.startswith('tgtopo.') or m == 'numpy'), file=sys.stderr)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(tgtopo.cli.__file__)))
        run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        # the last stderr line: a command's summary line comes before it
        assert sorted(run.stderr.splitlines()[-1].split()) == sorted(["cli", "errors", *loaded])


def _package_errors():
    modules = [importlib.import_module(f"tgtopo.{m.name}")
               for m in pkgutil.iter_modules(tgtopo.__path__)]
    return sorted({obj for mod in modules for obj in vars(mod).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__.startswith("tgtopo")}, key=lambda c: c.__qualname__)


# every error class the package defines: one per module under the two bases,
# plus the leaves that a caller catches or reads a field of
ERRORS = [
    "CheckpointError", "DataError", "InputError", "NonFiniteLossError", "NonFiniteValueError",
    "NumericalError", "ParseError", "PipelineError", "ShapeMismatchError", "SpectralError",
    "StabilityError", "TemporalGraphError", "TopologyError",
]


def _label_out_of_range(root):
    (root / "manifest.txt").write_text("# classes 2\ng.txt\n")
    (root / "g.txt").write_text("n 3 label 5\n0 1 1.0\n")
    return load_dataset(root)


# (module class, id, call that refuses, message with {tmp} for the call's directory)
REFUSALS = [
    (TemporalGraphError, "out_of_range_node",
     lambda _: tgtopo.temporal.from_events(2, [(0, 2, 1.0)]), "event (0,2,1.0) outside [0,2)"),
    (TemporalGraphError, "self_loop",
     lambda _: tgtopo.temporal.from_events(2, [(0, 0, 1.0)]), "self-loop at node 0, t=1.0"),
    (TemporalGraphError, "non_finite_timestamp",
     lambda _: tgtopo.temporal.from_events(2, [(0, 1, float("nan"))]),
     "event (0,1) has timestamp nan"),
    (TemporalGraphError, "empty_event_list", lambda _: tgtopo.temporal.from_events(2, []),
     "empty event list"),
    (TemporalGraphError, "empty_timesteps",
     lambda _: tgtopo.temporal.temporal_degree(
         tgtopo.temporal.from_events(2, [(0, 1, 1.0)]), []),
     "timesteps grid is empty"),
    (TopologyError, "missing_edge_value",
     lambda _: tgtopo.topology.sublevel_persistence0([(0, 1, None)]), "edge (0,1) has no value"),
    (TopologyError, "empty_thresholds",
     lambda _: tgtopo.topology.betti_curve(tgtopo.topology.PersistenceDiagram(0, ()), []),
     "thresholds must be nonempty"),
    (SpectralError, "empty_window",
     lambda _: tgtopo.spectral.normalized_laplacian(
         tgtopo.temporal.WindowGraph(0, 0.0, 1.0, (), (), ())),
     "cannot build a Laplacian for an empty window"),
    (StabilityError, "infeasible_k",
     lambda _: tgtopo.stability.perturb_edges(
         tgtopo.temporal.WindowGraph(0, 0.0, 1.0, (0, 1), ((0, 1),), (1,)), 1, 0),
     "no feasible modification at step 0 of 1"),
    (PipelineError, "too_few_graphs",
     lambda _: tgtopo.pipeline.stratified_folds([0, 1, 0], 5, seed=0), "3 graphs < 5 folds"),
    (DataError, "label_out_of_range", _label_out_of_range, "label 5 outside [0,2)"),
    (DataError, "missing_manifest", load_dataset, "no manifest.txt in {tmp}"),
    (DataError, "invalid_spec", lambda _: synth_generate([1, 2], 0),
     "spec must be a JSON object, got list"),
]


class TestErrorHierarchy:
    def test_every_package_error_derives_from_exactly_one_base(self):
        errors = _package_errors()
        assert [cls.__qualname__ for cls in errors] == ERRORS
        for cls in errors:
            assert issubclass(cls, InputError) != issubclass(cls, NumericalError), cls

    @pytest.mark.parametrize("cls", _package_errors(), ids=lambda c: c.__qualname__)
    def test_cli_maps_each_error_to_its_base_exit_code(self, cls, monkeypatch, capsys):
        def fail(args):
            raise cls.__new__(cls)

        monkeypatch.setattr(tgtopo.cli, "_run", fail)
        assert main(["stability", "--mode", "topo"]) == (2 if issubclass(cls, InputError) else 3)
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("module, name, refuse, message", REFUSALS,
                             ids=[f"{module.__name__}-{name}" for module, name, _, _ in REFUSALS])
    def test_each_module_refusal_is_its_module_class_and_exits_2(
            self, module, name, refuse, message, tmp_path, monkeypatch, capsys):
        # the refusals that had a leaf class of their own now raise their module's
        # class with the same text, which main maps to exit 2 on one stderr line
        message = message.format(tmp=tmp_path)
        with pytest.raises(InputError) as exc:
            refuse(tmp_path)
        assert type(exc.value) is module and str(exc.value) == message

        monkeypatch.setattr(tgtopo.cli, "_run", lambda args: refuse(tmp_path))
        assert main(["stability", "--mode", "topo"]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
