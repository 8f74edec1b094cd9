import json

import numpy as np
import pytest

import tgtopo.spectral
from tgtopo.cli import main
from tgtopo.data import load_dataset, synth_generate, save_dataset


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    spec = dict(num_graphs=10, nodes=10, timesteps=12, classes=2, cycle_density=[0, 3])
    save_dataset(synth_generate(spec, 2), root / "ds")
    return root / "ds"


def _graph_args(root, dataset_dir, events):
    ds = root / "ds"
    ds.mkdir()
    (ds / "manifest.txt").write_text("g.txt\n")
    (ds / "g.txt").write_text("n 3 label 0\n" + events)
    return ["extract", "--data", str(ds), "--out", str(root / "o")]


def _cv_args(root, dataset_dir, config):
    cfg = root / "run.cfg"
    cfg.write_text("epochs = 1\n" + config)
    return ["cv", "--data", str(dataset_dir), "--config", str(cfg)]


def _synth_args(root, dataset_dir, spec):
    (root / "spec.json").write_text(spec)
    return ["synth", "--spec", str(root / "spec.json"), "--out", str(root / "x"),
            "--seed", "0"]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main([]) == 1
        assert main(["frobnicate"]) == 1

    def test_data_error(self, tmp_path, capsys):
        code = main(["extract", "--data", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_success(self, dataset_dir, tmp_path, capsys):
        code = main(["extract", "--data", str(dataset_dir), "--out", str(tmp_path / "o")])
        assert code == 0

    @pytest.mark.parametrize("build, text", [
        pytest.param(_graph_args, "0 0 1.0\n", id="self_loop"),
        pytest.param(_graph_args, "0 7 1.0\n", id="node_out_of_range"),
        pytest.param(_cv_args, "frobs = 1\n", id="unknown_config_key"),
        pytest.param(_cv_args, "epochs = abc\n", id="uncastable_config_value"),
        pytest.param(_cv_args, "delta = 4.0\nsigma = 4.0\n", id="sigma_not_below_delta"),
        pytest.param(_cv_args, "folds = 11\n", id="fewer_graphs_than_folds"),
        pytest.param(_synth_args, "{not json", id="spec_not_json"),
    ])
    def test_malformed_input_is_data_error(self, build, text, dataset_dir, tmp_path,
                                           capsys):
        assert main(build(tmp_path, dataset_dir, text)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    def test_eigensolver_failure_is_numerical_error(self, dataset_dir, tmp_path,
                                                    monkeypatch, capsys):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(tgtopo.spectral, "eigenvalues_sym", fail)
        code = main(["extract", "--data", str(dataset_dir), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


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
        for name in ("topo.csv", "dos.csv", "inputs.npz"):
            assert (out / name).exists()


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
        assert main(["sweep", "--data", str(dataset_dir), "--deltas", "4.0",
                     "--sigmas", "2.0,5.0", "--config", str(cfg),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,sigma,accuracy_mean,accuracy_std"
        assert any(line.endswith("nan,nan") for line in lines[1:])

    def test_stability(self, tmp_path, capsys):
        out = tmp_path / "stab.csv"
        assert main(["stability", "--mode", "spectral", "--trials", "30",
                     "--seed", "1", "--magnitude", "2", "--out", str(out)]) == 0
        assert out.read_text().startswith("trial,mode,magnitude,distance,ratio")
