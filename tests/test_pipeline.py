import hashlib

import numpy as np
import pytest

from tgtopo.data import synth_generate
from tgtopo.pipeline import (
    AttentionReport,
    Metrics,
    PipelineError,
    RunConfig,
    TooFewGraphsError,
    attention_csv,
    embeddings_csv,
    evaluate,
    extract_descriptors,
    kfold_cv,
    load_descriptors,
    metrics_csv,
    save_descriptors,
    stratified_folds,
    sweep_windows,
    train,
)
from tgtopo.temporal import window_count


SPEC = dict(num_graphs=20, nodes=12, timesteps=12, classes=2, cycle_density=[0, 3])


@pytest.fixture(scope="module")
def small_dataset():
    return synth_generate(SPEC, 11)


@pytest.fixture(scope="module")
def small_features(small_dataset):
    cfg = RunConfig(delta=6.0, sigma=4.0)
    return extract_descriptors(small_dataset, cfg)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.delta == 6.0 and cfg.sigma == 4.0 and cfg.lr == 0.005

    def test_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("delta = 4.0\nepochs = 12  # short run\n\nmode = topo-only\n")
        cfg = RunConfig.from_file(path)
        assert cfg.delta == 4.0 and cfg.epochs == 12 and cfg.mode == "topo-only"

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("widgets = 3\n")
        with pytest.raises(PipelineError):
            RunConfig.from_file(path)

    def test_from_file_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("delta 4.0\n")
        with pytest.raises(PipelineError):
            RunConfig.from_file(path)


class TestExtraction:
    def test_shapes(self, small_dataset, small_features):
        cfg = RunConfig()
        for g, gf in zip(small_dataset.graphs, small_features):
            n_windows = window_count(g, cfg.window_spec())
            assert gf.phi.shape == (n_windows, 4)
            assert gf.psi.shape == (n_windows, 4)
            assert gf.psi_empty.shape == (n_windows,)
            assert gf.features.shape[0] == g.num_nodes
            assert gf.agg.shape == (g.num_nodes, g.num_nodes)
            assert gf.label == g.label

    def test_feature_width_is_dataset_wide(self, small_dataset, small_features):
        grid = {t for g in small_dataset.graphs for _, _, t in g.events}
        widths = {gf.features.shape[1] for gf in small_features}
        assert widths == {len(grid)}

    def test_dos_rows_normalized_or_empty(self, small_features):
        for gf in small_features:
            for row, empty in zip(gf.psi, gf.psi_empty):
                if empty:
                    assert np.allclose(row, 0.0)
                else:
                    assert row.sum() == pytest.approx(1.0)


class TestDescriptorFingerprint:
    # SHA-256 over each graph's phi, psi and psi_empty bytes in order, the
    # same hash as perfbench's descriptor_digest.  A change to extraction that
    # alters any descriptor byte changes this value; record the new one only
    # for an intended behaviour change.
    DIGEST = "4c30dbc757bf81cc8b9551d465a04a7352560d03cad9b2245100931c6ccde8a2"

    def test_default_config_digest(self):
        spec = dict(num_graphs=20, nodes=30, timesteps=24, classes=2,
                    cycle_density=[0, 3])
        h = hashlib.sha256()
        for gf in extract_descriptors(synth_generate(spec, 1), RunConfig()):
            for arr in (gf.phi, gf.psi, gf.psi_empty):
                h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == self.DIGEST


class TestDescriptorCache:
    def test_roundtrip_bit_identical(self, small_features, tmp_path):
        save_descriptors(small_features, tmp_path / "cache")
        back = load_descriptors(tmp_path / "cache")
        assert len(back) == len(small_features)
        for a, b in zip(small_features, back):
            assert a.label == b.label
            assert np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.psi, b.psi)
            assert np.array_equal(a.psi_empty, b.psi_empty)
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.agg, b.agg)

    def test_cache_files_exist(self, small_features, tmp_path):
        save_descriptors(small_features, tmp_path / "cache")
        for name in ("topo.csv", "dos.csv", "inputs.npz"):
            assert (tmp_path / "cache" / name).exists()

    def test_topo_csv_header(self, small_features, tmp_path):
        save_descriptors(small_features, tmp_path / "cache")
        head = (tmp_path / "cache" / "topo.csv").read_text().splitlines()[0]
        assert head == "graph_id,window_index,v,e,b0,b1"


class TestStratifiedFolds:
    def test_partition(self):
        labels = [0, 1] * 10
        folds = stratified_folds(labels, 5, seed=3)
        all_idx = sorted(i for f in folds for i in f.tolist())
        assert all_idx == list(range(20))

    def test_class_balance(self):
        labels = [0] * 10 + [1] * 10
        for fold in stratified_folds(labels, 5, seed=1):
            fold_labels = [labels[i] for i in fold]
            assert fold_labels.count(0) == fold_labels.count(1) == 2

    def test_seed_determinism(self):
        labels = [0, 1] * 15
        a = stratified_folds(labels, 5, seed=9)
        b = stratified_folds(labels, 5, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_too_few_graphs(self):
        with pytest.raises(TooFewGraphsError):
            stratified_folds([0, 1, 0], 5, seed=0)

    def test_rejects_single_fold(self):
        with pytest.raises(PipelineError):
            stratified_folds([0, 1], 1, seed=0)


class TestTraining:
    def test_topo_only_learns_small(self, small_dataset, small_features):
        cfg = RunConfig(mode="topo-only", epochs=25, seed=2)
        model, metrics = train(small_features, 2, cfg)
        ev, report, emb = evaluate(model, small_features)
        assert ev.fold_accuracies[0] >= 0.9
        assert len(metrics.loss_history) == 25
        assert emb.shape[0] == len(small_features)

    def test_loss_history_finite(self, small_features):
        cfg = RunConfig(mode="dos-only", epochs=3, seed=4)
        _, metrics = train(small_features, 2, cfg)
        assert all(np.isfinite(x) for x in metrics.loss_history)

    def test_train_determinism(self, small_features):
        cfg = RunConfig(mode="topo-only", epochs=3, seed=5)
        m1, h1 = train(small_features, 2, cfg)
        m2, h2 = train(small_features, 2, cfg)
        assert h1.loss_history == h2.loss_history
        for name, t in m1.parameters.items():
            assert np.array_equal(t.data, m2.parameters[name].data)

    def test_constant_model_scores_class_balance(self, small_features):
        # zeroed classifier head ties every logit; argmax resolves to class 0,
        # so accuracy equals the class-0 fraction of the balanced set
        cfg = RunConfig(mode="full", epochs=0, seed=6)
        model, _ = train(small_features, 2, cfg)
        model.parameters["cls.w"].data[:] = 0.0
        model.parameters["cls.b"].data[:] = 0.0
        ev, _, _ = evaluate(model, small_features)
        assert ev.fold_accuracies[0] == pytest.approx(0.5)


class TestKfoldCv:
    def test_small_cv(self, small_dataset, small_features):
        cfg = RunConfig(mode="topo-only", epochs=10, seed=3, folds=5)
        metrics, report = kfold_cv(small_dataset, cfg, features=small_features)
        assert len(metrics.fold_accuracies) == 5
        assert metrics.accuracy_mean >= 0.8
        assert report.structural + report.topological + report.spectral == pytest.approx(1.0)

    def test_cv_determinism_bytes(self, small_dataset, small_features):
        cfg = RunConfig(mode="topo-only", epochs=4, seed=3, folds=5)
        a, _ = kfold_cv(small_dataset, cfg, features=small_features)
        b, _ = kfold_cv(small_dataset, cfg, features=small_features)
        assert metrics_csv(a, cfg).encode() == metrics_csv(b, cfg).encode()


class TestReports:
    def test_metrics_csv_shape(self):
        m = Metrics(fold_accuracies=[1.0, 0.9], loss_history=[[0.5, 0.4], [0.6, 0.3]])
        text = metrics_csv(m, RunConfig(seed=3, mode="full"))
        lines = text.splitlines()
        assert lines[0] == "field,value"
        assert "fold_0_accuracy,1.0" in lines
        assert "accuracy_mean,0.95" in lines
        assert "fold_1_final_loss,0.3" in lines
        assert "seed,3" in lines

    def test_attention_csv(self):
        rows = [AttentionReport("synthetic", 0.2, 0.5, 0.3)]
        text = attention_csv(rows)
        assert text.splitlines()[0] == "dataset,structural,topo,dos"
        assert text.splitlines()[1] == "synthetic,0.2,0.5,0.3"

    def test_embeddings_csv(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0]])
        text = embeddings_csv(emb, [0, 1])
        lines = text.splitlines()
        assert lines[0] == "graph_id,label,z_0,z_1"
        assert lines[1] == "0,0,1.0,2.0"


class TestSweep:
    def test_invalid_cells_are_nan(self, small_dataset):
        cfg = RunConfig(mode="topo-only", epochs=1, seed=0, folds=2)
        text = sweep_windows(small_dataset, [4.0], [2.0, 4.0, 6.0], cfg)
        lines = text.splitlines()
        assert lines[0] == "delta,sigma,accuracy_mean,accuracy_std"
        cells = {tuple(l.split(",")[:2]): l.split(",")[2] for l in lines[1:]}
        assert cells[("4.0", "4.0")] == "nan"
        assert cells[("4.0", "6.0")] == "nan"
        assert cells[("4.0", "2.0")] != "nan"
