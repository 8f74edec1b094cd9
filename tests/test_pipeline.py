import ctypes
import glob
import hashlib
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tgtopo.pipeline
from tgtopo.data import Dataset, load_dataset, save_dataset, synth_generate
from tgtopo.model import TemporalGraphClassifier
from tgtopo.pipeline import (
    FEATURE_MODES,
    AttentionReport,
    Metrics,
    PipelineError,
    RunConfig,
    attention_csv,
    embeddings_csv,
    evaluate,
    extract_descriptors,
    kfold_cv,
    metrics_csv,
    save_descriptors,
    stratified_folds,
    sweep_windows,
    train,
)
from tgtopo.spectral import SpectralError
import tgtopo.temporal
from tgtopo.temporal import TemporalGraphError, from_events, stack_windows, window_count


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

    @pytest.mark.parametrize("key, value", [
        ("dos_bins", 2.5), ("epochs", 1.5), ("hidden_dim", 8.5), ("seed", 0.5), ("folds", 2.5),
        ("sage_layers", True), ("epochs", False), ("seed", "1"), ("folds", None),
    ])
    def test_integer_field_refuses_a_non_integer(self, key, value):
        # 2.5 bins, 1.5 epochs, 8.5 hidden units and seed 0.5 once passed and
        # ended in numpy's or Python's TypeError; 2.5 folds and True layers ran
        with pytest.raises(PipelineError, match=fr"^{key} must be an integer >= \d, got "
                                                f"{re.escape(repr(value))}$"):
            RunConfig(**{key: value}).validate()

    @pytest.mark.parametrize("key, value, expected", [
        ("lr", "0.1", "a finite real > 0"), ("lr", None, "a finite real > 0"),
        ("lr", True, "a finite real > 0"), ("dropout", None, "a real in [0, 1)"),
        ("dropout", False, "a real in [0, 1)"), ("weight_decay", "0", "a finite real >= 0"),
        ("count_edge_multiplicity", "no", "a bool"), ("count_edge_multiplicity", 1, "a bool"),
    ])
    def test_real_or_bool_field_refuses_another_type(self, key, value, expected):
        # "0.1", None and "0" ended in a builtin TypeError; lr = True trained at
        # lr 1.0, and "no" extracted with edge multiplicity on
        message = f"{key} must be {expected}, got {value!r}"
        with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
            RunConfig(**{key: value}).validate()

    def test_real_fields_take_numpy_reals(self):
        RunConfig(delta=np.float32(6), sigma=np.int64(4), lr=np.float64(0.01),
                  dropout=np.float16(0.5), weight_decay=np.int32(0)).validate()

    @pytest.mark.parametrize("key", ["delta", "sigma"])
    def test_non_real_window_setting_is_a_temporal_graph_error(self, key, small_dataset):
        # a string delta or sigma ended in a builtin TypeError inside extraction
        with pytest.raises(TemporalGraphError, match=f"^{key} must .*'4'"):
            extract_descriptors(small_dataset, RunConfig(**{key: "4"}))

    def test_a_non_integer_is_refused_before_extraction(self, small_dataset):
        with pytest.raises(PipelineError, match="dos_bins must be an integer"):
            extract_descriptors(small_dataset, RunConfig(dos_bins=2.5))

    def test_integer_fields_take_numpy_integers(self):
        RunConfig(dos_bins=np.int64(4), sage_layers=np.int32(1), hidden_dim=np.uint16(8),
                  epochs=np.int8(2), seed=np.uint64(3), folds=np.int64(2)).validate()

    @pytest.mark.parametrize("seed", [np.int8(127), np.int64(2**63 - 1), np.uint64(2**64 - 1)])
    def test_a_numpy_seed_at_the_top_of_its_dtype_trains_as_its_value(self, seed,
                                                                       small_dataset):
        # train's seed + 1 wrapped in the seed's dtype: numpy's ValueError for a signed
        # seed and, for an unsigned one, the stream of seed 0
        config = RunConfig(seed=seed, epochs=1, mode="dos-only")
        features = extract_descriptors(small_dataset, config)
        assert type(config.seed) is int and config.seed == seed
        _, metrics = train(features, small_dataset.num_classes, config)
        _, expected = train(features, small_dataset.num_classes,
                            RunConfig(seed=int(seed), epochs=1, mode="dos-only"))
        assert metrics.loss_history == expected.loss_history


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

    def test_local_edges_built_once_per_window(self, small_dataset, monkeypatch):
        # extraction stacks each graph's windows once, for both views: one
        # stack_windows call per graph, given each of its windows once
        cfg = RunConfig(delta=6.0, sigma=4.0)
        calls = []
        monkeypatch.setattr(tgtopo.pipeline, "stack_windows",
                            lambda ws: calls.append(ws) or stack_windows(ws))
        extract_descriptors(small_dataset, cfg)
        counts = [window_count(g, cfg.window_spec()) for g in small_dataset.graphs]
        assert [[w.window_index for w in ws] for ws in calls] == [list(range(c)) for c in counts]

    def test_feature_width_is_dataset_wide(self, small_dataset, small_features):
        grid = {t for g in small_dataset.graphs for _, _, t in g.events}
        widths = {gf.features.shape[1] for gf in small_features}
        assert widths == {len(grid)}

    def test_no_graphs_is_refused(self):
        # an empty dataset ended in numpy's bare ValueError from np.concatenate
        with pytest.raises(PipelineError, match="^no graphs to extract descriptors from$"):
            extract_descriptors(Dataset("none", (), 2), RunConfig())

    def test_dos_rows_normalized_or_empty(self, small_features):
        for gf in small_features:
            for row, empty in zip(gf.psi, gf.psi_empty):
                if empty:
                    assert np.allclose(row, 0.0)
                else:
                    assert row.sum() == pytest.approx(1.0)


def mixed_dataset():
    """A desk-shaped graph, whose stack stays under the overlap gate, and two
    long-stream-shaped ones (96 timesteps, a tree at each), whose stacks are over it."""
    desk = synth_generate(dict(num_graphs=1, nodes=30, timesteps=24, classes=2,
                               cycle_density=[0, 3]), 1)
    long = synth_generate(dict(num_graphs=2, nodes=30, timesteps=96, anchor_stride=1,
                               classes=2, cycle_density=[0, 3]), 1)
    return Dataset("mixed", desk.graphs + long.graphs, 2)


def assert_same_bytes(*runs):
    for graphs in zip(*runs, strict=True):
        for name in ("phi", "psi", "psi_empty", "features", "agg"):
            first, *rest = (getattr(gf, name) for gf in graphs)
            for other in rest:
                assert (first.dtype == other.dtype and first.shape == other.shape
                        and first.tobytes() == other.tobytes())


class TestOverlap:
    """A large stack's spectral descriptors run on the call's worker thread while the
    calling thread computes its topology: the same calls, so the same bytes."""

    CFG = RunConfig(delta=4.0, sigma=1.0)

    def test_both_paths_give_the_same_bytes(self, monkeypatch):
        dataset, runs = mixed_dataset(), []
        gates = (tgtopo.pipeline.OVERLAP_PAIRS, tgtopo.pipeline.OVERLAP_N3)
        # every graph takes the worker, then none does, then the long ones do
        for pairs, n3 in ((0, 0), (1 << 62, 1 << 62), gates):
            monkeypatch.setattr(tgtopo.pipeline, "OVERLAP_PAIRS", pairs)
            monkeypatch.setattr(tgtopo.pipeline, "OVERLAP_N3", n3)
            runs.append(extract_descriptors(dataset, self.CFG))
        assert_same_bytes(*runs)

    def test_only_the_long_graphs_take_the_one_worker(self, monkeypatch):
        dataset, where, started = mixed_dataset(), [], []
        original, start = tgtopo.spectral.spectral_descriptors, threading.Thread.start
        monkeypatch.setattr(tgtopo.spectral, "spectral_descriptors", lambda stack, bins: (
            where.append(threading.current_thread() is threading.main_thread())
            or original(stack, bins)))
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self) or start(self))
        sizes = [stack_windows(tgtopo.temporal.window_sequence(g, self.CFG.window_spec()))[0]
                 for g in dataset.graphs]
        assert [(s[:, 1].sum() >= tgtopo.pipeline.OVERLAP_PAIRS,
                 (s[:, 0] ** 3).sum() >= tgtopo.pipeline.OVERLAP_N3) for s in sizes] == [
            (False, False), (True, True), (True, True)]
        extract_descriptors(dataset, self.CFG)
        assert where == [True, False, False] and len(started) == 1

    def test_a_topology_failure_surfaces_after_the_worker_is_joined(self, monkeypatch):
        # the worker is still in its eigensolve when the calling thread raises
        def fail(stack, multiplicity):
            raise MemoryError("topology")

        monkeypatch.setattr(tgtopo.topology, "topo_descriptors", fail)
        dataset, before = Dataset("long", mixed_dataset().graphs[1:], 2), threading.active_count()
        with pytest.raises(MemoryError, match="^topology$"):
            extract_descriptors(dataset, self.CFG)
        assert threading.active_count() == before

    @pytest.mark.parametrize("topology_fails", [False, True], ids=["spectral", "both"])
    def test_a_worker_failure_ends_the_call_and_its_worker(self, topology_fails, monkeypatch):
        # the second long graph fails on the worker, also when its topology fails too;
        # the worker's error is raised, no thread is left, and no state reaches the next call
        dataset, before = mixed_dataset(), threading.active_count()
        fresh = extract_descriptors(dataset, self.CFG)
        assert threading.active_count() == before

        def third_call_raises(fn, error):
            calls = []

            def call(stack, arg):
                calls.append(stack)
                if len(calls) == 3:
                    raise error
                return fn(stack, arg)
            return call

        monkeypatch.setattr(tgtopo.spectral, "spectral_descriptors", third_call_raises(
            tgtopo.spectral.spectral_descriptors, SpectralError("second long")))
        if topology_fails:
            monkeypatch.setattr(tgtopo.topology, "topo_descriptors", third_call_raises(
                tgtopo.topology.topo_descriptors, MemoryError("topology")))
        with pytest.raises(SpectralError, match="^second long$"):
            extract_descriptors(dataset, self.CFG)
        assert threading.active_count() == before
        monkeypatch.undo()
        assert_same_bytes(fresh, extract_descriptors(dataset, self.CFG))


class TestEntryLimit:
    # the limit is made small here, so no test allocates a large matrix
    @pytest.mark.parametrize("nodes, times, refused", [
        pytest.param(10, 10, False, id="n_by_n_and_n_by_T_at_the_limit"),
        pytest.param(11, 1, True, id="n_by_n_over_the_limit"),
        pytest.param(5, 21, True, id="n_by_T_over_the_limit"),
    ])
    def test_feature_matrices_refused_before_allocation(self, monkeypatch, nodes, times, refused):
        monkeypatch.setattr(tgtopo.temporal, "ENTRY_LIMIT", 100)
        graphs = (from_events(nodes, [(0, 1, float(t)) for t in range(times)], label=0),
                  from_events(3, [(0, 1, 0.0), (1, 2, 1.0)], label=1))
        dataset = Dataset("d", graphs, 2)  # T is the union of both graphs' timestamps
        if not refused:
            assert len(extract_descriptors(dataset, RunConfig())) == 2
            return
        for name in ("temporal_degree", "_aggregation"):
            monkeypatch.setattr(tgtopo.pipeline, name, pytest.fail)
        with pytest.raises(TemporalGraphError, match="100 matrix entries"):
            extract_descriptors(dataset, RunConfig())

    @pytest.mark.parametrize("bins, refused", [(25, False), (26, True)])
    def test_dos_masses_refused_before_extraction(self, monkeypatch, bins, refused):
        # 4 windows of 26 bins ask for 104 DoS masses (and bin counts), over the limit;
        # the 3 x 3 and 3 x 16 feature matrices fit
        monkeypatch.setattr(tgtopo.temporal, "ENTRY_LIMIT", 100)
        graphs = (from_events(3, [(0, 1, float(t)) for t in range(16)], label=0),
                  from_events(3, [(0, 1, 0.0), (1, 2, 1.0)], label=1))
        dataset = Dataset("d", graphs, 2)
        assert window_count(graphs[0], RunConfig().window_spec()) == 4
        if not refused:
            assert extract_descriptors(dataset, RunConfig(dos_bins=bins))[0].psi.shape == (4, 25)
            return
        monkeypatch.setattr(tgtopo.pipeline, "window_sequence", pytest.fail)
        with pytest.raises(TemporalGraphError, match="4 windows of 26 DoS bins exceed 100"):
            extract_descriptors(dataset, RunConfig(dos_bins=bins))


class TestDescriptorFingerprint:
    # SHA-256 over each graph's phi, psi and psi_empty bytes in order, the
    # same hash as perfbench's descriptor_digest.  A change to extraction that
    # alters any descriptor byte changes these values; record new ones only
    # for an intended behaviour change.  The long-stream cases have the window
    # shape of perfbench's long-stream workload: 92 overlapping windows of
    # 30 nodes per graph.
    DIGEST = "4c30dbc757bf81cc8b9551d465a04a7352560d03cad9b2245100931c6ccde8a2"
    LONG_STREAM = {
        False: "0083b527538511a5546805e660ed6b4199291d617c900126e88a5c6116acf69f",
        True: "96eb1d414bd01980fe6aeea23b86ea5ddca54e522727f832b51fd1e096ff144a",
    }

    # the same hash over each graph's structural ``features`` and ``agg`` bytes
    STATIC = {
        "temporal_degree": "36796273f0935beaccd490d674c1f6ecb98a14ae4ccea963c1a16ecc09a43408",
        "binary": "5560c1cd930994fef9714cc616ca44667bb094b7f9ea35f249e81bf93cf41e96",
    }
    SPEC = dict(num_graphs=20, nodes=30, timesteps=24, classes=2, cycle_density=[0, 3])

    @staticmethod
    def _digest(spec, cfg, fields=("phi", "psi", "psi_empty"), dataset=None):
        h = hashlib.sha256()
        for gf in extract_descriptors(dataset or synth_generate(spec, 1), cfg):
            for name in fields:
                h.update(np.ascontiguousarray(getattr(gf, name)).tobytes())
        return h.hexdigest()

    def test_default_config_digest(self):
        assert self._digest(self.SPEC, RunConfig()) == self.DIGEST

    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_static_inputs_digest(self, mode):
        cfg = RunConfig(feature_mode=mode)
        assert self._digest(self.SPEC, cfg, ("features", "agg")) == self.STATIC[mode]

    def test_digest_after_file_round_trip(self, tmp_path):
        # the same graphs parsed back from their files give the same descriptors
        save_dataset(synth_generate(self.SPEC, 1), tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert self._digest(None, RunConfig(), dataset=back) == self.DIGEST
        assert self._digest(None, RunConfig(), ("features", "agg"),
                            back) == self.STATIC["temporal_degree"]

    @pytest.mark.parametrize("multiplicity", [False, True])
    def test_long_stream_digest(self, multiplicity):
        spec = dict(num_graphs=3, nodes=30, timesteps=96, anchor_stride=1, classes=2,
                    cycle_density=[0, 3])
        cfg = RunConfig(delta=4.0, sigma=1.0, count_edge_multiplicity=multiplicity)
        assert self._digest(spec, cfg) == self.LONG_STREAM[multiplicity]


def openblas_kernel():
    """The kernel name of numpy's bundled OpenBLAS (``OPENBLAS_CORETYPE`` forces
    one for a process), or None when it cannot be read."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


class TestTrainingFingerprint:
    # SHA-256 over the float64 bytes of the loss history, then of every
    # trained parameter in dict order, after 2 epochs on the descriptor
    # fingerprint's dataset.  Optimizations that keep every float operation
    # and its order leave these values unchanged; record new ones only for an
    # intended change to the numerics of training.  The dropout digest also
    # pins the rng draws around attention, and the concat-fuse digest the
    # path without fusion attention.  Recorded again when Adam folded its bias
    # corrections and moment factors into the step size and eps (the SkylakeX
    # digests were e23a3340…, 20faa15a… and a634f784…).
    #
    # Each OpenBLAS kernel blocks its sums and uses FMA its own way, so the
    # training matmuls round differently in the last bits: the digests are
    # recorded per kernel, (default, dropout, concat-fuse), under the name the
    # library reports.  OPENBLAS_CORETYPE=Prescott reports "Katmai".
    DIGESTS = {
        "SkylakeX": ("a66ea01ee34fa075e8681e4f5838a5a660480e3930a39d52279172d1770cab01",
                     "faf3afb328224156ee0542fbf540aaef4595edd69f7d50e9ba62a041a7d7f5ca",
                     "cc044b3105b1684836891a572fc81ef956acf76754398ae143dafd1ec81cfd8a"),
        "Haswell": ("cf749d02a13b87965519db2f6f36321b7db6d3efbc50b956903f0526a6b31a46",
                    "c01dc49b386cad36bcf847791ff15b639131f38c9be2cced2d7a12ef23cb714e",
                    "9a493fcd1a03d9c3be319f3ddc288580c39a9c485af92d4e0a3258e81a05a4f3"),
        "Sandybridge": ("39958b03f54805cc26ae821982c873021f4962012c5becda32bb17713f26aed3",
                        "763013383a58cbd8e826fb0b379a3a0198c6686d5e86d175530a85801202d159",
                        "2d3ba01b3b1ee9c9f0e8c53348888ef25a35a718e2a49005bc2089b80dae07da"),
        "Katmai": ("e6ec066100429c1445d304ab5f3abc6cb69ff2469e9e352b70eaa414bca01ec8",
                   "b193b879eb30ffbe5649187260f30090265eb3d1aaaa977071ff862fc35ac319",
                   "941d04f999a50c1d3f0f2e88bc7561db2b6b19056803d5270280ae214e7d276c"),
    }
    # OPENBLAS_CORETYPE value: (the /proc/cpuinfo flag it needs, the name it
    # reports); "pni" is the flag of SSE3
    FORCED = {"Haswell": ("avx2", "Haswell"), "Sandybridge": ("avx", "Sandybridge"),
              "Prescott": ("pni", "Katmai")}
    TESTS = ("test_default_config_digest", "test_dropout_digest", "test_concat_fuse_digest")

    @staticmethod
    def _digest(cfg):
        spec = dict(num_graphs=20, nodes=30, timesteps=24, classes=2,
                    cycle_density=[0, 3])
        feats = extract_descriptors(synth_generate(spec, 1), cfg)
        model, metrics = train(feats, 2, cfg)
        h = hashlib.sha256(np.array(metrics.loss_history, dtype=np.float64).tobytes())
        for t in model.parameters.values():
            h.update(np.ascontiguousarray(t.data, dtype=np.float64).tobytes())
        return h.hexdigest()

    @classmethod
    def _recorded(cls, which):
        kernel, forced = openblas_kernel(), os.environ.get("OPENBLAS_CORETYPE")
        if kernel is None:
            pytest.fail("cannot read the kernel name of numpy's bundled OpenBLAS")
        if forced in cls.FORCED and kernel != cls.FORCED[forced][1]:
            pytest.fail(f"OPENBLAS_CORETYPE={forced} runs the kernel {kernel!r}, "
                        f"not {cls.FORCED[forced][1]!r}")
        if kernel not in cls.DIGESTS:
            pytest.fail(f"no training digests recorded for the OpenBLAS kernel {kernel!r}")
        return cls.DIGESTS[kernel][which]

    def test_default_config_digest(self):
        assert self._digest(RunConfig(epochs=2)) == self._recorded(0)

    def test_dropout_digest(self):
        assert self._digest(RunConfig(epochs=2, dropout=0.1)) == self._recorded(1)

    def test_concat_fuse_digest(self):
        assert self._digest(RunConfig(epochs=2, mode="concat-fuse")) == self._recorded(2)

    def test_digests_under_every_forced_kernel(self):
        # the three tests above, rerun in one subprocess per kernel that this
        # CPU can run, with only OPENBLAS_CORETYPE added to the environment
        try:
            with open("/proc/cpuinfo") as fh:
                flags = {f for line in fh if line.startswith("flags") for f in line.split()}
        except OSError:
            pytest.skip("no /proc/cpuinfo to tell which kernels this CPU runs")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        ids = [f"tests/test_pipeline.py::TestTrainingFingerprint::{name}" for name in self.TESTS]
        for forced, (flag, _) in self.FORCED.items():
            if flag not in flags:
                continue
            run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                  *ids], cwd=root, capture_output=True, text=True,
                                 env={**os.environ, "OPENBLAS_CORETYPE": forced})
            assert run.returncode == 0, f"OPENBLAS_CORETYPE={forced}:\n{run.stdout[-3000:]}"


class TestDescriptorCache:
    def test_roundtrip_bit_identical(self, small_features, tmp_path):
        # dos.csv writes repr floats, so parsing them back is bit-exact
        save_descriptors(small_features, tmp_path / "cache")
        rows = {}
        for name in ("topo.csv", "dos.csv"):
            for line in (tmp_path / "cache" / name).read_text().splitlines()[1:]:
                gid, wi, *vals = line.split(",")
                rows.setdefault((name, int(gid)), []).append((int(wi), vals))
        for gid, gf in enumerate(small_features):
            topo, dos = rows[("topo.csv", gid)], rows[("dos.csv", gid)]
            assert [wi for wi, _ in topo] == [wi for wi, _ in dos] == list(range(len(gf.phi)))
            assert np.array_equal(np.array([[float(x) for x in v] for _, v in topo]), gf.phi)
            assert np.array_equal(np.array([[float(x) for x in v[:-1]] for _, v in dos]), gf.psi)
            assert [v[-1] for _, v in dos] == [str(int(e)) for e in gf.psi_empty]
        assert len(rows) == 2 * len(small_features)

    def test_cache_files_exist(self, small_features, tmp_path):
        save_descriptors(small_features, tmp_path / "cache")
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["dos.csv", "topo.csv"]

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
        with pytest.raises(PipelineError, match="^3 graphs < 5 folds$"):
            stratified_folds([0, 1, 0], 5, seed=0)

    def test_rejects_single_fold(self):
        with pytest.raises(PipelineError):
            stratified_folds([0, 1], 1, seed=0)

    def test_no_empty_fold_when_classes_do_not_fill_the_folds(self):
        # two classes of 3 over 5 folds: dealing every class from fold 0 left
        # folds 3 and 4 empty, so CV trained on every graph and scored nothing
        folds = stratified_folds([0, 0, 0, 1, 1, 1], 5, seed=0)
        assert sorted(len(f) for f in folds) == [1, 1, 1, 1, 2]

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.integers(0, 3), min_size=2, max_size=40),
           folds=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_partition_and_balance(self, labels, folds, seed):
        if len(labels) < folds:
            with pytest.raises(PipelineError, match=f"^{len(labels)} graphs < {folds} folds$"):
                stratified_folds(labels, folds, seed)
            return
        out = stratified_folds(labels, folds, seed)
        assert len(out) == folds and all(f.dtype == np.int64 for f in out)
        assert sorted(np.concatenate(out).tolist()) == list(range(len(labels)))
        sizes = [len(f) for f in out]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        for cls in set(labels):
            per_fold = [sum(labels[i] == cls for i in f.tolist()) for f in out]
            assert max(per_fold) - min(per_fold) <= 1


class TestTraining:
    def test_no_graphs_is_too_few(self):
        # an empty training set used to end in a bare IndexError from features[0]
        with pytest.raises(PipelineError, match="^no graphs to train on$"):
            train([], 2, RunConfig(epochs=2))

    def test_evaluating_no_graphs_is_refused(self, small_features):
        # an empty test fold used to score accuracy 0.0 with all-zero view weights
        model, _ = train(small_features[:2], 2, RunConfig(epochs=1))
        with pytest.raises(PipelineError, match="no graphs"):
            evaluate(model, [])

    def test_label_outside_the_models_classes_is_refused(self, small_features):
        # a 2-class model once scored a class-2 graph, which it cannot classify right
        model, _ = train(small_features[:2], 2, RunConfig(epochs=1))
        graphs = [small_features[0], replace(small_features[1], label=2)]
        with pytest.raises(PipelineError, match=r"^graph 1 has label 2, outside \[0, 2\)$"):
            evaluate(model, graphs)

    @pytest.mark.parametrize("call", ["train", "evaluate"])
    @pytest.mark.parametrize("label", [None, True, 1.5, -1, 2])
    def test_label_that_is_not_a_class_is_refused_by_train_and_evaluate(
            self, small_features, label, call):
        # evaluate once scored -1, 1.5 and True as a wrong prediction, and train
        # ended in TypeError, IndexError or ValueError from the model
        graphs = list(small_features[:6])
        graphs[4] = replace(graphs[4], label=label)
        message = rf"^graph 4 has label {re.escape(str(label))}, outside \[0, 2\)$"
        with pytest.raises(PipelineError, match=message):
            if call == "train":
                train(graphs, 2, RunConfig(epochs=1))
            else:
                evaluate(train(small_features[:2], 2, RunConfig(epochs=1))[0], graphs)

    @pytest.mark.parametrize("label", [2, -1])
    def test_training_label_outside_the_classes_is_refused_before_the_model(
            self, small_features, label, monkeypatch):
        # such a graph used to end in ShapeMismatchError from the loss, and only
        # when its step came up, after the model had trained on the others
        built = []
        monkeypatch.setattr(tgtopo.pipeline, "TemporalGraphClassifier",
                            lambda *a, **k: built.append(a) or TemporalGraphClassifier(*a, **k))
        graphs = list(small_features[:6])
        graphs[4] = replace(graphs[4], label=label)
        with pytest.raises(PipelineError, match=f"^graph 4 has label {label}, outside "
                                                r"\[0, 2\)$"):
            train(graphs, 2, RunConfig(epochs=1))
        assert built == []

    @pytest.mark.parametrize("bias, cause", [
        ((np.inf, 0.0), tgtopo.autodiff.NonFiniteValueError),  # non-finite logits
        ((1e308, -1e308), type(None)),  # finite logits whose shift overflows for label 1
    ], ids=["logits", "loss"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_loss_ends_training(self, small_features, bias, cause, monkeypatch):
        # a zero cls.w passes no gradient, so the model never moves off the bias
        class Poisoned(TemporalGraphClassifier):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.cls_w.data[...], self.cls_b.data[...] = 0.0, bias

        monkeypatch.setattr(tgtopo.pipeline, "TemporalGraphClassifier", Poisoned)
        cfg = RunConfig(epochs=1, seed=3)
        order = np.random.default_rng(cfg.seed + 1).permutation(len(small_features))
        idx = order[0] if np.isinf(bias[0]) else next(
            i for i in order if small_features[i].label == 1)
        with pytest.raises(tgtopo.pipeline.NonFiniteLossError,
                           match=f"^non-finite loss at epoch 0, graph {idx}$") as info:
            train(small_features, 2, cfg)
        assert isinstance(info.value.__cause__, cause)

    def test_cv_with_classes_smaller_than_the_folds_scores_every_fold(self, small_dataset):
        # 3 graphs of each class over 5 folds: every fold tests a graph, and the
        # mean view weights sum to 1
        by_class = [[g for g in small_dataset.graphs if g.label == c][:3] for c in (0, 1)]
        ds = Dataset("six", tuple(by_class[0] + by_class[1]), 2)
        metrics, report = kfold_cv(ds, RunConfig(epochs=1, folds=5))
        assert len(metrics.fold_accuracies) == 5
        assert all(acc in (0.0, 0.5, 1.0) for acc in metrics.fold_accuracies)
        assert sum((report.structural, report.topological, report.spectral)) == \
            pytest.approx(1.0)

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

    def test_checkpoint_after_training_bit_exact(self, small_features, tmp_path):
        model, _ = train(small_features, 2, RunConfig(mode="full", epochs=1, seed=7))
        model.save(tmp_path / "ckpt.json")
        clone = TemporalGraphClassifier.load(tmp_path / "ckpt.json")
        for name, t in model.parameters.items():
            assert t.data.tobytes() == clone.parameters[name].data.tobytes(), name

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
    def test_one_class_rejected(self, small_dataset, small_features):
        cfg = RunConfig(delta=6.0, sigma=4.0, epochs=1, folds=2)
        with pytest.raises(PipelineError, match="at least 2 classes"):
            train(small_features, 1, cfg)
        one = Dataset(small_dataset.name, small_dataset.graphs, 1)
        with pytest.raises(PipelineError, match="at least 2 classes"):
            kfold_cv(one, cfg, features=small_features)

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
        # every cell WindowSpec refuses, an infinite delta too, is a NaN row
        cfg = RunConfig(mode="topo-only", epochs=1, seed=0, folds=2)
        text = sweep_windows(small_dataset, [4.0, np.inf, np.nan, -1.0], [2.0, 4.0, 6.0], cfg)
        lines = text.splitlines()
        assert lines[0] == "delta,sigma,accuracy_mean,accuracy_std"
        cells = {tuple(l.split(",")[:2]): l.split(",")[2:] for l in lines[1:]}
        assert len(cells) == 12 and cells.pop(("4.0", "2.0"))[0] != "nan"
        assert all(acc == ["nan", "nan"] for acc in cells.values())
