"""Workloads, output checks and metrics of the tgtopo benchmark.

A run measures one pipeline workload (``desk`` or ``long-stream``) and the
stability campaigns, calling only ``tgtopo.data``, ``tgtopo.pipeline`` and
``tgtopo.stability``.  README.md says why each workload exists and which
layer each metric should track.  Outputs are checked against an independent
numpy oracle that lives here, not in the package.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Work at the nominal run length.  Shapes come from the workload definitions
# in README.md; graph counts, epochs, trials and repetitions are sized so
# that a run takes about ``NOMINAL_SECONDS`` on a 2-core box, and scale with
# ``--seconds`` (never below the smallest size the program accepts).  Changing
# any value here invalidates every recorded baseline.
NOMINAL_SECONDS = 40
WORKLOADS = {
    "desk": {
        "spec": {"num_graphs": 60, "nodes": 30, "timesteps": 24, "classes": 2,
                 "cycle_density": [0, 3]},
        "config": {"delta": 6.0, "sigma": 4.0, "dos_bins": 4, "epochs": 16,
                   "mode": "full"},
        "min_graphs": 10,
        "round_graphs": 10,  # extracted one by one in each round
        "cv": True,
    },
    "long-stream": {
        "spec": {"num_graphs": 20, "nodes": 30, "timesteps": 96, "anchor_stride": 1,
                 "classes": 2, "cycle_density": [0, 3]},
        "config": {"delta": 4.0, "sigma": 1.0, "dos_bins": 4, "epochs": 20,
                   "mode": "full"},
        "min_graphs": 5,  # stratified_folds needs one graph per fold
        "round_graphs": 1,
        "cv": False,
    },
}
# (mode, magnitude, trials): timestamp noise eps, then a small and a large
# edge edit count k.  run_campaign needs at least 30 trials.
CAMPAIGNS = (("timestamp", 0.1, 400), ("edge", 2, 50), ("edge", 16, 50))
# After the pipeline pass, each round repeats a slice of every measurement:
# set-up, extraction of a few graphs, one training epoch on ROUND_TRAIN
# graphs, evaluation of every graph and all campaigns.  Every rate is a
# median over units of work, and the rounds spread each metric's units over
# the whole run.
ROUNDS = 4
SETUP_PER_ROUND = 2
ROUND_TRAIN = 16
# The machine's speed drifts by up to 2x, in bursts of seconds and over
# minutes.  A fixed probe kernel, run between units of work at least every
# PROBE_EVERY seconds, measures that drift: each unit's time is scaled by
# PROBE_REF_S over the local probe time (the median of the PROBE_WINDOW probe
# runs around the one nearest to it), i.e. to a machine on which the probe
# takes PROBE_REF_S, about its time on a quiet 2-core box.  The kernel mixes
# the kinds of work the program does, so that it slows down with them.
PROBE_EVERY = 0.1
PROBE_WINDOW = 5
PROBE_REF_S = 1.6e-3
ZERO_EIG = 1e-8
EDGE_TOL = 1e-9

END_TO_END = (
    ("setup_s", "s"),
    ("extract_graphs_per_s", "graphs/s"),
    ("train_steps_per_s", "graph-steps/s"),
    ("eval_graphs_per_s", "graphs/s"),
    ("pipeline_s", "s"),
    ("accuracy", "fraction"),
    ("stability_topo_trials_per_s", "trials/s"),
    ("stability_spectral_trials_per_s", "trials/s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, span or counter): "self" metrics report a span's self time.
PER_LAYER = (
    ("data.load_dataset_s", "s", "self", "data.load_dataset"),
    ("data.events_parsed", "count", "count", "data.events_parsed"),
    ("temporal.window_sequence_s", "s", "self", "temporal.window_sequence"),
    ("temporal.windows", "count", "count", "temporal.windows"),
    ("temporal.events_scanned", "count", "count", "temporal.events_scanned"),
    ("temporal.features_s", "s", "self", "temporal.features"),
    ("topology.clique_complex_s", "s", "self", "topology.clique_complex"),
    ("topology.triangles", "count", "count", "topology.triangles"),
    ("topology.betti0_s", "s", "self", "topology.betti0"),
    ("topology.betti1_s", "s", "self", "topology.betti1"),
    ("topology.boundary_entries", "count", "count", "topology.boundary_entries"),
    ("topology.max_betti1", "count", "count", "topology.max_betti1"),
    ("topology.persistence_s", "s", "self", "topology.persistence"),
    ("spectral.laplacian_s", "s", "self", "spectral.laplacian"),
    ("spectral.eigensolve_s", "s", "self", "spectral.eigensolve"),
    ("spectral.eigensolve_calls", "count", "calls", "spectral.eigensolve"),
    ("spectral.eigensolve_n3", "count", "count", "spectral.eigensolve_n3"),
    ("spectral.histogram_s", "s", "self", "spectral.histogram"),
    ("spectral.empty_windows", "count", "count", "spectral.empty_windows"),
    ("spectral.bin_edge_eigs", "count", "count", "spectral.bin_edge_eigs"),
    ("model.forward.structural_s", "s", "self", "model.forward.structural"),
    ("model.forward.topological_s", "s", "self", "model.forward.topological"),
    ("model.forward.spectral_s", "s", "self", "model.forward.spectral"),
    ("model.forward.fusion_s", "s", "self", "model.forward.fusion"),
    ("model.forward.train_s", "s", "total", "model.forward.train"),
    ("model.forward.eval_s", "s", "total", "model.forward.eval"),
    ("autodiff.backward_s", "s", "self", "autodiff.backward"),
    ("optim.adam_step_s", "s", "self", "optim.adam_step"),
    ("optim.param_tensors", "count", "count", "optim.param_tensors"),
    ("optim.params", "count", "count", "optim.params"),
    ("pipeline.extract_s", "s", "self", "pipeline.extract"),
    ("pipeline.train_s", "s", "self", "pipeline.train"),
    ("pipeline.evaluate_s", "s", "self", "pipeline.evaluate"),
    ("pipeline.kfold_cv_s", "s", "self", "pipeline.kfold_cv"),
    ("stability.perturb_edges_s", "s", "self", "stability.perturb_edges"),
    ("stability.perturb_timestamps_s", "s", "self", "stability.perturb_timestamps"),
    ("stability.run_campaign_s", "s", "self", "stability.run_campaign"),
    ("stability.trials", "count", "count", "stability.trials"),
)
# Metrics derived from several spans or counters, in addition to the above.
DERIVED_LAYER = (
    ("model.forward_s", "s"),
    ("autodiff.tape_nodes", "count"),
    ("topology.gf2_pivot_ratio", "ratio"),
    ("spectral.oracle_bin_mismatch", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Program:
    """The modules of the package under test, imported from ``src/``."""

    MODULES = ("data", "pipeline", "stability", "temporal", "topology", "spectral",
               "model", "autodiff", "optim")

    def __init__(self):
        if not (SRC / "tgtopo" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no tgtopo package under {SRC}")
        sys.path.insert(0, str(SRC))
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"tgtopo.{name}"))


def settings(workload, seconds):
    """Workload sizes for a run of ``seconds``; see NOMINAL_SECONDS."""
    w = WORKLOADS[workload]
    scale = seconds / NOMINAL_SECONDS
    spec, config = dict(w["spec"]), dict(w["config"])
    spec["num_graphs"] = max(w["min_graphs"], round(spec["num_graphs"] * scale))
    config["epochs"] = max(1, round(config["epochs"] * scale))
    return {
        "spec": spec,
        "config": config,
        "cv": w["cv"],
        "campaigns": tuple((m, k, max(30, round(n * scale))) for m, k, n in CAMPAIGNS),
        "rounds": max(2, round(ROUNDS * scale)),
        "round_graphs": w["round_graphs"],
    }


_PROBE_MATS = [np.random.default_rng(i).random((30, 30)) for i in range(4)]


class Probe:
    """Times a fixed kernel between units of work, on a clock that stands
    still while the kernel runs, so that probing never enters a unit's time."""

    def __init__(self):
        self.paused = 0.0
        self.last = 0.0
        self.samples = []  # (clock time, seconds)

    def now(self):
        return time.perf_counter() - self.paused

    def maybe(self, force=False):
        if not force and self.now() - self.last < PROBE_EVERY:
            return
        t0 = time.perf_counter()
        total = 0
        for i in range(6000):  # pure interpreter work, like the autodiff tape
            total += i * i % 7
        for m in _PROBE_MATS:  # small dense LAPACK calls
            total += int(np.linalg.eigvalsh(m @ m.T)[0] > 0)
        a = _PROBE_MATS[0].copy()
        for k in range(20):  # small-array numpy updates, like a Householder step
            x = a[k + 1:, k]
            v = x / (np.linalg.norm(x) + 1.0)
            a[k + 1:, k + 1:] -= 0.01 * np.outer(v, v)
        h = 0.0
        for _ in range(600):  # numpy scalar calls, like the QL sweeps
            h = float(np.hypot(h, 1.0)) * 0.5
        small = {}
        for i in range(300):  # small containers, like the clique complex
            small[(i, i + 1)] = {i}
        t1 = time.perf_counter()
        self.samples.append((t0 - self.paused, t1 - t0))
        self.paused += time.perf_counter() - t0
        self.last = self.now()

    def scale(self, at):
        """PROBE_REF_S over the local probe time at each clock time in ``at``:
        below 1 while the machine runs slower than the reference."""
        t, d = np.array(self.samples).T
        d = np.median(np.lib.stride_tricks.sliding_window_view(
            np.pad(d, PROBE_WINDOW // 2, mode="edge"), PROBE_WINDOW), axis=1)
        i = np.clip(np.searchsorted(t, at), 1, len(t) - 1)
        before = np.abs(np.asarray(at) - t[i - 1]) <= np.abs(t[i] - np.asarray(at))
        return PROBE_REF_S / np.where(before, d[i - 1], d[i])

    def mean_scale(self, since, until):
        """PROBE_REF_S over the mean probe time in a clock interval."""
        times = [d for t, d in self.samples if since <= t <= until]
        return PROBE_REF_S / float(np.mean(times))


# -- output checks --------------------------------------------------------------

def _oracle_windows(graph, delta, sigma):
    """Windows recomputed from the event list: (nodes, deduplicated edges)."""
    ev = np.array([(min(u, v), max(u, v), t) for u, v, t in graph.events])
    t_min, t_max = ev[:, 2].min(), ev[:, 2].max()
    span = t_max - t_min
    count = 1 if span <= delta else int(math.ceil((span - delta) / sigma)) + 1
    out = []
    for i in range(count):
        lo = t_min + i * sigma
        sel = ev[(ev[:, 2] >= lo) & (ev[:, 2] <= lo + delta)]
        pairs = np.unique(sel[:, :2].astype(np.int64), axis=0).reshape(-1, 2)
        out.append((np.unique(pairs), pairs))
    return out


def _laplacian_eigs(nodes, pairs):
    index = {int(v): i for i, v in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    for u, v in pairs:
        a[index[int(u)], index[int(v)]] = a[index[int(v)], index[int(u)]] = 1.0
    inv = 1.0 / np.sqrt(a.sum(axis=1))
    return np.linalg.eigvalsh(np.eye(len(nodes)) - inv[:, None] * a * inv[None, :])


def check_graph(graph, gf, delta, sigma, bins):
    """Check one graph's extracted descriptors.

    Returns (ok, windows whose histogram differs from the one binned from
    ``numpy.linalg.eigvalsh`` eigenvalues).  Every nonempty window must have
    Laplacian eigenvalues in [0, 2] summing to its node count, a zero-eigenvalue
    count equal to its beta_0, DoS mass summing to 1, 0 <= beta_1 <= e - v +
    beta_0, and a histogram that matches the oracle except where an
    eigenvalue lies within 1e-9 of an interior bin edge.
    """
    windows = _oracle_windows(graph, delta, sigma)
    phi, psi, empty = gf.phi, gf.psi, gf.psi_empty
    ok = (gf.label == graph.label and phi.shape == (len(windows), 4)
          and psi.shape == (len(windows), bins) and empty.shape == (len(windows),))
    if not ok:
        return False, 0
    edges = 2.0 * np.arange(1, bins) / bins
    mismatch = 0
    for (nodes, pairs), row, mass, is_empty in zip(windows, phi, psi, empty):
        v, e = len(nodes), len(pairs)
        if v == 0:
            ok &= bool(is_empty) and not row.any() and not mass.any()
            continue
        eigs = _laplacian_eigs(nodes, pairs)
        b0 = int((np.abs(eigs) < ZERO_EIG).sum())
        ok &= bool(eigs.min() >= -ZERO_EIG and eigs.max() <= 2.0 + ZERO_EIG)
        ok &= abs(eigs.sum() - v) <= ZERO_EIG * v
        ok &= (not is_empty and row[0] == v and row[1] == e and row[2] == b0
               and 0 <= row[3] <= e - v + b0)
        ok &= abs(mass.sum() - 1.0) <= 1e-12
        below = np.cumsum(np.rint(mass * v))[:-1]
        ok &= bool(np.all((eigs[:, None] < edges - EDGE_TOL).sum(axis=0) <= below)
                   and np.all(below <= (eigs[:, None] < edges + EDGE_TOL).sum(axis=0)))
        idx = np.minimum((np.clip(eigs, 0.0, 2.0) / (2.0 / bins)).astype(int), bins - 1)
        mismatch += not np.array_equal(np.bincount(idx, minlength=bins) / v, mass)
    return bool(ok), mismatch


def check_fold(accuracy, losses, epochs):
    return (math.isfinite(accuracy) and 0.0 <= accuracy <= 1.0
            and len(losses) == epochs and all(math.isfinite(x) for x in losses))


def check_trial(mode, magnitude, distance):
    """Edge trials must satisfy W1 <= 4k/n; timestamp trials must be finite."""
    if not (math.isfinite(magnitude) and math.isfinite(distance) and distance >= 0):
        return False
    if mode == "edge":
        return distance <= 4.0 * magnitude + 1e-12
    return magnitude > 0


def descriptor_digest(features):
    h = hashlib.sha256()
    for gf in features:
        for arr in (gf.phi, gf.psi, gf.psi_empty):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# -- one run --------------------------------------------------------------------

class Run:
    """Counts operations and collects per-unit times across one run."""

    def __init__(self, prog, workload, seed, seconds):
        self.prog = prog
        self.seed = seed
        self.w = settings(workload, seconds)
        self.attempted = 0
        self.failed = 0
        self.units = defaultdict(list)  # metric -> (clock time, seconds) per unit
        self.pipeline = None  # (clock start, clock end, pipeline_s, accuracy)
        self.trial_times = []  # per stability pass, per campaign: trial seconds
        self.trial_starts = []  # the same, the clock time each trial started
        self.fingerprint = {}
        self.oracle_mismatch = 0
        self.model = None
        self.features = None
        self.probe = Probe()

    def record(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def agree(self, key, digest):
        """Every pass must reproduce the first pass's outputs byte for byte."""
        return self.fingerprint.setdefault(key, digest) == digest

    # set-up ------------------------------------------------------------------

    def make_inputs(self):
        WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.data_dir = self.workdir / "data"
        self.inputs = self.prog.data.synth_generate(self.w["spec"], self.seed)
        self.prog.data.save_dataset(self.inputs, self.data_dir)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    def measure_setup(self, reps):
        """Import tgtopo and load the dataset, each time in a fresh interpreter."""
        code = ("import sys, time\nt = time.perf_counter()\nimport tgtopo\n"
                "tgtopo.load_dataset(sys.argv[1])\nprint(time.perf_counter() - t)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        for _ in range(reps):
            self.probe.maybe(force=True)
            t0 = self.probe.now()
            out = subprocess.run([sys.executable, "-c", code, str(self.data_dir)],
                                 env=env, cwd=ROOT, capture_output=True, text=True,
                                 timeout=120, check=True)
            self.units["setup_s"].append((t0, float(out.stdout.strip().splitlines()[-1])))

    # pipeline ----------------------------------------------------------------

    def clock(self, tracer):
        """Time stamps per graph extracted, graph-step trained and trial run.

        A graph's extraction starts with its window_sequence call, a
        graph-step ends with Adam.step and a trial starts with its trial
        function.  Each stamp costs microseconds against milliseconds of work.
        """
        prog, stamps, probe = self.prog, defaultdict(list), self.probe

        def on_train(result, args, kwargs, seconds):
            steps = stamps["step"][-len(args[0]) * args[2].epochs:]
            self.units["train_steps_per_s"] += zip(steps, np.diff(steps).tolist())
            self.model = result[0]

        def started(key):
            def hook(result, args, kwargs, seconds):
                stamps[key].append(probe.now() - seconds)
                probe.maybe()
            return hook

        def on_step(result, args, kwargs, seconds):
            stamps["step"].append(probe.now())
            probe.maybe()

        tracer.wrap(prog.pipeline, "train", "pipeline.train", on_train)
        tracer.wrap(prog.temporal, "window_sequence", "temporal.window_sequence",
                    started("graph"))
        tracer.wrap(prog.optim.Adam, "step", "optim.adam_step", on_step)
        for name in ("topo_stability_trial", "spectral_stability_trial"):
            tracer.wrap(prog.stability, name, "stability.trial", started("trial"))
        return stamps

    def pipeline_pass(self, stamps=None):
        """Load -> extract -> (k-fold CV | stratified split) -> accuracy.

        Returns pipeline_s, or None if the pass raised.  With ``stamps``
        from clock(), records the time of each graph extracted.
        """
        prog, w = self.prog, self.w
        cfg = self.cfg = prog.pipeline.RunConfig(seed=self.seed, **w["config"])
        n, folds = w["spec"]["num_graphs"], cfg.folds if w["cv"] else 1
        first = len(stamps["graph"]) if stamps is not None else 0
        clock = self.probe.now
        t0 = clock()
        try:
            ds = self.dataset = prog.data.load_dataset(self.data_dir)
            feats = prog.pipeline.extract_descriptors(ds, cfg)
            t2 = clock()
        except Exception:
            traceback.print_exc()
            self.record(n + folds, n + folds)
            return None
        bad = mismatch = 0
        for g, gf in zip(self.inputs.graphs, feats):
            ok, m = check_graph(g, gf, cfg.delta, cfg.sigma, cfg.dos_bins)
            bad += not ok
            mismatch += m
        if len(feats) != n or not self.agree("descriptors", descriptor_digest(feats)):
            bad = n
        self.record(n, bad)
        self.oracle_mismatch = mismatch
        t3 = clock()
        try:
            if w["cv"]:
                metrics, _ = prog.pipeline.kfold_cv(ds, cfg, features=feats)
            else:
                split = prog.pipeline.stratified_folds(
                    [gf.label for gf in feats], 5, cfg.seed)
                test = set(split[0].tolist())
                model, fit = prog.pipeline.train(
                    [gf for i, gf in enumerate(feats) if i not in test],
                    ds.num_classes, cfg)
                held, _, _ = prog.pipeline.evaluate(
                    model, [feats[i] for i in sorted(test)], ds.name)
                metrics = prog.pipeline.Metrics(fold_accuracies=held.fold_accuracies,
                                                loss_history=[fit.loss_history])
            t4 = clock()
        except Exception:
            traceback.print_exc()
            self.record(folds, folds)
            return None
        csv = prog.pipeline.metrics_csv(metrics, cfg)
        fold_ok = [check_fold(a, l, cfg.epochs)
                   for a, l in zip(metrics.fold_accuracies, metrics.loss_history)]
        if len(fold_ok) != folds or not self.agree(
                "metrics_csv", hashlib.sha256(csv.encode()).hexdigest()):
            fold_ok = [False] * folds
        self.record(folds, fold_ok.count(False))
        self.features = feats
        pipeline_s = (t2 - t0) + (t4 - t3)  # the output checks are not the program's
        if stamps is not None:
            self.pipeline = (t0, t4, pipeline_s, metrics.accuracy_mean)
            starts = stamps["graph"][first:] + [t2]
            self.units["extract_graphs_per_s"] += zip(starts, np.diff(starts).tolist())
        return pipeline_s

    def round(self, index):
        """One slice of every measurement after the pipeline pass."""
        prog, feats, model, clock = self.prog, self.features, self.model, self.probe.now
        self.measure_setup(SETUP_PER_ROUND)
        k = self.w["round_graphs"]
        for i in range(index * k, (index + 1) * k):
            i %= len(feats)
            one = prog.data.Dataset(self.dataset.name, (self.dataset.graphs[i],),
                                    self.dataset.num_classes)
            self.probe.maybe(force=True)
            t0 = clock()
            try:
                again = prog.pipeline.extract_descriptors(one, self.cfg)[0]
            except Exception:
                traceback.print_exc()
                self.record(1, 1)
                continue
            self.units["extract_graphs_per_s"].append((t0, clock() - t0))
            self.record(1, not all(np.array_equal(getattr(again, a), getattr(feats[i], a))
                                   for a in ("phi", "psi", "psi_empty")))
        one_epoch = prog.pipeline.RunConfig(**{**self.cfg.__dict__, "epochs": 1})
        prog.pipeline.train(feats[:ROUND_TRAIN], self.dataset.num_classes, one_epoch)
        for gf in feats:
            self.probe.maybe(force=True)
            t0 = clock()
            prog.pipeline.evaluate(model, [gf])
            self.units["eval_graphs_per_s"].append((t0, clock() - t0))

    # stability ---------------------------------------------------------------

    def stability_pass(self, stamps=None):
        """All campaigns once.  With ``stamps`` from clock(), records the time
        of each trial: from its start to the next trial's start."""
        st = self.prog.stability
        reports, times, started = [], [], []
        attempted = failed = 0
        for i, (mode, magnitude, trials) in enumerate(self.w["campaigns"]):
            spec = st.PerturbationSpec(mode, magnitude, trials, self.seed * 10 + i)
            attempted += trials
            first = len(stamps["trial"]) if stamps is not None else 0
            try:
                report = st.run_campaign(spec)
            except Exception:
                traceback.print_exc()
                failed += trials
                continue
            if stamps is not None:
                started.append(stamps["trial"][first:])
                times.append(np.diff(started[-1] + [self.probe.now()]))
            bad = sum(not check_trial(mode, m, d) for m, d in report.trials)
            failed += min(trials, bad + trials - len(report.trials))
            reports.append(report)
        digest = hashlib.sha256(st.campaign_csv(reports).encode()).hexdigest()
        if not self.agree("campaign_csv", digest):
            failed = attempted
        self.record(attempted, failed)
        if stamps is not None and len(times) == len(self.w["campaigns"]):
            self.trial_times.append(times)
            self.trial_starts.append(started)

    def stability_rates(self, scaled):
        """Trials per second, each trial at its median time over the rounds."""
        out = {}
        for mode, key in (("timestamp", "stability_topo_trials_per_s"),
                          ("edge", "stability_spectral_trials_per_s")):
            trials = seconds = 0.0
            for i, c in enumerate(self.w["campaigns"]):
                if c[0] != mode:
                    continue
                rounds = [times[i] * (self.probe.scale(starts[i]) if scaled else 1.0)
                          for times, starts in zip(self.trial_times, self.trial_starts)]
                trials += len(rounds[0])
                seconds += float(np.median(rounds, axis=0).sum())
            out[key] = trials / seconds
        return out


# -- layer tracing --------------------------------------------------------------

def _components(vertices, edges):
    parent = list(range(vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = vertices
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            comps -= 1
    return comps


def wrap_layers(prog, t):
    """Span every public function or method at a module boundary."""

    def count(counter, measure):
        return lambda r, a, k, s: t.add(counter, measure(r, a))

    def on_windows(r, a, k, s):
        t.add("temporal.windows", len(r))
        t.add("temporal.events_scanned", len(r) * a[0].num_events)

    def on_betti1(r, a, k, s):
        cx = a[0]
        t.peak("topology.max_betti1", r)
        if cx.triangles:  # betti1 builds and reduces the boundary only then
            e = len(cx.edges)
            t.add("topology.boundary_entries", e * len(cx.triangles))
            t.add("topology.gf2_rows", e)
            t.add("topology.gf2_rank", e - cx.vertices + _components(cx.vertices, cx.edges) - r)

    def on_histogram(r, a, k, s):
        bins = a[1] if len(a) > 1 else k.get("bin_count", 4)
        eigs = np.asarray(list(a[0]), dtype=np.float64)
        edges = 2.0 * np.arange(1, bins) / bins
        t.add("spectral.bin_edge_eigs",
              int((np.abs(eigs[:, None] - edges) < EDGE_TOL).any(axis=1).sum()))

    def on_backward(r, a, k, s):
        seen, stack = set(), [a[0]]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        t.add("autodiff.tape_nodes", len(seen))

    def on_adam(r, a, k, s):
        params = a[0].params
        t.peak("optim.param_tensors", len(params))
        t.peak("optim.params", sum(p.data.size for p in params.values()))

    def forward_name(a, k):
        train = k.get("train", a[6] if len(a) > 6 else False)
        return "model.forward.train" if train else "model.forward.eval"

    def encoder_name(a, k):
        return "model.forward.topological" if a[0].prefix == "topo_tf" else "model.forward.spectral"

    d, p, st, tm, to, sp, m = (prog.data, prog.pipeline, prog.stability, prog.temporal,
                               prog.topology, prog.spectral, prog.model)
    t.wrap(d, "load_dataset", "data.load_dataset",
           count("data.events_parsed", lambda r, a: sum(g.num_events for g in r.graphs)))
    t.wrap(tm, "window_sequence", "temporal.window_sequence", on_windows)
    t.wrap(tm, "temporal_degree", "temporal.features")
    t.wrap(tm, "static_projection", "temporal.features")
    t.wrap(m, "mean_aggregation_matrix", "temporal.features")
    t.wrap(to, "clique_complex", "topology.clique_complex",
           count("topology.triangles", lambda r, a: len(r.triangles)))
    t.wrap(to, "betti0", "topology.betti0")
    t.wrap(to, "betti1", "topology.betti1", on_betti1)
    t.wrap(to, "sublevel_persistence0", "topology.persistence")
    t.wrap(to, "betti_curve", "topology.persistence")
    t.wrap(sp, "normalized_laplacian", "spectral.laplacian")
    t.wrap(sp, "eigenvalues_sym", "spectral.eigensolve",
           count("spectral.eigensolve_n3", lambda r, a: a[0].order ** 3))
    t.wrap(sp, "dos_histogram", "spectral.histogram", on_histogram)
    t.wrap(sp, "spectral_descriptor", "spectral.descriptor",
           count("spectral.empty_windows", lambda r, a: int(r.empty)))
    t.wrap(m.TemporalGraphClassifier, "forward", forward_name)
    t.wrap(m.TemporalGraphClassifier, "_structural_view", "model.forward.structural")
    t.wrap(m.TransformerEncoder, "forward", encoder_name)
    t.wrap(m, "fusion_attention", "model.forward.fusion")
    t.wrap(prog.autodiff.Tensor, "backward", "autodiff.backward", on_backward)
    t.wrap(prog.optim.Adam, "step", "optim.adam_step", on_adam)
    t.wrap(p, "extract_descriptors", "pipeline.extract")
    t.wrap(p, "evaluate", "pipeline.evaluate")
    t.wrap(p, "kfold_cv", "pipeline.kfold_cv")
    t.wrap(st, "perturb_edges", "stability.perturb_edges")
    t.wrap(st, "perturb_timestamps", "stability.perturb_timestamps")
    t.wrap(st, "run_campaign", "stability.run_campaign",
           count("stability.trials", lambda r, a: len(r.trials)))


def layer_metrics(t, oracle_mismatch, overhead_ratio):
    out = {}
    for metric, unit, kind, key in PER_LAYER:
        source = {"self": t.self_s, "total": t.total_s, "calls": t.calls,
                  "count": t.counts}[kind]
        out[metric] = (source.get(key, 0), unit)
    backward_calls = t.calls.get("autodiff.backward", 0)
    rows = t.counts.get("topology.gf2_rows", 0)
    derived = {
        "model.forward_s": t.self_s.get("model.forward.train", 0.0)
        + t.self_s.get("model.forward.eval", 0.0),
        "autodiff.tape_nodes": t.counts.get("autodiff.tape_nodes", 0) / backward_calls
        if backward_calls else 0,
        "topology.gf2_pivot_ratio": t.counts.get("topology.gf2_rank", 0) / rows if rows else 0,
        "spectral.oracle_bin_mismatch": oracle_mismatch,
        "trace.overhead_ratio": overhead_ratio,
    }
    for metric, unit in DERIVED_LAYER:
        out[metric] = (derived[metric], unit)
    return out


# -- the whole run ----------------------------------------------------------------

def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result dict, info dict)."""
    prog = Program()
    run = Run(prog, workload, seed, seconds)
    raw = {}
    run.make_inputs()
    try:
        if trace:
            # Untraced passes on both sides of the traced one, so that drift
            # of the machine's speed and warm-up do not read as overhead.
            before = run.pipeline_pass()
            with Tracer() as tracer:
                wrap_layers(prog, tracer)
                traced = run.pipeline_pass()
                run.stability_pass()
            after = run.pipeline_pass()
            ratio = 2 * traced / (before + after) if traced and before and after else 0.0
            metrics = layer_metrics(tracer, run.oracle_mismatch, ratio)
        else:
            with Tracer() as clock:
                stamps = run.clock(clock)
                run.pipeline_pass(stamps)
                if run.model is not None:
                    for index in range(run.w["rounds"]):
                        run.round(index)
                        run.stability_pass(stamps)
            metrics, raw = end_to_end_metrics(run)
    finally:
        run.cleanup()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "failed_ops_frac": run.failed / run.attempted if run.attempted else 1.0,
        "fingerprint": run.fingerprint,
        "units_timed": {k: len(v) for k, v in run.units.items()},
        "environment": environment(),
        "unscaled": raw,
        "probes": len(run.probe.samples),
    }
    return result, info


def end_to_end_metrics(run):
    """Each time is a median over units of work, every unit's time scaled by
    the local probe time (see PROBE_REF_S).

    Returns (metrics, the same metrics unscaled)."""
    probe = run.probe
    start, end, pipeline_s, accuracy = run.pipeline
    out = []
    for scaled in (True, False):
        v = {}
        for name, units in run.units.items():
            at, seconds = np.array(units).T
            v[name] = float(np.median(seconds * (probe.scale(at) if scaled else 1.0)))
            if name.endswith("_per_s"):
                v[name] = 1.0 / v[name]
        v.update(run.stability_rates(scaled))
        v["pipeline_s"] = pipeline_s * (probe.mean_scale(start, end) if scaled else 1.0)
        v["accuracy"] = accuracy
        v["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        missing = [name for name, _ in END_TO_END if name not in v]
        if missing:
            raise RuntimeError(f"no measurement for {missing}")
        out.append({name: (v[name], unit) for name, unit in END_TO_END})
    return out[0], {name: value for name, (value, _) in out[1].items()}
