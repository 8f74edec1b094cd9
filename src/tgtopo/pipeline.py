"""Descriptor extraction, training, cross-validation, and reports."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import spectral, topology
from .autodiff import NonFiniteValueError, cross_entropy_with_logits
from .data import Dataset
from .model import (
    ModelConfig,
    TemporalGraphClassifier,
    mean_aggregation_matrix,
    VIEW_NAMES,
)
from .optim import Adam
from .temporal import (
    WindowSpec,
    static_projection,
    temporal_degree,
    window_sequence,
)


class PipelineError(ValueError):
    pass


class TooFewGraphsError(PipelineError):
    pass


class NonFiniteLossError(RuntimeError):
    pass


@dataclass
class RunConfig:
    delta: float = 6.0
    sigma: float = 4.0
    dos_bins: int = 4
    sage_layers: int = 2
    hidden_dim: int = 32
    lr: float = 0.005
    dropout: float = 0.0
    weight_decay: float = 1e-4
    epochs: int = 30
    seed: int = 0
    folds: int = 5
    feature_mode: str = "temporal_degree"  # temporal_degree | binary | provided
    mode: str = "full"
    count_edge_multiplicity: bool = False

    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.delta, self.sigma)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """Line-oriented ``key = value`` config."""
        cfg = cls()
        casts = {f: type(getattr(cfg, f)) for f in cfg.__dict__}
        with open(path) as fh:
            for i, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise PipelineError(f"{path}:{i}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in casts:
                    raise PipelineError(f"{path}:{i}: unknown key {key!r}")
                cast = casts[key]
                if cast is bool:
                    setattr(cfg, key, value.lower() in ("1", "true", "yes"))
                    continue
                try:
                    setattr(cfg, key, cast(value))
                except ValueError as exc:
                    raise PipelineError(f"{path}:{i}: {key}: {exc}") from exc
        return cfg


@dataclass(frozen=True)
class GraphFeatures:
    """Extracted inputs for one graph: descriptor token streams plus the
    structural branch's static features."""

    label: int
    phi: np.ndarray  # N x 4
    psi: np.ndarray  # N x dos_bins
    psi_empty: np.ndarray  # N bools
    features: np.ndarray  # n x T temporal-degree matrix
    agg: np.ndarray  # n x n neighbor-mean matrix


@dataclass
class Metrics:
    fold_accuracies: list = field(default_factory=list)
    loss_history: list = field(default_factory=list)
    wall_clock: dict = field(default_factory=dict)

    @property
    def accuracy_mean(self) -> float:
        return float(np.mean(self.fold_accuracies)) if self.fold_accuracies else float("nan")

    @property
    def accuracy_std(self) -> float:
        return float(np.std(self.fold_accuracies)) if self.fold_accuracies else float("nan")


@dataclass
class AttentionReport:
    dataset: str
    structural: float
    topological: float
    spectral: float

    def row(self) -> str:
        return f"{self.dataset},{self.structural!r},{self.topological!r},{self.spectral!r}"


def extract_descriptors(dataset: Dataset, config: RunConfig) -> list:
    """Per-graph descriptor streams and static features.

    The temporal-degree grid is the dataset-wide sorted union of distinct
    timestamps so that the structural branch sees a fixed feature width.
    """
    grid = sorted({t for g in dataset.graphs for _, _, t in g.events})
    binary = config.feature_mode == "binary"
    out = []
    for g in dataset.graphs:
        windows = window_sequence(g, config.window_spec())
        phi = np.array(
            [
                topology.topo_descriptor(
                    w, count_edge_multiplicity=config.count_edge_multiplicity
                ).as_list()
                for w in windows
            ],
            dtype=np.float64,
        )
        hists = [spectral.spectral_descriptor(w, config.dos_bins) for w in windows]
        psi = np.array([h.mass for h in hists], dtype=np.float64)
        psi_empty = np.array([h.empty for h in hists])
        feats = temporal_degree(g, grid, binary=binary)
        agg = mean_aggregation_matrix(static_projection(g))
        out.append(GraphFeatures(g.label, phi, psi, psi_empty, feats, agg))
    return out


# -- descriptor caching -------------------------------------------------------

def save_descriptors(features: list, directory):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "topo.csv"), "w") as fh:
        fh.write("graph_id,window_index,v,e,b0,b1\n")
        for gid, gf in enumerate(features):
            for wi, row in enumerate(gf.phi):
                fh.write(f"{gid},{wi},{int(row[0])},{int(row[1])},{int(row[2])},{int(row[3])}\n")
    bins = features[0].psi.shape[1] if features else 0
    cols = ",".join(f"dos_{j}" for j in range(bins))
    with open(os.path.join(directory, "dos.csv"), "w") as fh:
        fh.write(f"graph_id,window_index,{cols},empty_flag\n")
        for gid, gf in enumerate(features):
            for wi in range(gf.psi.shape[0]):
                vals = ",".join(repr(float(x)) for x in gf.psi[wi])
                fh.write(f"{gid},{wi},{vals},{int(gf.psi_empty[wi])}\n")
    np.savez(
        os.path.join(directory, "inputs.npz"),
        labels=np.array([gf.label for gf in features]),
        **{f"feat_{i}": gf.features for i, gf in enumerate(features)},
        **{f"agg_{i}": gf.agg for i, gf in enumerate(features)},
    )


def load_descriptors(directory) -> list:
    phi_rows = {}
    with open(os.path.join(directory, "topo.csv")) as fh:
        next(fh)
        for line in fh:
            gid, wi, v, e, b0, b1 = line.split(",")
            phi_rows.setdefault(int(gid), []).append(
                [float(v), float(e), float(b0), float(b1)]
            )
    psi_rows = {}
    empty_rows = {}
    with open(os.path.join(directory, "dos.csv")) as fh:
        next(fh)
        for line in fh:
            parts = line.strip().split(",")
            gid = int(parts[0])
            psi_rows.setdefault(gid, []).append([float(x) for x in parts[2:-1]])
            empty_rows.setdefault(gid, []).append(bool(int(parts[-1])))
    npz = np.load(os.path.join(directory, "inputs.npz"))
    labels = npz["labels"]
    out = []
    for gid in range(len(labels)):
        out.append(
            GraphFeatures(
                label=int(labels[gid]),
                phi=np.array(phi_rows[gid]),
                psi=np.array(psi_rows[gid]),
                psi_empty=np.array(empty_rows[gid]),
                features=npz[f"feat_{gid}"],
                agg=npz[f"agg_{gid}"],
            )
        )
    return out


# -- training -----------------------------------------------------------------

def _model_config(features, num_classes, config: RunConfig) -> ModelConfig:
    return ModelConfig(
        num_classes=num_classes,
        topo_dim=features[0].phi.shape[1],
        dos_bins=features[0].psi.shape[1],
        feature_dim=features[0].features.shape[1],
        hidden_dim=config.hidden_dim,
        sage_layers=config.sage_layers,
        dropout=config.dropout,
        mode=config.mode,
    )


def train(features: list, num_classes: int, config: RunConfig):
    """Per-graph stochastic updates in a seeded shuffled order.

    Returns (model, Metrics with per-epoch mean loss history).
    """
    model = TemporalGraphClassifier(_model_config(features, num_classes, config),
                                    seed=config.seed)
    opt = Adam(model.parameters, lr=config.lr, weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed + 1)
    metrics = Metrics()
    start = time.perf_counter()
    for epoch in range(config.epochs):
        order = rng.permutation(len(features))
        losses = []
        for idx in order:
            gf = features[idx]
            opt.zero_grad()
            logits, _ = model.forward(gf.phi, gf.psi, gf.features, gf.agg,
                                      rng=rng, train=True)
            try:
                loss = cross_entropy_with_logits(logits, gf.label)
            except NonFiniteValueError as exc:
                raise NonFiniteLossError(
                    f"non-finite loss at epoch {epoch}, graph {idx}"
                ) from exc
            if not np.isfinite(loss.data):
                raise NonFiniteLossError(f"non-finite loss at epoch {epoch}, graph {idx}")
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        metrics.loss_history.append(float(np.mean(losses)))
    metrics.wall_clock["train"] = time.perf_counter() - start
    return model, metrics


def evaluate(model, features: list, dataset_name="dataset"):
    """Accuracy, mean per-view attention mass, and fused embeddings."""
    correct = 0
    weights = np.zeros(3)
    embeddings = []
    start = time.perf_counter()
    for gf in features:
        logits, fusion = model.forward(gf.phi, gf.psi, gf.features, gf.agg, train=False)
        if int(np.argmax(logits.data)) == gf.label:
            correct += 1
        weights += fusion.view_weights
        embeddings.append(fusion.fused)
    n = len(features)
    weights /= max(n, 1)
    metrics = Metrics(fold_accuracies=[correct / max(n, 1)])
    metrics.wall_clock["eval"] = time.perf_counter() - start
    report = AttentionReport(dataset_name, *[float(w) for w in weights])
    return metrics, report, np.array(embeddings)


def stratified_folds(labels, folds: int, seed: int) -> list:
    """Seeded stratified partition: list of index arrays, one per fold."""
    labels = np.asarray(labels)
    if folds < 2:
        raise PipelineError("need at least 2 folds")
    if len(labels) < folds:
        raise TooFewGraphsError(f"{len(labels)} graphs < {folds} folds")
    rng = np.random.default_rng(seed)
    assignments = [[] for _ in range(folds)]
    for cls in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            assignments[j % folds].append(int(i))
    return [np.array(sorted(fold)) for fold in assignments]


def kfold_cv(dataset: Dataset, config: RunConfig, features=None):
    """Stratified k-fold cross-validation; returns (Metrics, AttentionReport)."""
    start = time.perf_counter()
    if features is None:
        features = extract_descriptors(dataset, config)
    folds = stratified_folds([gf.label for gf in features], config.folds, config.seed)
    metrics = Metrics()
    weight_totals = np.zeros(3)
    for k, test_idx in enumerate(folds):
        test_set = set(test_idx.tolist())
        train_feats = [gf for i, gf in enumerate(features) if i not in test_set]
        test_feats = [features[i] for i in test_idx]
        fold_cfg = RunConfig(**{**config.__dict__, "seed": config.seed + k})
        model, fold_metrics = train(train_feats, dataset.num_classes, fold_cfg)
        eval_metrics, report, _ = evaluate(model, test_feats, dataset.name)
        metrics.fold_accuracies.append(eval_metrics.fold_accuracies[0])
        metrics.loss_history.append(fold_metrics.loss_history)
        weight_totals += np.array([report.structural, report.topological, report.spectral])
    weight_totals /= len(folds)
    metrics.wall_clock["cv"] = time.perf_counter() - start
    report = AttentionReport(dataset.name, *[float(w) for w in weight_totals])
    return metrics, report


def metrics_csv(metrics: Metrics, config: RunConfig) -> str:
    """Deterministic CSV rendering of CV metrics (repr floats, no timing)."""
    lines = ["field,value"]
    for i, acc in enumerate(metrics.fold_accuracies):
        lines.append(f"fold_{i}_accuracy,{acc!r}")
    lines.append(f"accuracy_mean,{metrics.accuracy_mean!r}")
    lines.append(f"accuracy_std,{metrics.accuracy_std!r}")
    for i, hist in enumerate(metrics.loss_history):
        if isinstance(hist, list):
            lines.append(f"fold_{i}_final_loss,{hist[-1]!r}")
    lines.append(f"seed,{config.seed}")
    lines.append(f"mode,{config.mode}")
    return "\n".join(lines) + "\n"


def attention_csv(reports) -> str:
    lines = ["dataset,structural,topo,dos"]
    for r in reports:
        lines.append(r.row())
    return "\n".join(lines) + "\n"


def embeddings_csv(embeddings, labels) -> str:
    dim = embeddings.shape[1] if len(embeddings) else 0
    header = "graph_id,label," + ",".join(f"z_{j}" for j in range(dim))
    lines = [header]
    for i, (row, label) in enumerate(zip(embeddings, labels)):
        lines.append(f"{i},{label}," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def sweep_windows(dataset: Dataset, delta_list, sigma_list, config: RunConfig) -> str:
    """Mean CV accuracy per (delta, sigma); invalid pairs emitted as NaN."""
    lines = ["delta,sigma,accuracy_mean,accuracy_std"]
    for delta in delta_list:
        for sigma in sigma_list:
            if not 0 < sigma < delta:
                lines.append(f"{delta!r},{sigma!r},nan,nan")
                continue
            cfg = RunConfig(**{**config.__dict__, "delta": float(delta),
                               "sigma": float(sigma)})
            metrics, _ = kfold_cv(dataset, cfg)
            lines.append(
                f"{delta!r},{sigma!r},{metrics.accuracy_mean!r},{metrics.accuracy_std!r}"
            )
    return "\n".join(lines) + "\n"
