"""Descriptor extraction, training, cross-validation, and reports."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import spectral, temporal, topology
from .autodiff import NonFiniteValueError
from .data import Dataset
from .errors import InputError, NumericalError
from .model import (
    MODES,
    ModelConfig,
    TemporalGraphClassifier,
    _aggregation,
)
from .optim import Adam
from .temporal import (
    WindowSpec,
    stack_windows,
    temporal_degree,
    window_count,
    window_sequence,
)


class PipelineError(InputError):
    pass


class NonFiniteLossError(NumericalError, RuntimeError):
    pass


FEATURE_MODES = ("temporal_degree", "binary")
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


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
    feature_mode: str = "temporal_degree"  # temporal_degree | binary
    mode: str = "full"
    count_edge_multiplicity: bool = False

    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.delta, self.sigma)

    def validate(self):
        """Raise PipelineError for the first value outside its range.

        delta and sigma are checked by ``WindowSpec`` when windows are cut."""
        for key, ok, expected in (
            ("dos_bins", self.dos_bins >= 1, ">= 1"),
            ("sage_layers", self.sage_layers >= 1, ">= 1"),
            ("hidden_dim", self.hidden_dim >= 1, ">= 1"),
            ("lr", 0 < self.lr < np.inf, "finite and > 0"),
            ("dropout", 0 <= self.dropout < 1, "in [0, 1)"),
            ("weight_decay", 0 <= self.weight_decay < np.inf, "finite and >= 0"),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("folds", self.folds >= 2, ">= 2"),
            ("feature_mode", self.feature_mode in FEATURE_MODES,
             f"one of {FEATURE_MODES}"),
            ("mode", self.mode in MODES, f"one of {MODES}"),
        ):
            if not ok:
                raise PipelineError(f"{key} must be {expected}, got {getattr(self, key)!r}")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """Line-oriented ``key = value`` config, checked by ``validate``."""
        cfg = cls()
        casts = {f: type(getattr(cfg, f)) for f in cfg.__dict__}
        with open(path, errors="replace") as fh:  # a bad byte fails as an unknown key or value
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
                try:
                    setattr(cfg, key, _BOOLS[value.lower()] if cast is bool else cast(value))
                except (KeyError, ValueError) as exc:
                    raise PipelineError(f"{path}:{i}: {key}: bad value {value!r}") from exc
        cfg.validate()
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
    """Per-graph descriptor streams and static features; the config is validated first.

    The temporal-degree grid is the dataset-wide sorted union of distinct
    timestamps so that the structural branch sees a fixed feature width.  A
    graph's n x n, n x T and windows x ``dos_bins`` matrices over ``temporal.ENTRY_LIMIT``
    entries are refused first, as is a dataset with no graphs.  The n x n matrix is
    built from the event endpoints.
    """
    config.validate()
    if not dataset.graphs:
        raise PipelineError("no graphs to extract descriptors from")
    grid = np.unique(np.concatenate([g.events[:, 2] for g in dataset.graphs]))
    if (n := max(g.num_nodes for g in dataset.graphs)) * max(n, len(grid)) > temporal.ENTRY_LIMIT:
        raise temporal.TemporalGraphError(f"{n} nodes and {len(grid)} timesteps exceed "
                                          f"{temporal.ENTRY_LIMIT} matrix entries")
    spec, bins = config.window_spec(), config.dos_bins  # W x bins DoS masses and bin counts
    if (w := max(window_count(g, spec) for g in dataset.graphs)) * bins > temporal.ENTRY_LIMIT:
        raise temporal.TemporalGraphError(f"{w} windows of {bins} DoS bins exceed "
                                          f"{temporal.ENTRY_LIMIT} matrix entries")
    binary = config.feature_mode == "binary"
    out = []
    for g in dataset.graphs:
        stack = stack_windows(window_sequence(g, spec))
        phi = topology.topo_descriptors(stack, config.count_edge_multiplicity).astype(np.float64)
        psi, psi_empty = spectral.spectral_descriptors(stack, bins)
        feats = temporal_degree(g, grid, binary=binary)
        agg = _aggregation(g.num_nodes, *g.events[:, :2].T.astype(np.int64))
        out.append(GraphFeatures(g.label, phi, psi, psi_empty, feats, agg))
    return out


# -- descriptor CSVs ---------------------------------------------------------

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


# -- training -----------------------------------------------------------------

def _input_widths(gf: GraphFeatures) -> dict:
    """The ModelConfig widths that a graph's extracted inputs determine."""
    return {
        "topo_dim": gf.phi.shape[1],
        "dos_bins": gf.psi.shape[1],
        "feature_dim": gf.features.shape[1],
    }


def _model_config(features, num_classes, config: RunConfig) -> ModelConfig:
    return ModelConfig(
        num_classes=num_classes,
        **_input_widths(features[0]),
        hidden_dim=config.hidden_dim,
        sage_layers=config.sage_layers,
        dropout=config.dropout,
        mode=config.mode,
    )


def train(features: list, num_classes: int, config: RunConfig):
    """Per-graph stochastic updates in a seeded shuffled order.

    Returns (model, Metrics with per-epoch mean loss history).  A label
    outside [0, num_classes) is refused before the model is built.
    """
    if num_classes < 2:
        raise PipelineError(f"need at least 2 classes, got {num_classes}")
    if not features:
        raise PipelineError("no graphs to train on")
    for i, gf in enumerate(features):
        if not 0 <= gf.label < num_classes:
            raise PipelineError(f"graph {i} has label {gf.label}, outside [0, {num_classes})")
    model = TemporalGraphClassifier(_model_config(features, num_classes, config),
                                    seed=config.seed)
    opt = Adam(model.parameters, lr=config.lr, weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed + 1)
    metrics = Metrics()
    for epoch in range(config.epochs):
        order = rng.permutation(len(features))
        losses = []
        for idx in order:
            gf = features[idx]
            opt.zero_grad()
            try:
                loss, _ = model.forward(gf.phi, gf.psi, gf.features, gf.agg,
                                        rng=rng, train=True, label=gf.label)
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
    return model, metrics


def evaluate(model, features: list, dataset_name="dataset"):
    """Accuracy, mean per-view attention mass, and fused embeddings.

    Raises PipelineError if the extracted input widths differ from the
    model's, e.g. a dataset with another number of distinct timestamps
    (``feature_dim``) or another ``dos_bins``, for a label it has no class for, and
    for no graphs at all."""
    if not features:
        raise PipelineError("no graphs to evaluate")
    if (top := max(gf.label for gf in features)) >= (k := model.cfg.num_classes):
        raise PipelineError(f"the model was trained with {k} classes, but the data has label {top}")
    for name, width in _input_widths(features[0]).items():
        expected = getattr(model.cfg, name)
        if width != expected:
            raise PipelineError(
                f"the model was trained with {name} = {expected}, but the data gives {width}"
            )
    correct = 0
    weights = np.zeros(3)
    embeddings = []
    for gf in features:
        logits, fusion = model.forward(gf.phi, gf.psi, gf.features, gf.agg, grad=False)
        if int(np.argmax(logits.data)) == gf.label:
            correct += 1
        weights += fusion.view_weights
        embeddings.append(fusion.fused)
    weights /= len(features)
    metrics = Metrics(fold_accuracies=[correct / len(features)])
    report = AttentionReport(dataset_name, *[float(w) for w in weights])
    return metrics, report, np.array(embeddings)


def stratified_folds(labels, folds: int, seed: int) -> list:
    """Seeded stratified partition into sorted int64 index arrays, one per fold: each class's
    shuffled indices in turn, dealt round robin, so fold sizes differ by at most 1, as do a
    class's counts per fold."""
    labels = np.asarray(labels)
    if folds < 2:
        raise PipelineError("need at least 2 folds")
    if len(labels) < folds:
        raise PipelineError(f"{len(labels)} graphs < {folds} folds")
    rng = np.random.default_rng(seed)
    dealt = []
    for cls in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        dealt.append(idx)
    dealt = np.concatenate(dealt)
    return [np.sort(dealt[k::folds]) for k in range(folds)]


def kfold_cv(dataset: Dataset, config: RunConfig, features=None):
    """Stratified k-fold cross-validation; returns (Metrics, AttentionReport)."""
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
