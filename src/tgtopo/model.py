"""Learned components: GSAGE branch, descriptor transformers, attention
fusion, and the linear classifier.

Three branches each map one view of a temporal graph to a 10-dimensional
embedding: mean-aggregating SAGE layers over the static projection
(structural), and two transformer encoders over the per-window topological
and spectral token streams.  A single-head self-attention layer over the
three view tokens produces the fused 30-dimensional representation together
with the per-view attention mass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

VIEW_DIM = 10
VIEW_NAMES = ("structural", "topological", "spectral")
MODES = ("full", "concat-fuse", "gsage-only", "topo-only", "dos-only")


@dataclass
class ModelConfig:
    num_classes: int = 2
    topo_dim: int = 4
    dos_bins: int = 4
    feature_dim: int = 1  # temporal-degree width (timestep count)
    hidden_dim: int = 32
    sage_layers: int = 2
    tf_layers: int = 2
    tf_heads: int = 2
    tf_model_dim: int = 32
    tf_ffn_dim: int = 64
    dropout: float = 0.0
    mode: str = "full"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.tf_model_dim % self.tf_heads != 0:
            raise ValueError("tf_model_dim must be divisible by tf_heads")


@dataclass(frozen=True)
class FusionOutput:
    fused: np.ndarray  # 30-dim (or 10/30 for ablations)
    view_weights: np.ndarray  # 3 nonnegative reals summing to 1


def time_embedding(n: int, d_model: int) -> np.ndarray:
    """Deterministic sinusoidal position code over window indices."""
    if n < 1:
        raise ValueError("sequence length must be >= 1")
    pos = np.arange(n)[:, None].astype(np.float64)
    idx = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (idx // 2)) / d_model)
    table = np.zeros((n, d_model))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


def mean_aggregation_matrix(static) -> np.ndarray:
    """Row-stochastic neighbor-averaging matrix of a StaticGraph (zero rows
    for isolated nodes, so their neighbor mean is the zero vector)."""
    n = static.num_nodes
    m = np.zeros((n, n))
    for v, nbrs in enumerate(static.neighbors):
        if nbrs:
            m[v, list(nbrs)] = 1.0 / len(nbrs)
    return m


class _ParamStore:
    """Named trainable tensors with fan-in uniform initialization."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.params: dict[str, Tensor] = {}

    def matrix(self, name, fan_in, fan_out):
        bound = 1.0 / np.sqrt(max(fan_in, 1))
        t = Tensor(self.rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)
        self.params[name] = t
        return t

    def vector(self, name, size, value=0.0):
        t = Tensor(np.full(size, float(value)), requires_grad=True)
        self.params[name] = t
        return t


def sage_layer(features: Tensor, agg: np.ndarray, w_self, w_neigh, bias, activation=True):
    """h'_v = relu(W_self h_v + W_neigh mean_{u in N(v)} h_u + b)."""
    if features.data.shape[0] != agg.shape[0]:
        raise ad.ShapeMismatchError(
            f"features rows {features.data.shape[0]} != graph nodes {agg.shape[0]}"
        )
    neigh = ad.matmul(Tensor(agg), features)
    out = ad.add(ad.add(ad.matmul(features, w_self), ad.matmul(neigh, w_neigh)), bias)
    return ad.relu(out) if activation else out


def global_mean_pool(node_embeddings: Tensor) -> Tensor:
    if node_embeddings.data.shape[0] < 1:
        raise ad.ShapeMismatchError("global_mean_pool needs at least one node")
    return ad.mean_pool(node_embeddings, axis=0)


class TransformerEncoder:
    """Pre-norm encoder over a token stream, pooled to a 10-dim view vector."""

    def __init__(self, store: _ParamStore, prefix: str, d_in: int, cfg: ModelConfig):
        self.cfg = cfg
        self.prefix = prefix
        d = cfg.tf_model_dim
        self.w_in = store.matrix(f"{prefix}.w_in", d_in, d)
        self.b_in = store.vector(f"{prefix}.b_in", d)
        self.layers = []
        head_dim = d // cfg.tf_heads
        for l in range(cfg.tf_layers):
            layer = {
                "ln1_g": store.vector(f"{prefix}.{l}.ln1_g", d, 1.0),
                "ln1_b": store.vector(f"{prefix}.{l}.ln1_b", d),
                "ln2_g": store.vector(f"{prefix}.{l}.ln2_g", d, 1.0),
                "ln2_b": store.vector(f"{prefix}.{l}.ln2_b", d),
                "heads": [
                    {
                        "wq": store.matrix(f"{prefix}.{l}.h{h}.wq", d, head_dim),
                        "wk": store.matrix(f"{prefix}.{l}.h{h}.wk", d, head_dim),
                        "wv": store.matrix(f"{prefix}.{l}.h{h}.wv", d, head_dim),
                    }
                    for h in range(cfg.tf_heads)
                ],
                "wo": store.matrix(f"{prefix}.{l}.wo", d, d),
                "w1": store.matrix(f"{prefix}.{l}.w1", d, cfg.tf_ffn_dim),
                "b1": store.vector(f"{prefix}.{l}.b1", cfg.tf_ffn_dim),
                "w2": store.matrix(f"{prefix}.{l}.w2", cfg.tf_ffn_dim, d),
                "b2": store.vector(f"{prefix}.{l}.b2", d),
            }
            self.layers.append(layer)
        self.w_out = store.matrix(f"{prefix}.w_out", d, VIEW_DIM)
        self.b_out = store.vector(f"{prefix}.b_out", VIEW_DIM)

    def forward(self, tokens: np.ndarray, rng=None, train=False):
        """tokens: N x d_in; returns (view 1x10 Tensor, attention matrices)."""
        cfg = self.cfg
        n = tokens.shape[0]
        x = ad.add(ad.matmul(Tensor(tokens), self.w_in), self.b_in)
        x = ad.embedding_add(x, Tensor(time_embedding(n, cfg.tf_model_dim)))
        attn_all = []
        head_dim = cfg.tf_model_dim // cfg.tf_heads
        scale = 1.0 / np.sqrt(head_dim)
        for layer in self.layers:
            normed = ad.layer_norm(x, layer["ln1_g"], layer["ln1_b"])
            head_outs = []
            for head in layer["heads"]:
                q = ad.matmul(normed, head["wq"])
                k = ad.matmul(normed, head["wk"])
                v = ad.matmul(normed, head["wv"])
                scores = ad.scale(ad.matmul(q, _transpose(k)), scale)
                probs = ad.softmax(scores)
                attn_all.append(probs.data)
                head_outs.append(ad.matmul(probs, v))
            attended = ad.matmul(ad.concat(head_outs, axis=1), layer["wo"])
            if train and cfg.dropout > 0:
                attended = ad.dropout(attended, cfg.dropout, rng, train)
            x = ad.add(x, attended)
            normed2 = ad.layer_norm(x, layer["ln2_g"], layer["ln2_b"])
            h = ad.relu(ad.add(ad.matmul(normed2, layer["w1"]), layer["b1"]))
            h = ad.add(ad.matmul(h, layer["w2"]), layer["b2"])
            if train and cfg.dropout > 0:
                h = ad.dropout(h, cfg.dropout, rng, train)
            x = ad.add(x, h)
        pooled = ad.mean_pool(x, axis=0)
        view = ad.add(ad.matmul(_row(pooled), self.w_out), self.b_out)
        return view, attn_all


def _transpose(t: Tensor) -> Tensor:
    out_data = t.data.T

    def backward(g):
        if t.requires_grad:
            t._accumulate(g.T)

    return Tensor(out_data, parents=(t,), backward=backward)


def _row(t: Tensor) -> Tensor:
    """Reshape a tensor to a single-row matrix."""
    out_data = t.data.reshape(1, -1)

    def backward(g):
        if t.requires_grad:
            t._accumulate(g.reshape(t.data.shape))

    return Tensor(out_data, parents=(t,), backward=backward)


def fusion_attention(views: Tensor, wq, wk, wv):
    """Single-head self-attention over the 3 view tokens.

    Returns (fused 1x30 Tensor, view_weights ndarray).  The per-view weight
    is the total attention mass received by that view across the three
    queries, normalized to sum to 1.  A residual connection around the
    attention block keeps a direct gradient path into each view encoder,
    which avoids long plateaus early in training.
    """
    if views.data.shape != (3, VIEW_DIM):
        raise ad.ShapeMismatchError(f"expected 3x{VIEW_DIM} views, got {views.data.shape}")
    q = ad.matmul(views, wq)
    k = ad.matmul(views, wk)
    v = ad.matmul(views, wv)
    scores = ad.scale(ad.matmul(q, _transpose(k)), 1.0 / np.sqrt(VIEW_DIM))
    probs = ad.softmax(scores)
    attended = ad.add(views, ad.matmul(probs, v))
    fused = _row(attended)
    weights = probs.data.sum(axis=0) / probs.data.shape[0]
    return fused, weights


def classify(fused: Tensor, w, b) -> Tensor:
    """Affine map to class logits; no activation."""
    return ad.add(ad.matmul(fused, w), b)


class TemporalGraphClassifier:
    """End-to-end three-view classifier with ablation modes."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        store = _ParamStore(np.random.default_rng(seed))
        self._store = store
        if cfg.mode in ("full", "concat-fuse", "gsage-only"):
            d_feat = cfg.feature_dim
            self.sage_params = []
            for l in range(cfg.sage_layers):
                d_in = d_feat if l == 0 else cfg.hidden_dim
                self.sage_params.append(
                    (
                        store.matrix(f"sage.{l}.w_self", d_in, cfg.hidden_dim),
                        store.matrix(f"sage.{l}.w_neigh", d_in, cfg.hidden_dim),
                        store.vector(f"sage.{l}.bias", cfg.hidden_dim),
                    )
                )
            self.sage_proj = store.matrix("sage.proj", cfg.hidden_dim, VIEW_DIM)
            self.sage_proj_b = store.vector("sage.proj_b", VIEW_DIM)
        if cfg.mode in ("full", "concat-fuse", "topo-only"):
            self.topo_tf = TransformerEncoder(store, "topo_tf", cfg.topo_dim, cfg)
        if cfg.mode in ("full", "concat-fuse", "dos-only"):
            self.dos_tf = TransformerEncoder(store, "dos_tf", cfg.dos_bins, cfg)
        if cfg.mode == "full":
            self.fuse_wq = store.matrix("fuse.wq", VIEW_DIM, VIEW_DIM)
            self.fuse_wk = store.matrix("fuse.wk", VIEW_DIM, VIEW_DIM)
            self.fuse_wv = store.matrix("fuse.wv", VIEW_DIM, VIEW_DIM)
        fused_dim = {"full": 3 * VIEW_DIM, "concat-fuse": 3 * VIEW_DIM}.get(cfg.mode, VIEW_DIM)
        self.cls_w = store.matrix("cls.w", fused_dim, cfg.num_classes)
        self.cls_b = store.vector("cls.b", cfg.num_classes)

    @property
    def parameters(self) -> dict:
        return self._store.params

    def num_parameters(self) -> int:
        return sum(t.data.size for t in self.parameters.values())

    def _structural_view(self, features, agg):
        h = Tensor(features)
        for w_self, w_neigh, bias in self.sage_params:
            h = sage_layer(h, agg, w_self, w_neigh, bias)
        pooled = global_mean_pool(h)
        return ad.add(ad.matmul(_row(pooled), self.sage_proj), self.sage_proj_b)

    def forward(self, phi, psi, features, agg, rng=None, train=False):
        """Compute logits for one graph.

        phi: N x topo_dim, psi: N x dos_bins, features: n x feature_dim,
        agg: n x n neighbor-mean matrix.  Returns (logits Tensor, FusionOutput).
        """
        cfg = self.cfg
        views = {}
        if cfg.mode in ("full", "concat-fuse", "gsage-only"):
            views["structural"] = self._structural_view(features, agg)
        if cfg.mode in ("full", "concat-fuse", "topo-only"):
            views["topological"], _ = self.topo_tf.forward(phi, rng, train)
        if cfg.mode in ("full", "concat-fuse", "dos-only"):
            views["spectral"], _ = self.dos_tf.forward(psi, rng, train)

        if cfg.mode == "full":
            stacked = ad.concat([views[name] for name in VIEW_NAMES], axis=0)
            fused, weights = fusion_attention(stacked, self.fuse_wq, self.fuse_wk, self.fuse_wv)
        elif cfg.mode == "concat-fuse":
            fused = ad.concat([views[name] for name in VIEW_NAMES], axis=1)
            weights = np.full(3, 1.0 / 3.0)
        else:
            only = {"gsage-only": 0, "topo-only": 1, "dos-only": 2}[cfg.mode]
            fused = next(iter(views.values()))
            weights = np.eye(3)[only]
        if train and cfg.dropout > 0:
            fused = ad.dropout(fused, cfg.dropout, rng, train)
        logits = classify(fused, self.cls_w, self.cls_b)
        return logits, FusionOutput(fused.data.reshape(-1).copy(), weights)

    def save(self, path):
        """Checkpoint: JSON container of named arrays; round-trips bit-exactly
        (Python float repr is exact for float64)."""
        payload = {
            "format": "tgtopo-checkpoint-v1",
            "config": self.cfg.__dict__,
            "params": {
                name: {"shape": list(t.data.shape), "data": t.data.reshape(-1).tolist()}
                for name, t in self.parameters.items()
            },
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("format") != "tgtopo-checkpoint-v1":
            raise ValueError(f"unrecognized checkpoint format in {path}")
        cfg = ModelConfig(**payload["config"])
        model = cls(cfg, seed=0)
        for name, entry in payload["params"].items():
            t = model.parameters[name]
            arr = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
            if arr.shape != t.data.shape:
                raise ad.ShapeMismatchError(f"checkpoint shape mismatch for {name}")
            t.data = arr
        return model
