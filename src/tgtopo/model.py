"""Learned components: GSAGE branch, descriptor transformers, attention
fusion, and the linear classifier.

Three branches each map one view of a temporal graph to a 10-dimensional
embedding: mean-aggregating SAGE layers over the static projection
(structural), and two transformer encoders over the per-window topological
and spectral token streams.  A single-head self-attention layer over the
three view tokens produces the fused 30-dimensional representation together
with the per-view attention mass.

Each part is one tape node (``TemporalGraphClassifier._structural_view``,
``encode``, ``TemporalGraphClassifier._head``, which given a label ends in the
loss) running the chain of ``autodiff`` ops it replaces, bit for bit: a hidden
SAGE layer's gradient adds its W_self term, then its neighbours'; the fusion
views add the residual's, then q, k, v.  Fusion and the encoders run the one
attention kernel, ``autodiff._attention``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError, check_int, is_real
from .optim import pack

VIEW_DIM = 10
VIEW_NAMES = ("structural", "topological", "spectral")
MODES = ("full", "concat-fuse", "gsage-only", "topo-only", "dos-only")


class CheckpointError(InputError):
    pass


@dataclass(frozen=True)
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
        for key in ("num_classes", "topo_dim", "dos_bins", "feature_dim", "hidden_dim",
                    "sage_layers", "tf_layers", "tf_heads", "tf_model_dim", "tf_ffn_dim"):
            low = int(key != "sage_layers")
            object.__setattr__(self, key, check_int(getattr(self, key), low, key))
        if not is_real(self.dropout) or not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be a real in [0, 1), got {self.dropout!r}")
        object.__setattr__(self, "dropout", float(self.dropout))  # json writes no numpy scalar
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.tf_model_dim % self.tf_heads != 0:
            raise ValueError("tf_model_dim must be divisible by tf_heads")


@dataclass(frozen=True)
class FusionOutput:
    fused: np.ndarray  # 30-dim (or 10/30 for ablations)
    view_weights: np.ndarray  # 3 nonnegative reals summing to 1


@functools.lru_cache(maxsize=64)
def time_embedding(n: int, d_model: int) -> np.ndarray:
    """Deterministic sinusoidal position code over window indices.

    Cached per (n, d_model); the shared table is read-only."""
    if n < 1:
        raise ValueError("sequence length must be >= 1")
    pos = np.arange(n)[:, None].astype(np.float64)
    idx = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (idx // 2)) / d_model)
    table = np.zeros((n, d_model))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    table.flags.writeable = False
    return table


def _aggregation(n, u, v) -> np.ndarray:
    """Row-stochastic neighbor-averaging matrix of the simple graph on n nodes with edges
    (u[e], v[e]), repeats allowed; an isolated node's row, its neighbor mean, is zero."""
    adj = np.zeros((n, n))
    adj[u, v] = adj[v, u] = 1.0
    return adj / np.maximum(adj.sum(axis=1), 1.0)[:, None]  # 1 / deg(u) at (u, v), else 0.0


def mean_aggregation_matrix(static) -> np.ndarray:
    """``_aggregation`` of a StaticGraph; the pipeline calls ``_aggregation`` on a
    graph's event endpoints instead, which gives the same bytes."""
    return _aggregation(static.num_nodes, *np.array(static.edges, np.int64).reshape(-1, 2).T)


class _ParamStore:
    """Named trainable tensors with fan-in uniform initialization; given ``shapes``
    (name to shape), a tensor not there with its shape raises ValueError unallocated."""

    def __init__(self, rng: np.random.Generator, shapes=None):
        self.rng = rng
        self.shapes = shapes
        self.params: dict[str, Tensor] = {}

    def _check(self, name, shape):
        if self.shapes is not None and self.shapes.get(name) != shape:
            raise ValueError(f"{name}: the config asks for shape {shape}, "
                             f"the checkpoint has {self.shapes.get(name)}")

    def matrix(self, name, fan_in, fan_out):
        self._check(name, (fan_in, fan_out))
        bound = 1.0 / np.sqrt(max(fan_in, 1))
        t = Tensor(self.rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)
        self.params[name] = t
        return t

    def vector(self, name, size, value=0.0):
        self._check(name, (size,))
        t = Tensor(np.full(size, float(value)), requires_grad=True)
        self.params[name] = t
        return t


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
                    tuple(store.matrix(f"{prefix}.{l}.h{h}.{name}", d, head_dim)
                          for name in ("wq", "wk", "wv"))
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
        # the groups ``_stack`` lays out as arena blocks: each parameter after
        # b_in in creation order, a layer's q, k and v of all heads as one
        self.groups = [[w for ws in v for w in ws] if k == "heads" else [v]
                       for layer in self.layers for k, v in layer.items()]
        self.groups += [[self.w_out], [self.b_out]]
        # this encoder's share of the parents of ``encode``'s node, built once
        self.parents = (self.w_in, self.b_in, *(t for ts in self.groups for t in ts))

    def forward(self, tokens: np.ndarray, rng=None, train=False):
        """``encode`` on this encoder's row of the model's blocks; tokens:
        N x d_in; returns (view 1x10 Tensor, attention matrices)."""
        view, (probs,) = encode([self], self.blocks, [tokens], rng, train)
        return view, probs


def _stack(encoders, params):
    """Pack ``params`` into new arenas, each group of ``encoders[i].groups``
    first as one (S, ...) block of both, encoder after encoder (vectors as
    (S, 1, d), q, k, v as (S, h, 3, d, d_h)).  Returns the arenas and the
    blocks as ``encode`` reads them (parameter blocks, gradient blocks, each
    block's tensors, the parameter blocks' transposed views, built once);
    each encoder's ``blocks`` are its rows of them.
    Parameters an optimizer already packed in another order raise ValueError,
    since blocks cut from that arena would not be the groups' tensors."""
    groups = [[t for ts in g for t in ts] for g in zip(*(e.groups for e in encoders))]
    stacked = {t for ts in groups for t in ts}
    order = [t for ts in groups for t in ts] + [t for t in params if t not in stacked]
    arenas = pack(order)
    starts = np.cumsum([0] + [t.data.size for t in order]) * arenas[0].itemsize
    if any(t.data.ctypes.data != arenas[0].ctypes.data + a for t, a in zip(order, starts)):
        raise ValueError("the parameters live in an arena not laid out as one stack")
    blocks, offset, s = ([], []), 0, len(encoders)
    for ts in groups:
        end, shape = offset + sum(t.data.size for t in ts), ts[0].data.shape
        shape = (s, -1, 3, *shape) if len(ts) > s else (s, -1, shape[-1])
        for arena, out in zip(arenas, blocks):
            out.append(arena[offset:end].reshape(shape))
        offset = end
    blocks = (*blocks, groups, [b.swapaxes(-1, -2) for b in blocks[0]])
    for i, e in enumerate(encoders):
        e.blocks = tuple(e.groups if bs is groups else [b[i:i + 1] for b in bs] for bs in blocks)
    return (*arenas, blocks)


def encode(encoders, blocks, streams, rng=None, train=False, grad=True, attention=True):
    """Run S encoders of equal layer shapes on S token streams of length N as
    one tape node on their (S, ...) parameter blocks (``_stack``) and an
    (S, N, d) residual stream; returns (S x 10 views Tensor, per encoder its
    attention matrices, or None with ``attention`` False).  Backward writes
    each stacked gradient into its gradient block once.  Values and gradients
    are bit for bit each encoder's chain of tape ops (``encoder_chain`` in the
    tests): a residual-stream gradient is the residual add's, then the layer
    norm's; the attention input sums q, k, v of head 0, then of head 1, ...;
    dropout masks are drawn first, encoder by encoder, layer by layer,
    attention mask then FFN mask.  With ``grad`` False no tape is kept: the
    views have no backward and no attention matrices come back, so a layer's
    temporaries are freed before the next layer allocates its own (at long
    streams they are about 0.7 MB a layer)."""
    cfg = encoders[0].cfg
    streams = [np.asarray(t, dtype=np.float64) for t in streams]
    s, n, d = len(streams), streams[0].shape[0], cfg.tf_model_dim
    if any(t.shape[0] != n for t in streams):
        raise ad.ShapeMismatchError(f"token streams of lengths {[len(t) for t in streams]}")
    drop = train and cfg.dropout > 0
    masks = ad.dropout_mask(rng, cfg.dropout, (s, cfg.tf_layers, 2, n, d)) if drop else None
    params, grad_blocks, groups, params_t = blocks
    width, scale = (len(params) - 2) // cfg.tf_layers, 1.0 / np.sqrt(d // cfg.tf_heads)
    x = np.empty((s, n, d))
    for x_e, t, e in zip(x, streams, encoders):
        np.add(np.matmul(t, e.w_in.data, out=x_e), e.b_in.data, out=x_e)
    x += time_embedding(n, d)
    tape = []
    for l in range(cfg.tf_layers):
        g1, b1, g2, b2, qkv, wo, w1, c1, w2, c2 = params[l * width:(l + 1) * width]
        normed, ln1_grad = ad._layer_norm(x, g1, b1)
        heads_out, probs, att_grad = ad._attention(normed, qkv, scale, params_t[l * width + 4])
        attended = heads_out @ wo
        if drop:
            attended *= masks[:, l, 0]
        # the residual adds make new arrays: in place, they leave a long stream's
        # tape at the heap top, where glibc trims and re-faults it every step
        x = x + attended
        normed2, ln2_grad = ad._layer_norm(x, g2, b2)
        pre = normed2 @ w1
        pre += c1
        active = pre > 0
        h = ad._relu_in_place(pre)
        out = h @ w2
        out += c2
        if drop:
            out *= masks[:, l, 1]
        x = x + out
        if grad:
            tape.append((ln1_grad, heads_out, probs, att_grad, normed2, ln2_grad, active, h))
        del normed, ln1_grad, heads_out, probs, att_grad, attended, normed2, ln2_grad, pre
        del active, h, out
    pooled = (np.add.reduce(x, axis=-2) / n).reshape(s, 1, d)
    w_out, b_out = params[-2:]

    def fill(out, g):
        np.matmul(pooled.swapaxes(-1, -2), g, out=out[-2])
        out[-1][...] = g
        g_x = np.repeat((g @ params_t[-2]) / n, n, axis=-2)
        for l in reversed(range(cfg.tf_layers)):
            *_, wo_t, w1_t, _, w2_t, _ = params_t[l * width:(l + 1) * width]
            o_g1, o_b1, o_g2, o_b2, o_qkv, o_wo, o_w1, o_c1, o_w2, o_c2 = out[l * width:][:width]
            ln1_grad, heads_out, _, att_grad, normed2, ln2_grad, active, h = tape[l]
            g_out = g_x * masks[:, l, 1] if drop else g_x
            g_pre = g_out @ w2_t
            g_pre *= active
            g_normed2 = g_pre @ w1_t
            g_ln, g_g2 = ln2_grad(g_normed2)
            g_x = np.add(g_x, g_ln, out=g_ln)  # not into g_x: g_out may be g_x
            g_att = g_x * masks[:, l, 0] if drop else g_x
            g_parts, _ = att_grad(g_att @ wo_t, out=o_qkv)
            g_normed = np.add.reduce(g_parts.reshape(s, -1, n, d), axis=1)  # the parts in order
            g_ln, g_g1 = ln1_grad(g_normed)
            g_x = np.add(g_x, g_ln, out=g_ln)
            for a, o in ((g_g1, o_g1), (g_normed, o_b1), (g_g2, o_g2), (g_normed2, o_b2),
                         (g_pre, o_c1), (g_out, o_c2)):
                np.add.reduce(a, axis=-2, keepdims=True, out=o)
            for a, b, o in ((heads_out, g_att, o_wo), (normed2, g_pre, o_w1), (h, g_out, o_w2)):
                np.matmul(a.swapaxes(-1, -2), b, out=o)
        for e, t, g_e in zip(encoders, streams, g_x):
            e.b_in._accumulate(np.add.reduce(g_e, axis=0))
            e.w_in._accumulate(t.T @ g_e)

    def backward(g):
        ad.accumulate_blocks(groups, grad_blocks, lambda out: fill(out, g.reshape(s, 1, VIEW_DIM)))

    views = (pooled @ w_out + b_out).reshape(s, VIEW_DIM)
    if not grad:
        return Tensor(views), [[] for _ in streams]
    parents = sum((e.parents for e in encoders), ())
    probs = [[p for layer in tape for p in layer[2][i]] for i in range(s)] if attention else None
    return Tensor(views, parents=parents, backward=backward), probs


def fusion_attention(views, w):
    """Single-head self-attention over the 3 view tokens (a 3 x 10 array) and
    its residual add: ``autodiff._attention`` on ``w``, the (1, 3, 10, 10)
    stack of the q, k and v weights.  Returns (fused 3 x 10 array,
    view_weights, ``_attention``'s ``grad``).  The per-view weight is the
    total attention mass received by that view across the three queries,
    normalized to sum to 1.  A residual connection around the attention block
    keeps a direct gradient path into each view encoder, which avoids long
    plateaus early in training.
    """
    if views.shape != (3, VIEW_DIM):
        raise ad.ShapeMismatchError(f"expected 3x{VIEW_DIM} views, got {views.shape}")
    out, probs, grad = ad._attention(views, w, 1.0 / np.sqrt(VIEW_DIM))
    return views + out, np.add.reduce(probs[0], axis=0) / len(probs[0]), grad


class TemporalGraphClassifier:
    """End-to-end three-view classifier with ablation modes."""

    def __init__(self, cfg: ModelConfig, seed: int = 0, shapes=None):
        self.cfg = cfg
        store = _ParamStore(np.random.default_rng(seed), shapes)
        self._store = store
        # the views the mode reads: structural, topological, spectral
        self.has_view = [cfg.mode in ("full", "concat-fuse", m) for m in MODES[2:]]
        if self.has_view[0]:
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
        self.encoders = [TransformerEncoder(store, prefix, width, cfg) for prefix, width, used
                         in (("topo_tf", cfg.topo_dim, self.has_view[1]),
                             ("dos_tf", cfg.dos_bins, self.has_view[2])) if used]
        self.fuse = [store.matrix(f"fuse.{name}", VIEW_DIM, VIEW_DIM)
                     for name in ("wq", "wk", "wv")] if cfg.mode == "full" else []
        fused_dim = VIEW_DIM * sum(self.has_view)
        self.cls_w = store.matrix("cls.w", fused_dim, cfg.num_classes)
        self.cls_b = store.vector("cls.b", cfg.num_classes)
        self.arena, self.grad_arena, self.blocks = _stack(self.encoders, store.params.values())
        if self.fuse:  # q, k and v lie side by side in the arena: one (1, 3, 10, 10) view
            at = (self.fuse[0].data.ctypes.data - self.arena.ctypes.data) // self.arena.itemsize
            self.fuse_w = self.arena[at:at + 3 * VIEW_DIM**2].reshape(1, 3, VIEW_DIM, VIEW_DIM)

    @property
    def parameters(self) -> dict:
        return self._store.params

    def _structural_view(self, features, agg):
        """The GraphSAGE branch as one tape node: SAGE layers relu(h W_self +
        (agg h) W_neigh + b), the mean over nodes and the ``sage.proj`` linear."""
        h, agg = np.asarray(features, dtype=np.float64), np.asarray(agg, dtype=np.float64)
        n, w0 = len(h), (self.sage_params[0][0] if self.sage_params else self.sage_proj).data
        if n < 1 or h.ndim != 2 or agg.shape != (n, n) or h.shape[1] != w0.shape[0]:
            raise ad.ShapeMismatchError(f"features {h.shape}, graph {agg.shape}, weight {w0.shape}")
        tape = []
        for w_self, w_neigh, bias in self.sage_params:
            neigh = agg @ h
            pre = h @ w_self.data + neigh @ w_neigh.data + bias.data
            active = pre > 0
            tape.append((h, neigh, active))
            h = ad._relu_in_place(pre)
        pooled = (np.add.reduce(h, axis=0) / n).reshape(1, -1)
        proj, proj_b = self.sage_proj, self.sage_proj_b

        def backward(g):
            proj_b._accumulate(np.add.reduce(g, axis=0))
            proj._accumulate(pooled.T @ g)
            g_h = np.repeat((g @ proj.data.T) / n, n, axis=0)
            for l in reversed(range(len(tape))):
                (w_self, w_neigh, bias), (h_in, neigh, active) = self.sage_params[l], tape[l]
                g_pre = np.multiply(g_h, active, out=g_h)
                bias._accumulate(np.add.reduce(g_pre, axis=0))
                w_self._accumulate(h_in.T @ g_pre)
                w_neigh._accumulate(neigh.T @ g_pre)
                if l:
                    g_h = g_pre @ w_self.data.T
                    g_h += agg.T @ (g_pre @ w_neigh.data.T)

        params = (*(t for ps in self.sage_params for t in ps), proj, proj_b)
        return Tensor(pooled @ proj.data + proj_b.data, parents=params, backward=backward)

    def _head(self, views, rng=None, train=False, grad=True, label=None):
        """The classifier head as one tape node in every mode: the view rows
        stacked, ``fusion_attention`` if the model has it, the reshape to one
        row, dropout, the ``cls`` linear and, given a ``label``, the
        cross-entropy loss, bit for bit as that chain of ``autodiff`` ops.
        Returns (logits Tensor, or the scalar loss Tensor given a label,
        FusionOutput); with ``grad`` False no tape is kept."""
        x = np.concatenate([v.data for v in views])
        if self.fuse:
            x, weights, fuse_grad = fusion_attention(x, self.fuse_w)
        else:  # the views present share the weight equally
            weights = np.divide(self.has_view, sum(self.has_view))
        fused = x.reshape(1, -1)
        drop = train and self.cfg.dropout > 0
        mask = ad.dropout_mask(rng, self.cfg.dropout, fused.shape) if drop else None
        fused = fused * mask if drop else fused
        w, b = self.cls_w, self.cls_b
        logits, out = fused @ w.data + b.data, FusionOutput(fused.reshape(-1).copy(), weights)
        if label is not None:  # the loss's gradient in the logits: softmax − one-hot
            loss, g_logits = ad._cross_entropy(logits.reshape(-1), label)
        if not grad:
            return Tensor(logits if label is None else loss), out

        def backward(g):
            g = g if label is None else float(g) * g_logits.reshape(logits.shape)
            b._accumulate(np.add.reduce(g, axis=0))
            w._accumulate(fused.T @ g)
            g_x = (g @ w.data.T * mask if drop else g @ w.data.T).reshape(x.shape)
            if self.fuse:  # the residual's, then q's, k's and v's
                parts, g_w = fuse_grad(g_x)
                g_x = g_x + parts[0, 0] + parts[0, 1] + parts[0, 2]
                for t, g_t in zip(self.fuse, g_w[0]):
                    t._accumulate(g_t)
            for v in views:
                v._accumulate(g_x[:len(v.data)])
                g_x = g_x[len(v.data):]

        return Tensor(logits if label is None else loss, parents=(*views, *self.fuse, w, b),
                      backward=backward), out

    def forward(self, phi, psi, features, agg, rng=None, train=False, grad=True, label=None):
        """Compute logits for one graph.

        phi: N x topo_dim, psi: N x dos_bins, features: n x feature_dim,
        agg: n x n neighbor-mean matrix.  Returns (logits Tensor, FusionOutput);
        given a ``label``, the head's node returns the cross-entropy loss
        instead of the logits.  With ``grad`` False (evaluation) the encoders
        and the head keep no tape, and no gradient reaches their parameters.
        """
        views = [self._structural_view(features, agg)] if self.has_view[0] else []
        if self.encoders:
            streams = [{"topo_tf": phi, "dos_tf": psi}[e.prefix] for e in self.encoders]
            views.append(encode(self.encoders, self.blocks, streams, rng, train, grad,
                                attention=False)[0])
        return self._head(views, rng, train, grad, label)

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
        """Rebuild a saved model; raises CheckpointError for a malformed file
        and OSError for an unreadable one.  The model is built to the shapes
        of the arrays, so its config cannot size it beyond the file."""
        try:
            with open(path) as fh:
                payload = json.load(fh)
            if payload.get("format") != "tgtopo-checkpoint-v1":
                raise ValueError("unrecognized checkpoint format")
            arrays = {name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
                      for name, entry in payload["params"].items()}
            if bad := [name for name, a in arrays.items() if not np.isfinite(a).all()]:
                raise ValueError(f"{bad[0]} holds a non-finite value")  # json reads NaN, Infinity
            model = cls(ModelConfig(**payload["config"]), seed=0,
                        shapes={name: a.shape for name, a in arrays.items()})
            if set(arrays) != set(model.parameters):
                raise ValueError("parameter names do not match the config")
            for name, t in model.parameters.items():
                t.data[...] = arrays[name]
        except (ArithmeticError, AttributeError, KeyError, RecursionError, TypeError,
                ValueError) as exc:
            raise CheckpointError(f"{path}: bad checkpoint: {exc}") from exc
        return model
