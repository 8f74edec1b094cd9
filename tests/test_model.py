import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_autodiff import attention_chain, fd_check, weighted_sum
from tgtopo import autodiff as ad
from tgtopo.autodiff import Tensor
from tgtopo.model import (
    MODES,
    VIEW_DIM,
    VIEW_NAMES,
    CheckpointError,
    ModelConfig,
    TemporalGraphClassifier,
    TransformerEncoder,
    _ParamStore,
    _aggregation,
    _stack,
    encode,
    fusion_attention,
    mean_aggregation_matrix,
    time_embedding,
)
from tgtopo.optim import Adam
from tgtopo.temporal import from_events, static_projection


class TestTimeEmbedding:
    def test_first_row_is_alternating(self):
        e = time_embedding(3, 4)
        assert np.allclose(e[0], [0.0, 1.0, 0.0, 1.0])

    def test_known_entry(self):
        e = time_embedding(2, 4)
        assert e[1, 0] == pytest.approx(np.sin(1.0))
        assert e[1, 1] == pytest.approx(np.cos(1.0))

    def test_rows_distinct_up_to_long_sequences(self):
        e = time_embedding(200, 32)
        for i in range(199):
            assert not np.allclose(e[i], e[i + 1])

    def test_bounded(self):
        e = time_embedding(50, 32)
        assert np.abs(e).max() <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            time_embedding(0, 8)

    def test_cached_table_is_read_only(self):
        e = time_embedding(5, 8)
        assert e is time_embedding(5, 8)
        with pytest.raises(ValueError):
            e[0, 0] = 1.0


class TestAggregation:
    def test_path_graph(self):
        g = from_events(3, [(0, 1, 1.0), (1, 2, 2.0)])
        m = mean_aggregation_matrix(static_projection(g))
        assert np.allclose(m, [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])

    def test_isolated_node_zero_row(self):
        g = from_events(3, [(0, 1, 1.0)])
        m = mean_aggregation_matrix(static_projection(g))
        assert np.allclose(m[2], 0.0)

    def test_rows_stochastic_or_zero(self):
        g = from_events(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 2.0), (0, 3, 3.0)])
        m = mean_aggregation_matrix(static_projection(g))
        sums = m.sum(axis=1)
        assert all(s == pytest.approx(1.0) or s == 0.0 for s in sums)

    @given(n=st.integers(2, 9), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_event_endpoints_give_the_static_projections_bytes(self, n, data):
        # the pipeline builds the matrix from events, whose pairs repeat and come
        # in either order; nodes without events keep zero rows
        ids = st.integers(0, n - 1)
        events = [(u, v, float(t)) for u, v, t in data.draw(st.lists(
            st.tuples(ids, ids, st.integers(0, 3)), min_size=1, max_size=25)) if u != v]
        g = from_events(n, events or [(0, 1, 0.0)])
        m = _aggregation(n, *g.events[:, :2].T.astype(np.int64))
        assert m.tobytes() == mean_aggregation_matrix(static_projection(g)).tobytes()
        nbrs = [{b for a, b, _ in g.events.tolist() if a == x}
                | {a for a, b, _ in g.events.tolist() if b == x} for x in range(n)]
        want = [[1.0 / len(nbrs[x]) if y in nbrs[x] else 0.0 for y in range(n)]
                for x in range(n)]
        assert m.tolist() == want


def _row(t: Tensor) -> Tensor:
    """Reshape a tensor to a single-row matrix as one tape op."""
    def backward(g):
        if t.requires_grad:
            t._accumulate(g.reshape(t.data.shape))

    return Tensor(t.data.reshape(1, -1), parents=(t,), backward=backward)


def sage_layer(features: Tensor, agg: np.ndarray, w_self, w_neigh, bias, activation=True):
    """h'_v = relu(W_self h_v + W_neigh mean_{u in N(v)} h_u + b) as the chain
    of tape ops that ``_structural_view`` replaces, kept as its reference."""
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


def structural_chain(model, features, agg):
    """``model._structural_view`` as the chain of tape ops it replaces."""
    h = Tensor(features)
    for w_self, w_neigh, bias in model.sage_params:
        h = sage_layer(h, agg, w_self, w_neigh, bias)
    pooled = global_mean_pool(h)
    return ad.add(ad.matmul(_row(pooled), model.sage_proj), model.sage_proj_b)


def fusion_chain(views, wq, wk, wv):
    """``fusion_attention``, its residual and the reshape to a row as tape
    ops: the attention chain, an add and a reshape."""
    attended, (probs,) = attention_chain(views, [(wq, wk, wv)], 1.0 / np.sqrt(VIEW_DIM))
    fused = _row(ad.add(views, attended))
    weights = probs.sum(axis=0) / probs.shape[0]
    return fused, weights


def head_chain(model, views, rng=None, train=False, grad=True, label=None):
    """``TemporalGraphClassifier._head`` as the chain of tape ops it
    replaces: concat, fusion attention (full mode), dropout, linear and,
    given a label, the cross-entropy loss."""
    if model.fuse:
        fused, weights = fusion_chain(ad.concat(views, axis=0), *model.fuse)
    else:
        fused = ad.concat([_row(v) for v in views], axis=1)
        weights = (np.full(3, 1.0 / 3.0) if model.cfg.mode == "concat-fuse" else
                   np.eye(3)[{"gsage-only": 0, "topo-only": 1, "dos-only": 2}[model.cfg.mode]])
    if train and model.cfg.dropout > 0:
        fused = ad.dropout(fused, model.cfg.dropout, rng, train)
    logits = ad.add(ad.matmul(fused, model.cls_w), model.cls_b)
    if label is not None:
        logits = ad.cross_entropy_with_logits(logits, label)
    return logits, SimpleNamespace(fused=fused.data.reshape(-1).copy(), view_weights=weights)


def _sage_model(seed=0, mode="gsage-only", feature_dim=2, **overrides):
    return TemporalGraphClassifier(ModelConfig(mode=mode, feature_dim=feature_dim, **overrides),
                                   seed=seed)


class TestSageLayer:
    def _params(self, d_in, d_out, rng):
        store = _ParamStore(rng)
        return (
            store.matrix("ws", d_in, d_out),
            store.matrix("wn", d_in, d_out),
            store.vector("b", d_out),
        )

    def test_hand_example(self):
        # identity weights, no bias: output is relu(h_v + mean of neighbors)
        feats = Tensor(np.array([[1.0], [3.0], [5.0]]))
        agg = np.array([[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])
        w = Tensor(np.eye(1), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        out = sage_layer(feats, agg, w, w, b)
        assert np.allclose(out.data, [[4.0], [6.0], [8.0]])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        w_self, w_neigh, bias = self._params(4, 6, rng)
        feats = rng.normal(size=(5, 4))
        agg = np.array(
            [
                [0, 0.5, 0.5, 0, 0],
                [1, 0, 0, 0, 0],
                [0.5, 0, 0, 0.5, 0],
                [0, 0, 0.5, 0, 0.5],
                [0, 0, 0, 1, 0],
            ]
        )
        out = sage_layer(Tensor(feats), agg, w_self, w_neigh, bias)
        perm = np.array([2, 0, 4, 1, 3])
        p = np.eye(5)[perm]
        out_p = sage_layer(Tensor(p @ feats), p @ agg @ p.T, w_self, w_neigh, bias)
        assert np.allclose(out_p.data, p @ out.data)

    def test_shape_check(self):
        model = _sage_model(hidden_dim=3)
        with pytest.raises(ad.ShapeMismatchError):
            model._structural_view(np.zeros((4, 2)), np.zeros((3, 3)))

    def test_feature_width_check(self):
        model = _sage_model(hidden_dim=3)
        with pytest.raises(ad.ShapeMismatchError, match=r"weight \(2, 3\)"):
            model._structural_view(np.zeros((3, 5)), np.zeros((3, 3)))

    def test_gradients(self):
        agg = np.array([[0, 1.0], [1.0, 0]])
        feats = np.random.default_rng(9).normal(size=(2, 3))

        def make(rng):
            store = _ParamStore(rng)
            return [
                store.matrix("ws", 3, 2),
                store.matrix("wn", 3, 2),
                store.vector("b", 2, value=0.1),
            ]

        def forward(ps):
            out = sage_layer(Tensor(feats), agg, *ps)
            pooled = global_mean_pool(out)
            from test_autodiff import weighted_sum

            return weighted_sum(pooled)

        fd_check(make, forward, n_trials=10)


class TestGlobalMeanPool:
    def test_average(self):
        out = global_mean_pool(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])))
        assert np.allclose(out.data, [2.0, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(ad.ShapeMismatchError):
            _sage_model()._structural_view(np.zeros((0, 2)), np.zeros((0, 0)))


def _graph_inputs(n, feature_dim, isolated, seed):
    """Features and neighbour-mean matrix of a path graph on ``n`` nodes;
    with ``isolated``, the last two nodes have no edge (zero rows in agg)."""
    last = n - 2 if isolated else n
    g = from_events(n, [(i, i + 1, float(i)) for i in range(last - 1)])
    feats = np.random.default_rng(seed).normal(size=(n, feature_dim))
    return feats, mean_aggregation_matrix(static_projection(g))


def _param_grads(model):
    return {k: t.grad.tobytes() for k, t in model.parameters.items() if t.grad is not None}


class TestStructuralViewMatchesChain:
    """``_structural_view`` gives the bytes of the chain of SAGE layers, mean
    pool and linear: its value and every parameter gradient."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("isolated", [False, True], ids=["connected", "isolated"])
    @pytest.mark.parametrize("mode", ["gsage-only", "concat-fuse"])
    def test_bytes(self, layers, isolated, mode):
        from test_autodiff import weighted_sum

        feats, agg = _graph_inputs(6, 3, isolated, seed=layers)
        runs = []
        for op in (TemporalGraphClassifier._structural_view, structural_chain):
            model = _sage_model(seed=4, mode=mode, feature_dim=3, sage_layers=layers)
            out = op(model, feats, agg)
            weighted_sum(out, seed=layers).backward()
            runs.append((out.data.tobytes(), _param_grads(model)))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 3 * layers + 2  # every sage parameter

    def test_zero_layers_pool_the_features(self):
        # with no SAGE layer the features are pooled and projected directly
        from test_autodiff import weighted_sum

        feats, agg = _graph_inputs(5, 4, True, seed=2)
        runs = []
        for op in (TemporalGraphClassifier._structural_view, structural_chain):
            model = _sage_model(seed=1, feature_dim=4, hidden_dim=4, sage_layers=0)
            out = op(model, feats, agg)
            weighted_sum(out).backward()
            runs.append((out.data.tobytes(), _param_grads(model)))
        assert runs[0] == runs[1] and len(runs[0][1]) == 2
        wide = _sage_model(feature_dim=3, hidden_dim=4, sage_layers=0)
        with pytest.raises(ad.ShapeMismatchError):
            wide._structural_view(np.ones((5, 3)), agg)

    def test_two_calls_on_one_tape_add_like_two_chains(self):
        from test_autodiff import weighted_sum

        inputs = [_graph_inputs(5, 2, False, seed=1), _graph_inputs(7, 2, True, seed=2)]
        grads = []
        for op in (TemporalGraphClassifier._structural_view, structural_chain):
            model = _sage_model(seed=3)
            a, b = (op(model, feats, agg) for feats, agg in inputs)
            ad.add(weighted_sum(a), weighted_sum(b, seed=5)).backward()
            grads.append(_param_grads(model))
        assert len(grads[0]) == 8 and grads[0] == grads[1]

    @pytest.mark.parametrize("mode", ["full", "concat-fuse", "gsage-only"])
    def test_model_step_matches_chains(self, mode, monkeypatch):
        # the whole step, with the structural and head nodes swapped for their chains
        feats, agg = _graph_inputs(5, 3, True, seed=6)
        data = np.random.default_rng(7)
        phi, psi = data.normal(size=(4, 4)), np.abs(data.normal(size=(4, 4)))
        runs = []
        for chain in (False, True):
            if chain:
                monkeypatch.setattr(TemporalGraphClassifier, "_structural_view", structural_chain)
                monkeypatch.setattr(TemporalGraphClassifier, "_head", head_chain)
            model = TemporalGraphClassifier(ModelConfig(mode=mode, feature_dim=3), seed=2)
            logits, fusion = model.forward(phi, psi, feats, agg, train=True)
            ad.cross_entropy_with_logits(logits, 1).backward()
            runs.append((logits.data.tobytes(), fusion.fused.tobytes(),
                         fusion.view_weights.tobytes(), _param_grads(model)))
        assert runs[0] == runs[1]
        assert len(runs[0][3]) == len(model.parameters)


class TestModelConfig:
    @pytest.mark.parametrize("key, value", [
        ("tf_layers", 0), ("tf_heads", 0), ("tf_model_dim", 0), ("tf_ffn_dim", 0),
        ("hidden_dim", 0), ("feature_dim", 0), ("topo_dim", 0), ("dos_bins", 0),
        ("num_classes", 0), ("sage_layers", -1), ("tf_heads", 2.0), ("tf_layers", True),
        ("hidden_dim", "32"),
    ])
    def test_bad_width_is_refused(self, key, value):
        # tf_heads = 0 raised ZeroDivisionError, a zero width failed later as
        # "arena not laid out as one stack", and sage_layers = -1 built a model
        low = 0 if key == "sage_layers" else 1
        with pytest.raises(ValueError, match=f"^{key} must be an integer >= {low}, got "):
            ModelConfig(**{key: value})

    @pytest.mark.parametrize("dropout", [1.5, 1.0, -0.1, float("nan"), "0.1", None, True])
    def test_bad_dropout_is_refused(self, dropout):
        # RunConfig refused 1.5 while ModelConfig built a model with it
        with pytest.raises(ValueError, match=r"^dropout must be a real in \[0, 1\), got "):
            ModelConfig(dropout=dropout)

    def test_checkpoint_with_a_bad_dropout_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _sage_model().save(path)
        payload = json.loads(path.read_text())
        payload["config"]["dropout"] = 1.5
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="dropout must be a real in"):
            TemporalGraphClassifier.load(path)

    def test_no_sage_layer_and_numpy_integers_build(self):
        cfg = ModelConfig(sage_layers=0, hidden_dim=np.int64(3), feature_dim=np.int32(3),
                          tf_layers=1, tf_heads=np.uint8(1), tf_model_dim=4, tf_ffn_dim=6)
        TemporalGraphClassifier(cfg)

    def test_a_model_built_from_numpy_settings_saves(self, tmp_path):
        # json refused the numpy scalars a ModelConfig kept: a builtin TypeError in save
        cfg = ModelConfig(hidden_dim=np.int64(3), dropout=np.float32(0.5), tf_layers=np.uint8(1))
        assert (type(cfg.hidden_dim), type(cfg.tf_layers), type(cfg.dropout)) == (int, int, float)
        TemporalGraphClassifier(cfg).save(tmp_path / "model.json")
        assert TemporalGraphClassifier.load(tmp_path / "model.json").cfg == cfg

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ModelConfig)])
    def test_a_field_cannot_be_assigned(self, key):
        # a model's config could drift from the arrays it was built with
        cfg = ModelConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, key, getattr(cfg, key))


class TestTransformerEncoder:
    def _encoder(self, seed=0, **overrides):
        cfg = ModelConfig(**overrides)
        store = _ParamStore(np.random.default_rng(seed))
        enc = TransformerEncoder(store, "tf", 4, cfg)
        _stack([enc], store.params.values())
        return enc, store

    def test_single_token_stream(self):
        enc, _ = self._encoder()
        view, attn = enc.forward(np.ones((1, 4)))
        assert view.data.shape == (1, VIEW_DIM)
        # every attention matrix on one token is the 1x1 identity
        assert all(a.shape == (1, 1) and a[0, 0] == pytest.approx(1.0) for a in attn)

    def test_attention_rows_sum_to_one(self):
        enc, _ = self._encoder()
        rng = np.random.default_rng(4)
        _, attn = enc.forward(rng.normal(size=(6, 4)))
        assert len(attn) == 4  # 2 layers x 2 heads
        for a in attn:
            assert np.allclose(a.sum(axis=1), 1.0)

    def test_output_depends_on_order(self):
        # positional code must break permutation invariance of pooling
        enc, _ = self._encoder(seed=1)
        rng = np.random.default_rng(8)
        tokens = rng.normal(size=(5, 4))
        v1, _ = enc.forward(tokens)
        v2, _ = enc.forward(tokens[::-1].copy())
        assert not np.allclose(v1.data, v2.data)

    def test_gradients_small_encoder(self):
        tokens = np.random.default_rng(21).normal(size=(3, 4))

        def make(rng):
            cfg = ModelConfig(tf_layers=1, tf_heads=1, tf_model_dim=4, tf_ffn_dim=6)
            store = _ParamStore(rng)
            enc = TransformerEncoder(store, "tf", 4, cfg)
            _stack([enc], store.params.values())
            make.enc = enc
            return list(store.params.values())

        def forward(ps):
            view, _ = make.enc.forward(tokens)
            from test_autodiff import weighted_sum

            return weighted_sum(view)

        fd_check(make, forward, n_trials=3)

    def test_gradients_two_stacked_encoders(self):
        rng0 = np.random.default_rng(22)
        streams = [rng0.normal(size=(3, 4)), rng0.normal(size=(3, 2))]

        def make(rng):
            cfg = ModelConfig(tf_layers=1, tf_heads=2, tf_model_dim=4, tf_ffn_dim=6)
            store = _ParamStore(rng)
            make.encs = [TransformerEncoder(store, f"tf{i}", t.shape[1], cfg)
                         for i, t in enumerate(streams)]
            make.blocks = _stack(make.encs, store.params.values())[2]
            return list(store.params.values())

        def forward(ps):
            views, _ = encode(make.encs, make.blocks, streams)
            from test_autodiff import weighted_sum

            return weighted_sum(views)

        fd_check(make, forward, n_trials=2)


def encoder_chain(enc, tokens, rng=None, train=False):
    """One encoder as the chain of tape ops that ``encode`` replaces, kept
    as its reference: returns (view 1x10 Tensor, attention matrices)."""
    cfg = enc.cfg
    n = tokens.shape[0]
    x = ad.add(ad.matmul(tokens, enc.w_in), enc.b_in)
    x = ad.embedding_add(x, Tensor(time_embedding(n, cfg.tf_model_dim)))
    attn_all = []
    scale = 1.0 / np.sqrt(cfg.tf_model_dim // cfg.tf_heads)
    for layer in enc.layers:
        normed = ad.layer_norm(x, layer["ln1_g"], layer["ln1_b"])
        heads_out, probs = attention_chain(normed, layer["heads"], scale)
        attn_all += probs
        attended = ad.matmul(heads_out, layer["wo"])
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
    return ad.add(ad.matmul(_row(pooled), enc.w_out), enc.b_out), attn_all


class TestStackedEncoderMatchesChain:
    """``encode`` gives the bytes of running each encoder as the unfused
    chain: views, attention matrices, every parameter gradient and the rng
    state after the dropout draws."""

    @pytest.mark.parametrize("stack", [1, 2])
    @pytest.mark.parametrize("n", [1, 5, 92])  # 92: the long-stream token count
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_bytes(self, stack, n, heads, dropout):
        from test_autodiff import weighted_sum

        data = np.random.default_rng(40 + n)
        streams = [data.normal(size=(n, 4)), data.normal(size=(n, 3))][:stack]
        cfg = ModelConfig(tf_heads=heads, dropout=dropout)
        runs = []
        for stacked in (True, False):
            store = _ParamStore(np.random.default_rng(9))
            encs = [TransformerEncoder(store, f"tf{i}", t.shape[1], cfg)
                    for i, t in enumerate(streams)]
            rng = np.random.default_rng(11)
            if stacked:
                views, probs = encode(encs, _stack(encs, store.params.values())[2], streams,
                                      rng, train=True)
            else:
                chains = [encoder_chain(e, t, rng, train=True) for e, t in zip(encs, streams)]
                views = ad.concat([v for v, _ in chains], axis=0)
                probs = [p for _, p in chains]
            weighted_sum(views).backward()
            runs.append((views.data.tobytes(), [[a.tobytes() for a in p] for p in probs],
                         [t.grad.tobytes() for t in store.params.values()], rng.random()))
        assert runs[0] == runs[1]

    def test_streams_of_unequal_length_rejected(self):
        cfg = ModelConfig()
        store = _ParamStore(np.random.default_rng(0))
        encs = [TransformerEncoder(store, f"tf{i}", 4, cfg) for i in range(2)]
        blocks = _stack(encs, store.params.values())[2]
        with pytest.raises(ad.ShapeMismatchError):
            encode(encs, blocks, [np.zeros((3, 4)), np.zeros((4, 4))])


class TestParameterArena:
    """A model lays its parameters out in one arena when it is built, each
    encoder group as one (S, ...) block; ``encode`` reads the blocks, so it
    sees every in-place change to a parameter without copying it."""

    def _model(self, seed=6):
        return TemporalGraphClassifier(ModelConfig(feature_dim=3), seed=seed)

    def _streams(self, seed=7, n=5):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(n, 4)), rng.normal(size=(n, 4))]

    def _assert_encode_is_chain(self, model, streams):
        views, _ = encode(model.encoders, model.blocks, streams)
        for e, t, row in zip(model.encoders, streams, views.data):
            assert row.tobytes() == encoder_chain(e, t)[0].data.tobytes()
        return views.data.tobytes()

    def _assert_not_repacked(self, model):
        assert all(t.data.base is model.arena and t._grad_view.base is model.grad_arena
                   for t in model.parameters.values())

    def test_stacks_share_memory_with_the_arena(self):
        model = self._model()
        params, grads, groups, params_t = model.blocks
        assert len(params) == len(grads) == len(groups) == len(params_t) == 2 * 10 + 2
        for p, g, ts, p_t in zip(params, grads, groups, params_t):
            # matmuls read a block's transposed view, built once, as the chain read w.T
            assert p_t.base is model.arena and p_t.ctypes.data == p.ctypes.data
            assert p_t.shape == (*p.shape[:-2], p.shape[-1], p.shape[-2])
            assert p_t.strides == (*p.strides[:-2], p.strides[-1], p.strides[-2])
            assert np.shares_memory(p, model.arena) and np.shares_memory(g, model.grad_arena)
            assert p.base is model.arena and g.base is model.grad_arena
            assert p.flags.c_contiguous and g.flags.c_contiguous  # one slice each
            assert all(np.shares_memory(p, t.data) for t in ts)
            assert all(np.shares_memory(g, t._grad_view) for t in ts)
            assert p.reshape(len(ts), -1).tolist() == [t.data.reshape(-1).tolist() for t in ts]
        self._assert_not_repacked(model)
        assert params[4].shape == (2, 2, 3, 32, 16)  # q, k, v of both heads
        assert params[0].shape == (2, 1, 32)
        for i, e in enumerate(model.encoders):
            rows, grad_rows, tensors, rows_t = e.blocks
            assert tensors is e.groups
            assert all(np.shares_memory(r, p[i]) and r.shape == (1, *p.shape[1:])
                       for r, p in zip(rows + grad_rows + rows_t, params + grads + params_t))

    def test_encoder_forward_is_its_row_of_encode(self):
        # each encoder runs on its row of the model's blocks, with no repack,
        # and its backward writes into its rows of the gradient arena only
        model = self._model()
        streams = self._streams()
        views, probs = encode(model.encoders, model.blocks, streams)
        for i, (e, t) in enumerate(zip(model.encoders, streams)):
            view, attn = e.forward(t)
            assert view.data.tobytes() == views.data[i:i + 1].tobytes()
            assert [a.tobytes() for a in attn] == [a.tobytes() for a in probs[i]]
            weighted_sum(view).backward()
            assert all(tn.grad is not None and tn.grad.base is model.grad_arena
                       for ts in e.groups for tn in ts)
            assert all(tn.grad is None for other in model.encoders[i + 1:]
                       for ts in other.groups for tn in ts)
        self._assert_not_repacked(model)

    def test_encode_copies_no_parameter(self):
        model = self._model()
        streams = self._streams(n=1)
        encode(model.encoders, model.blocks, streams)
        tracemalloc.start()
        try:
            encode(model.encoders, model.blocks, streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the encoders' parameters take 275 kB; one token's activations about 25 kB
        assert peak < 100_000

    def test_encode_sees_an_adam_step(self):
        model = self._model()
        opt = Adam(model.parameters, lr=0.1)
        assert opt.flat is model.arena
        before = self._assert_encode_is_chain(model, self._streams())
        rng = np.random.default_rng(3)
        agg = np.full((4, 4), 0.25)
        logits, _ = model.forward(*self._streams(), rng.normal(size=(4, 3)), agg, train=True)
        ad.cross_entropy_with_logits(logits, 1).backward()
        opt.step()
        assert self._assert_encode_is_chain(model, self._streams()) != before

    def test_encode_sees_a_loaded_checkpoint(self, tmp_path):
        source, model = self._model(seed=8), self._model()
        self._assert_encode_is_chain(model, self._streams())
        source.save(tmp_path / "ckpt.json")
        loaded = TemporalGraphClassifier.load(tmp_path / "ckpt.json")
        assert (self._assert_encode_is_chain(loaded, self._streams())
                == encode(source.encoders, source.blocks, self._streams())[0].data.tobytes())

    def test_fusion_weights_are_one_view_of_the_arena(self, tmp_path):
        # the head reads q, k and v as one (1, 3, 10, 10) view: it sees an Adam
        # step and a loaded checkpoint without a copy
        def stacked(m):
            return np.stack([t.data for t in m.fuse])[None]

        model = self._model()
        assert model.fuse_w.shape == (1, 3, VIEW_DIM, VIEW_DIM) and model.fuse_w.base is model.arena
        assert all(np.shares_memory(model.fuse_w[0, x], t.data) for x, t in enumerate(model.fuse))
        assert model.fuse_w.tobytes() == stacked(model).tobytes()
        opt, before = Adam(model.parameters, lr=0.1), model.fuse_w.copy()
        rng = np.random.default_rng(3)
        logits, _ = model.forward(*self._streams(), rng.normal(size=(4, 3)), np.full((4, 4), 0.25),
                                  train=True)
        ad.cross_entropy_with_logits(logits, 1).backward()
        opt.step()
        assert not np.array_equal(model.fuse_w, before)
        assert model.fuse_w.tobytes() == stacked(model).tobytes()
        model.save(tmp_path / "ckpt.json")
        loaded = TemporalGraphClassifier.load(tmp_path / "ckpt.json")
        assert loaded.fuse_w.base is loaded.arena
        assert loaded.fuse_w.tobytes() == model.fuse_w.tobytes()

    def test_encode_sees_in_place_writes(self):
        model = self._model()
        before = self._assert_encode_is_chain(model, self._streams())
        for e in model.encoders:
            for t in (e.layers[1]["heads"][1][2], e.layers[0]["ln2_b"], e.b_out):
                t.data[...] = np.random.default_rng(4).normal(size=t.data.shape)
        assert self._assert_encode_is_chain(model, self._streams()) != before

    def test_two_encode_calls_on_one_tape_add_like_two_chains(self):
        grads = []
        for stacked in (True, False):
            model = self._model()
            outs = []
            for seed in (1, 2):
                streams = self._streams(seed)
                if stacked:
                    outs.append(encode(model.encoders, model.blocks, streams)[0])
                else:
                    outs.append(ad.concat([encoder_chain(e, t)[0]
                                           for e, t in zip(model.encoders, streams)]))
            ad.add(weighted_sum(outs[0]), weighted_sum(outs[1], seed=5)).backward()
            grads.append({k: t.grad.tobytes() for k, t in model.parameters.items()
                          if t.grad is not None})
        assert len(grads[0]) == 2 * 34 and grads[0] == grads[1]  # every encoder parameter

    def test_adam_over_every_parameter_in_any_order_updates_the_arena(self):
        model = self._model()
        before = self._assert_encode_is_chain(model, self._streams())
        opt = Adam(dict(reversed(model.parameters.items())), lr=0.1)
        assert opt.flat is model.arena and opt._grad is model.grad_arena
        for t in model.parameters.values():
            t.grad = np.ones(t.data.shape)
        opt.step()
        self._assert_not_repacked(model)
        assert self._assert_encode_is_chain(model, self._streams()) != before

    def test_an_optimizer_that_repacks_is_followed(self):
        # Adam over a bare store's stacked encoders, in the store's order
        # rather than the arena's, reuses the arena instead of repacking it,
        # so encode reads its step
        store = _ParamStore(np.random.default_rng(2))
        encs = [TransformerEncoder(store, f"tf{i}", 4, ModelConfig()) for i in range(2)]
        arena, _, blocks = _stack(encs, store.params.values())
        model = SimpleNamespace(encoders=encs, blocks=blocks)
        before = self._assert_encode_is_chain(model, self._streams())
        opt = Adam(store.params, lr=0.1)
        assert opt.flat is arena
        for t in store.params.values():
            t.grad = np.ones(t.data.shape)
        opt.step()
        assert all(np.shares_memory(p, opt.flat) for p in blocks[0])
        assert self._assert_encode_is_chain(model, self._streams()) != before

    @pytest.mark.parametrize("params, error", [
        (lambda store: dict(reversed(store.params.items())), "laid out as one stack"),
        (lambda store: dict(list(store.params.items())[:34]), "tile exactly one"),  # the first encoder
    ], ids=["reversed", "first_only"])
    def test_parameters_not_laid_out_as_a_stack_are_rejected(self, params, error):
        # an optimizer packed them in another order, or only some of them,
        # before the encoders were stacked
        store = _ParamStore(np.random.default_rng(2))
        encs = [TransformerEncoder(store, f"tf{i}", 4, ModelConfig()) for i in range(2)]
        Adam(params(store))
        with pytest.raises(ValueError, match=error):
            _stack(encs, store.params.values())

    @pytest.mark.parametrize("part", [
        lambda ps: {k: t for k, t in ps.items() if k.startswith("topo_tf.")},
        lambda ps: {**{k: t for k, t in ps.items() if k != "topo_tf.b_out"},
                    "alias": ps["dos_tf.b_out"]},  # the arena's size, one tensor twice
    ], ids=["first_encoder", "duplicate"])
    def test_adam_over_part_of_the_arena_is_refused(self, part):
        # repacking them would leave the blocks that encode reads stale
        model = self._model()
        with pytest.raises(ValueError, match="do not tile exactly one"):
            Adam(part(model.parameters))
        self._assert_not_repacked(model)


PARENT_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1_small.json"


class TestCheckpointBytes:
    """Packing the parameters into an arena leaves the v1 checkpoint format
    alone: both pins were recorded before the arena existed."""

    def test_save_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "ckpt.json"
        TemporalGraphClassifier(ModelConfig(feature_dim=6), seed=1).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4ed99f56b77b899a41670ae3f6d67419750da4ddaa189120a73504a080ede761")

    def test_an_older_checkpoint_loads_bit_exactly(self, tmp_path):
        # saved from TemporalGraphClassifier(cfg, seed=5) before the arena
        payload = json.loads(PARENT_CHECKPOINT.read_text())
        model = TemporalGraphClassifier.load(PARENT_CHECKPOINT)
        fresh = TemporalGraphClassifier(ModelConfig(**payload["config"]), seed=5)
        assert list(model.parameters) == list(payload["params"])
        for name, t in model.parameters.items():
            entry = payload["params"][name]
            assert t.data.tobytes() == np.array(entry["data"]).reshape(entry["shape"]).tobytes()
            assert t.data.tobytes() == fresh.parameters[name].data.tobytes()
        model.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == PARENT_CHECKPOINT.read_bytes()


def fusion_node(views, wq, wk, wv):
    """``fusion_attention`` on a tape: the kernel's value, reshaped to one row,
    and its gradients as one node (the views' adds the residual's, then q's,
    k's and v's parts, as ``_head`` does)."""
    fused, weights, grad = fusion_attention(views.data, np.stack([wq.data, wk.data, wv.data])[None])

    def backward(g):
        g = g.reshape(fused.shape)
        parts, g_ws = grad(g)
        if views.requires_grad:
            views._accumulate(g + parts[0, 0] + parts[0, 1] + parts[0, 2])
        for w, g_w in zip((wq, wk, wv), g_ws[0]):
            w._accumulate(g_w)

    return Tensor(fused.reshape(1, -1), parents=(views, wq, wk, wv), backward=backward), weights


class TestFusionAttention:
    """``fusion_attention`` is the attention op, residual and reshape chain
    (``fusion_chain``) on arrays: value, view weights and every gradient."""

    def _qkv(self, rng):
        store = _ParamStore(rng)
        return (
            store.matrix("wq", VIEW_DIM, VIEW_DIM),
            store.matrix("wk", VIEW_DIM, VIEW_DIM),
            store.matrix("wv", VIEW_DIM, VIEW_DIM),
        )

    def test_zero_qk_gives_uniform_weights(self):
        rng = np.random.default_rng(5)
        wq = Tensor(np.zeros((VIEW_DIM, VIEW_DIM)), requires_grad=True)
        wk = Tensor(np.zeros((VIEW_DIM, VIEW_DIM)), requires_grad=True)
        wv = Tensor(rng.normal(size=(VIEW_DIM, VIEW_DIM)), requires_grad=True)
        views = Tensor(rng.normal(size=(3, VIEW_DIM)))
        fused, weights = fusion_node(views, wq, wk, wv)
        assert np.allclose(weights, 1.0 / 3.0)
        assert fused.data.shape == (1, 3 * VIEW_DIM)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(6)
        wq, wk, wv = self._qkv(rng)
        _, weights = fusion_node(Tensor(rng.normal(size=(3, VIEW_DIM))), wq, wk, wv)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (weights >= 0).all()

    def test_shape_check(self):
        rng = np.random.default_rng(0)
        wq, wk, wv = self._qkv(rng)
        with pytest.raises(ad.ShapeMismatchError):
            fusion_attention(np.zeros((2, VIEW_DIM)), np.stack([wq.data, wk.data, wv.data])[None])

    @pytest.mark.parametrize("views_grad", [True, False], ids=["views_grad", "constant_views"])
    def test_bytes_match_chain(self, views_grad):
        # value, view weights, and the gradients of the views (the residual's,
        # then q's, k's and v's) and of each weight
        from test_autodiff import weighted_sum

        data = np.random.default_rng(34).normal(size=(3, VIEW_DIM))
        runs = []
        for op in (fusion_node, fusion_chain):
            views = Tensor(data.copy(), requires_grad=views_grad)
            ps = self._qkv(np.random.default_rng(8))
            fused, weights = op(views, *ps)
            weighted_sum(fused, seed=9).backward()
            grads = [t.grad.tobytes() for t in (views, *ps) if t.requires_grad]
            runs.append((fused.data.tobytes(), weights.tobytes(), grads))
        assert runs[0] == runs[1]
        assert len(runs[0][2]) == 3 + views_grad

    def test_gradients(self):
        views = np.random.default_rng(33).normal(size=(3, VIEW_DIM))

        def make(rng):
            return list(self._qkv(rng))

        def forward(ps):
            fused, _ = fusion_node(Tensor(views), *ps)
            from test_autodiff import weighted_sum

            return weighted_sum(fused)

        fd_check(make, forward, n_trials=3)


class TestHeadMatchesChain:
    """``_head`` gives the bytes of the chain concat, fusion attention (full
    mode), dropout and linear (``head_chain``): logits, fused row, view
    weights, the gradients of the views and of every parameter, and the rng
    state after the dropout draws."""

    @staticmethod
    def _views(model, seed):
        # a structural row, then one row per encoder, as forward passes them
        rows = [1] * model.has_view[0] + [len(model.encoders)] * bool(model.encoders)
        data = np.random.default_rng(seed)
        return [Tensor(data.normal(size=(r, VIEW_DIM)), requires_grad=True) for r in rows]

    @pytest.mark.parametrize("calls", [1, 2], ids=["one_call", "two_calls_one_tape"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("mode", MODES)
    def test_bytes(self, mode, dropout, calls):
        runs = []
        for op in (TemporalGraphClassifier._head, head_chain):
            model = TemporalGraphClassifier(ModelConfig(mode=mode, feature_dim=3,
                                                        dropout=dropout), seed=4)
            rng = np.random.default_rng(12)
            views = [self._views(model, seed) for seed in range(calls)]
            outs = [op(model, vs, rng, train=True) for vs in views]
            losses = [ad.cross_entropy_with_logits(logits, i % 2)
                      for i, (logits, _) in enumerate(outs)]
            (losses[0] if calls == 1 else ad.add(*losses)).backward()
            runs.append(([(logits.data.tobytes(), fusion.fused.tobytes(),
                           fusion.view_weights.tobytes()) for logits, fusion in outs],
                         [t.grad.tobytes() for vs in views for t in vs],
                         _param_grads(model), rng.random()))
        assert runs[0] == runs[1]
        assert len(runs[0][2]) == 2 + 3 * (mode == "full")  # cls.w, cls.b, fuse.*

    @pytest.mark.parametrize("mode", MODES)
    def test_without_grad_no_tape(self, mode):
        model = TemporalGraphClassifier(ModelConfig(mode=mode, feature_dim=3), seed=4)
        views = self._views(model, 0)
        (taped, fusion), (bare, fusion_bare) = (model._head(views, grad=g) for g in (True, False))
        assert taped.data.tobytes() == bare.data.tobytes()
        assert fusion.fused.tobytes() == fusion_bare.fused.tobytes()
        assert fusion.view_weights.tobytes() == fusion_bare.view_weights.tobytes()
        assert bare._backward is None and bare._parents == () and not bare.requires_grad


class TestClassifier:
    def _toy_inputs(self, cfg, rng, n_windows=4):
        n_nodes = 5
        phi = rng.normal(size=(n_windows, cfg.topo_dim))
        psi = np.abs(rng.normal(size=(n_windows, cfg.dos_bins)))
        feats = rng.normal(size=(n_nodes, cfg.feature_dim))
        g = from_events(n_nodes, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0)])
        agg = mean_aggregation_matrix(static_projection(g))
        return phi, psi, feats, agg

    def test_forward_shapes_all_modes(self):
        rng = np.random.default_rng(12)
        for mode in ("full", "concat-fuse", "gsage-only", "topo-only", "dos-only"):
            cfg = ModelConfig(mode=mode, feature_dim=3)
            model = TemporalGraphClassifier(cfg, seed=1)
            phi, psi, feats, agg = self._toy_inputs(cfg, rng)
            logits, fusion = model.forward(phi, psi, feats, agg)
            assert logits.data.shape == (1, cfg.num_classes)
            assert fusion.view_weights.sum() == pytest.approx(1.0)

    def test_ablation_weights_are_onehot(self):
        rng = np.random.default_rng(13)
        cfg = ModelConfig(mode="topo-only", feature_dim=3)
        model = TemporalGraphClassifier(cfg, seed=2)
        phi, psi, feats, agg = self._toy_inputs(cfg, rng)
        _, fusion = model.forward(phi, psi, feats, agg)
        assert fusion.view_weights.tolist() == [0.0, 1.0, 0.0]

    def test_deterministic_eval(self):
        rng = np.random.default_rng(14)
        cfg = ModelConfig(mode="full", feature_dim=3)
        phi, psi, feats, agg = self._toy_inputs(cfg, rng)
        a = TemporalGraphClassifier(cfg, seed=3).forward(phi, psi, feats, agg)
        b = TemporalGraphClassifier(cfg, seed=3).forward(phi, psi, feats, agg)
        assert np.array_equal(a[0].data, b[0].data)

    @pytest.mark.parametrize("mode", ["full", "topo-only"])
    def test_eval_forward_keeps_no_encoder_tape(self, mode):
        # the same bytes as a forward with a tape, at a smaller peak: at a
        # long stream (N = 92) the encoders' temporaries do not outlive their layer
        rng = np.random.default_rng(16)
        cfg = ModelConfig(mode=mode, feature_dim=3)
        model = TemporalGraphClassifier(cfg, seed=6)
        phi, psi, feats, agg = self._toy_inputs(cfg, rng, n_windows=92)
        runs, peaks = [], []
        for grad in (True, False):
            tracemalloc.start()
            logits, fusion = model.forward(phi, psi, feats, agg, grad=grad)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            runs.append((logits.data.tobytes(), fusion.fused.tobytes(),
                         fusion.view_weights.tobytes()))
        assert runs[0] == runs[1]
        assert peaks[1] < 0.7 * peaks[0]
        streams = [phi, psi][:len(model.encoders)]
        _, probs = encode(model.encoders, model.blocks, streams, grad=False)
        assert probs == [[]] * len(model.encoders)

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        cfg = ModelConfig(mode="full", feature_dim=3)
        model = TemporalGraphClassifier(cfg, seed=4)
        path = tmp_path / "ckpt.json"
        model.save(path)
        clone = TemporalGraphClassifier.load(path)
        assert set(clone.parameters) == set(model.parameters)
        for name, t in model.parameters.items():
            assert np.array_equal(t.data, clone.parameters[name].data), name
        phi, psi, feats, agg = self._toy_inputs(cfg, rng)
        la, _ = model.forward(phi, psi, feats, agg)
        lb, _ = clone.forward(phi, psi, feats, agg)
        assert np.array_equal(la.data, lb.data)

    def test_load_writes_into_existing_parameter_arrays(self, tmp_path, monkeypatch):
        cfg = ModelConfig(mode="full", feature_dim=3)
        model = TemporalGraphClassifier(cfg, seed=5)
        path = tmp_path / "ckpt.json"
        model.save(path)
        created = {}
        init = TemporalGraphClassifier.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.update((name, t.data) for name, t in self.parameters.items())

        monkeypatch.setattr(TemporalGraphClassifier, "__init__", recording_init)
        clone = TemporalGraphClassifier.load(path)
        for name, t in clone.parameters.items():
            assert t.data is created[name], name
            assert np.array_equal(t.data, model.parameters[name].data), name

    def test_end_to_end_gradients_tiny_model(self):
        cfg = ModelConfig(
            mode="full",
            feature_dim=2,
            hidden_dim=3,
            sage_layers=1,
            tf_layers=1,
            tf_heads=1,
            tf_model_dim=4,
            tf_ffn_dim=4,
        )
        rng0 = np.random.default_rng(50)
        phi = rng0.normal(size=(3, cfg.topo_dim))
        psi = rng0.normal(size=(3, cfg.dos_bins))
        feats = rng0.normal(size=(4, 2))
        g = from_events(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        agg = mean_aggregation_matrix(static_projection(g))

        def make(rng):
            model = TemporalGraphClassifier(cfg, seed=int(rng.integers(1 << 30)))
            make.model = model
            return list(model.parameters.values())

        def forward(ps):
            logits, _ = make.model.forward(phi, psi, feats, agg)
            return ad.cross_entropy_with_logits(logits, 1)

        fd_check(make, forward, n_trials=1)

    def test_training_step_tape(self):
        # one full-mode step as on the desk workload (2 sage layers, two
        # 2-layer 2-head encoders, fusion attention, no dropout).  The unfused
        # tape ran 151 backward closures per step; linear and attention nodes
        # cut that to 66, running both encoders as one stacked node to 21, the
        # GraphSAGE branch and the fusion block as one node each to 6, and the
        # head (concat, fusion, classifier) as one node to 4: loss, head,
        # encode, structural, run in reverse creation order.  No leaf runs.
        cfg = ModelConfig(mode="full", feature_dim=3)
        model = TemporalGraphClassifier(cfg, seed=1)
        phi, psi, feats, agg = self._toy_inputs(cfg, np.random.default_rng(3))
        logits, _ = model.forward(phi, psi, feats, agg, train=True)
        loss = ad.cross_entropy_with_logits(logits, 1)
        tensors, stack, ran = {}, [loss], []
        while stack:  # every tensor upstream of the loss, leaves included
            t = stack.pop()
            if id(t) not in tensors:
                tensors[id(t)] = t
                stack.extend(t._parents)

        def recording(t, run):
            return lambda g: ran.append(t) or run(g)

        for t in tensors.values():
            if t._backward is not None:
                t._backward = recording(t, t._backward)
        loss.backward()
        assert len(tensors) == 4 + len(model.parameters)
        assert [t.data.shape for t in ran] == [(), (1, 2), (2, VIEW_DIM), (1, VIEW_DIM)]
        assert ran[:2] == [loss, logits]
        assert [t._stamp for t in ran] == sorted((t._stamp for t in ran), reverse=True)
        assert all(t.grad is not None for t in model.parameters.values())

    def test_training_step_tape_with_the_loss_in_the_head(self):
        # given a label, the head's node is the loss: 3 closures a step, and
        # its backward starts from softmax - one-hot
        cfg = ModelConfig(mode="full", feature_dim=3)
        model = TemporalGraphClassifier(cfg, seed=1)
        phi, psi, feats, agg = self._toy_inputs(cfg, np.random.default_rng(3))
        logits = model.forward(phi, psi, feats, agg, train=True)[0].data.reshape(-1)
        loss, _ = model.forward(phi, psi, feats, agg, train=True, label=1)
        ran = []

        def recording(t, run):
            return lambda g: ran.append(t) or run(g)

        for t in (loss, *loss._parents):
            if t._backward is not None:
                t._backward = recording(t, t._backward)
        loss.backward()
        assert [t.data.shape for t in ran] == [(), (2, VIEW_DIM), (1, VIEW_DIM)]
        assert ran[0] is loss and loss._parents[-2:] == (model.cls_w, model.cls_b)
        assert all(t.grad is not None for t in model.parameters.values())
        probs = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
        assert np.allclose(model.cls_b.grad, probs - [0.0, 1.0], rtol=0, atol=1e-15)


    def test_checkpoint_config_cannot_size_the_model(self, tmp_path):
        # a 98-byte file whose config asks for 1500-wide layers and that holds
        # no array: the model used to be built (105 MB) before any array was read
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"format": "tgtopo-checkpoint-v1",
                                    "config": {"feature_dim": 1, "hidden_dim": 1500},
                                    "params": {}}))
        assert path.stat().st_size == 98
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError):
                TemporalGraphClassifier.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_checkpoint_array_of_another_shape_is_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _sage_model().save(path)
        payload = json.loads(path.read_text())
        payload["params"]["sage.proj_b"] = {"shape": [1, 10], "data": [0.0] * 10}
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="sage.proj_b"):
            TemporalGraphClassifier.load(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_checkpoint_array_is_rejected(self, value, tmp_path):
        # json reads NaN and Infinity, and evaluation used to run on NaN logits
        path = tmp_path / "ckpt.json"
        _sage_model().save(path)
        payload = json.loads(path.read_text())
        payload["params"]["cls.b"]["data"][0] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="cls.b"):
            TemporalGraphClassifier.load(path)

    def test_bad_checkpoint_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            TemporalGraphClassifier.load(path)


class TestLossInHead:
    """``forward`` given a label returns the loss from the head's node, with
    the bytes of the unfused chain ``cross_entropy_with_logits(forward(...)[0],
    label)``: the loss, the fused row, every parameter gradient and the rng
    state after the dropout draws."""

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(MODES), dropout=st.sampled_from([0.0, 0.3]),
           label=st.sampled_from([0, 1]), n=st.integers(1, 8), seed=st.integers(0, 2**16))
    def test_bytes_match_the_unfused_loss(self, mode, dropout, label, n, seed):
        data = np.random.default_rng(seed)
        phi, psi = data.normal(size=(n, 4)), np.abs(data.normal(size=(n, 4)))
        feats, agg = _graph_inputs(5, 3, seed % 2 == 1, seed)
        runs = []
        for in_head in (True, False):
            model = TemporalGraphClassifier(ModelConfig(mode=mode, feature_dim=3,
                                                        dropout=dropout), seed=seed % 5)
            rng = np.random.default_rng(seed)
            if in_head:
                loss, fusion = model.forward(phi, psi, feats, agg, rng, train=True, label=label)
            else:
                logits, fusion = model.forward(phi, psi, feats, agg, rng, train=True)
                loss = ad.cross_entropy_with_logits(logits, label)
            loss.backward()
            runs.append((loss.data.tobytes(), fusion.fused.tobytes(), _param_grads(model),
                         rng.random()))
        assert runs[0] == runs[1]
        assert len(runs[0][2]) == len(model.parameters)

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_out_of_range(self, label):
        model = TemporalGraphClassifier(ModelConfig(mode="topo-only"), seed=0)
        with pytest.raises(ad.ShapeMismatchError, match=f"label {label} out of range"):
            model.forward(np.zeros((3, 4)), None, None, None, train=True, label=label)
