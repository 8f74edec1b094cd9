import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (as_windows, bfs_component_count, er_window, random_er_edges,
                      window_from_edges)
from tgtopo.spectral import (
    _laplacians,
    _w1,
    SpectralError,
    SymMatrix,
    dos_histogram,
    eigenvalues_sym,
    normalized_laplacian,
    spectral_descriptor,
    spectral_descriptors,
)
from tgtopo.stability import _edit_edges
from tgtopo.temporal import WindowGraph, stack_windows


class TestNormalizedLaplacian:
    def test_k2(self):
        lap = normalized_laplacian(window_from_edges([(0, 1)]))
        assert np.allclose(lap.array, [[1.0, -1.0], [-1.0, 1.0]])

    def test_p3(self):
        lap = normalized_laplacian(window_from_edges([(0, 1), (1, 2)]))
        s = 1.0 / math.sqrt(2.0)
        expected = np.array([[1.0, -s, 0.0], [-s, 1.0, -s], [0.0, -s, 1.0]])
        assert np.allclose(lap.array, expected)

    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            edges = random_er_edges(rng, int(rng.integers(3, 20)), 0.3)
            if not edges:
                continue
            lap = normalized_laplacian(window_from_edges(edges))
            assert np.allclose(np.diag(lap.array), 1.0)
            # exact, so the Laplacian needs no symmetrizing pass
            assert np.array_equal(lap.array, lap.array.T)

    def test_edgeless_node_is_rejected(self):
        # ``window`` never builds one; a hand-built window would divide by 0
        w = WindowGraph(0, 0.0, 1.0, (0, 1, 5), ((0, 1),), (1,))
        with pytest.raises(SpectralError):
            normalized_laplacian(w)


def dense_laplacians(g, n, w, i, j):
    """The dense ``eye - inv * A * inv`` form that the pair-built Laplacians
    replaced, kept as their oracle."""
    a = np.zeros((g, n, n))
    a[w, i, j] = a[w, j, i] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=-1))
    return np.eye(n) - inv_sqrt[..., :, None] * a * inv_sqrt[..., None, :]


def assert_same_laplacians(g, n, w, i, j):
    got, want = _laplacians(g, n, w, i, j), dense_laplacians(g, n, w, i, j)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.signbit(got), np.signbit(want))  # +0.0 off the edges, as before
    assert got.tobytes() == want.tobytes()


class TestPairBuiltLaplacians:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 8), data=st.data())
    def test_random_stacks_match_dense_form(self, n, data):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        graphs = data.draw(st.lists(st.lists(st.booleans(), min_size=len(pairs),
                                             max_size=len(pairs)), min_size=1, max_size=4))
        edges = []
        for w, keep in enumerate(graphs):
            chosen = {p for p, k in zip(pairs, keep) if k}
            for v in range(n):  # every node needs an edge
                if not any(v in p for p in chosen):
                    chosen.add(tuple(sorted((v, (v + 1) % n))))
            edges += [(w, *p) for p in sorted(chosen)]
        w, i, j = np.array(edges, np.int64).T
        assert_same_laplacians(len(graphs), n, w, i, j)

    @pytest.mark.parametrize("g", [2, 5, 30])
    def test_one_edge_windows(self, g):
        # g windows, each the single edge (0, 1) on two nodes
        assert_same_laplacians(g, 2, np.arange(g), np.zeros(g, np.int64), np.ones(g, np.int64))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 16))
    def test_edge_trial_pairs_match_dense_form(self, seed, k):
        rng = np.random.default_rng(seed)
        win = er_window(rng, 4, 20, 0.3)
        k = min(k, win.num_nodes * (win.num_nodes - 1) // 2 - win.num_edges)  # inserts suffice
        before = win.local_edges()
        after = _edit_edges(win.num_nodes, before, k, seed)
        i, j = np.concatenate([before, after]).T
        assert_same_laplacians(2, win.num_nodes, np.repeat([0, 1], [len(before), len(after)]), i, j)


class TestEigenvaluesSym:
    def test_diagonal_matrix(self):
        eigs = eigenvalues_sym(SymMatrix(3, np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(eigs, [1.0, 2.0, 3.0])

    def test_p3_laplacian_spectrum(self):
        lap = normalized_laplacian(window_from_edges([(0, 1), (1, 2)]))
        assert np.allclose(eigenvalues_sym(lap), [0.0, 1.0, 2.0], atol=1e-12)

    def test_k2_laplacian_spectrum(self):
        lap = normalized_laplacian(window_from_edges([(0, 1)]))
        assert np.allclose(eigenvalues_sym(lap), [0.0, 2.0], atol=1e-12)

    def test_matches_numpy_on_laplacians_up_to_50(self):
        # 100 random windows with n <= 50, the acceptance-grade corpus
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 100:
            n = int(rng.integers(5, 51))
            edges = random_er_edges(rng, n, 0.15)
            if not edges:
                continue
            lap = normalized_laplacian(window_from_edges(edges))
            got = eigenvalues_sym(lap)
            want = np.linalg.eigvalsh(lap.array)
            assert np.abs(got - want).max() < 1e-10
            assert got.min() > -1e-9 and got.max() < 2.0 + 1e-9
            checked += 1

    def test_trace_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            edges = random_er_edges(rng, 15, 0.3)
            if not edges:
                continue
            lap = normalized_laplacian(window_from_edges(edges))
            eigs = eigenvalues_sym(lap)
            assert eigs.sum() == pytest.approx(np.trace(lap.array), abs=1e-9)


class TestDosHistogram:
    def test_k2(self):
        eigs = eigenvalues_sym(normalized_laplacian(window_from_edges([(0, 1)])))
        h = dos_histogram(eigs)
        assert np.allclose(h.mass, [0.5, 0.0, 0.0, 0.5])

    def test_p3(self):
        eigs = eigenvalues_sym(normalized_laplacian(window_from_edges([(0, 1), (1, 2)])))
        h = dos_histogram(eigs)
        assert np.allclose(h.mass, [1 / 3, 0.0, 1 / 3, 1 / 3])

    def test_bin_edges(self):
        h = dos_histogram(np.array([0.0]))
        assert np.allclose(h.bin_edges, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_half_open_bins_last_closed(self):
        h = dos_histogram(np.array([0.5, 2.0]))
        assert np.allclose(h.mass, [0.0, 0.5, 0.0, 0.5])

    def test_round_off_at_interior_edges_lands_in_upper_bin(self):
        h = dos_histogram([1 - 2e-16, 1 + 2e-16, 1.5 - 2e-16, 0.0])
        assert h.mass == (0.25, 0.0, 0.5, 0.25)

    def test_edge_value_lands_in_upper_bin_for_any_bin_count(self):
        # 1.2 / 0.4 and 0.6 / 0.2 round down to 2.9999999999999996: binning
        # must compare with the edges, not floor a quotient
        assert dos_histogram([0.6], 10).mass == tuple(float(j == 3) for j in range(10))
        k6 = window_from_edges([(u, v) for u in range(6) for v in range(u + 1, 6)])
        eigs = eigenvalues_sym(normalized_laplacian(k6))  # 0 once, 6/5 five times
        assert np.allclose(dos_histogram(eigs, 5).mass, [1 / 6, 0, 0, 5 / 6, 0])
        stack = stack_windows(as_windows([k6]))
        assert np.array_equal(spectral_descriptors(stack, 5)[0][0],
                              dos_histogram(eigs, 5).mass)

    def test_normalized(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            eigs = rng.uniform(0, 2, size=int(rng.integers(1, 40)))
            assert sum(dos_histogram(eigs).mass) == pytest.approx(1.0)

    def test_clamps_roundoff(self):
        h = dos_histogram(np.array([-1e-9, 2.0 + 1e-9]))
        assert np.allclose(h.mass, [0.5, 0.0, 0.0, 0.5])

    def test_empty_flag(self):
        h = dos_histogram(np.array([]))
        assert h.empty and np.allclose(h.mass, 0.0)

    @pytest.mark.parametrize("eigs", [[], [0.5, 1.5]], ids=["empty", "two"])
    @pytest.mark.parametrize("bins", [0, -1, 2.5, True, None, "4"])
    def test_refuses_bin_count_below_one_or_not_integer(self, eigs, bins):
        # 0 bins ended in ZeroDivisionError and -1 in numpy's ValueError
        with pytest.raises(SpectralError, match="^bin_count must be an integer >= 1, got "):
            dos_histogram(eigs, bins)

    def test_accepts_numpy_integer_bin_count(self):
        assert dos_histogram([0.5, 1.5], np.int64(2)).mass == (0.5, 0.5)

    def test_zero_bin_mass_tracks_components(self):
        # multiplicity of eigenvalue 0 equals the number of components,
        # and every nonzero normalized-Laplacian eigenvalue here is >= 0.5
        comps = [(0, 1), (1, 2), (0, 2), (3, 4)]
        w = window_from_edges(comps)
        eigs = eigenvalues_sym(normalized_laplacian(w))
        remap = {v: i for i, v in enumerate(w.nodes)}
        b0 = bfs_component_count(len(w.nodes), [(remap[u], remap[v]) for u, v in w.edges])
        assert int((np.abs(eigs) < 1e-9).sum()) == b0


class TestWasserstein1:
    """``_w1`` on mass rows over the 4 bins of [0, 2]."""

    def test_identical(self):
        h = [0.25, 0.25, 0.25, 0.25]
        assert _w1(h, h) == 0.0

    def test_full_shift(self):
        # all mass moved from the first bin to the last: 3 bins * 0.5 width
        assert _w1([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]) == pytest.approx(1.5)

    def test_adjacent_shift(self):
        assert _w1([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]) == pytest.approx(0.5)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            a, b, c = rng.uniform(0, 1, size=(3, 4))
            a, b, c = a / a.sum(), b / b.sum(), c / c.sum()
            assert _w1(a, b) == pytest.approx(_w1(b, a))
            assert _w1(a, c) <= _w1(a, b) + _w1(b, c) + 1e-12

    def test_matches_cdf_formula(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            m = rng.uniform(0, 1, size=(2, 4))
            m /= m.sum(axis=1, keepdims=True)
            direct = float(np.abs(np.cumsum(m[0]) - np.cumsum(m[1])).sum() * 0.5)
            assert _w1(m[0], m[1]) == pytest.approx(direct)


class TestSpectralDescriptor:
    def test_empty_window(self):
        d = spectral_descriptor(window_from_edges([]))
        assert d.empty and np.allclose(d.mass, 0.0)

    def test_k2_window(self):
        d = spectral_descriptor(window_from_edges([(0, 1)]))
        assert np.allclose(d.mass, [0.5, 0.0, 0.0, 0.5])
