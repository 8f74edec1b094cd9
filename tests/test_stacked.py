"""Descriptors of stacked windows against brute-force oracles and the
one-window functions, and the memory a sparse graph's windows take."""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

import tgtopo.temporal
from conftest import as_windows, bfs_component_count, gf2_rank_dense, window_from_edges
from tgtopo.spectral import spectral_descriptor, spectral_descriptors
from tgtopo.temporal import WindowSpec, from_events, stack_windows, window_sequence
from tgtopo.topology import betti0, betti1, clique_complex, topo_descriptors


@st.composite
def window_lists(draw):
    """Windows on up to 11 non-contiguous global ids; some empty, several
    of equal node count."""
    out = []
    for _ in range(draw(st.integers(1, 8))):
        ids = draw(st.lists(st.integers(0, 99), min_size=2, max_size=11, unique=True))
        keep = draw(st.lists(st.booleans(), min_size=55, max_size=55))
        pairs = [(a, b) for a in ids for b in ids if a < b]
        out.append(window_from_edges([p for p, k in zip(pairs, keep) if k]))
    return out


def oracle_topo(win):
    v, e = win.num_nodes, win.num_edges
    if v == 0:
        return [0, 0, 0, 0]
    local = {x: i for i, x in enumerate(win.nodes)}
    edges = sorted((local[a], local[b]) for a, b in win.edges)
    es = set(edges)
    tri = [(i, j, k) for i in range(v) for j in range(i + 1, v) for k in range(j + 1, v)
           if {(i, j), (i, k), (j, k)} <= es]
    boundary = [[int(set(t) >= set(edge)) for t in tri] for edge in edges]
    b0 = bfs_component_count(v, edges)
    return [v, e, b0, e - v + b0 - (gf2_rank_dense(boundary) if tri else 0)]


def oracle_dos(win, bins):
    """Dense Laplacian from loops; each eigenvalue, snapped to 1e-9, goes to
    the half-open bin [2j/bins, 2(j+1)/bins), the last bin closed."""
    v = win.num_nodes
    if v == 0:
        return [0.0] * bins
    local = {x: i for i, x in enumerate(win.nodes)}
    a = np.zeros((v, v))
    for x, y in win.edges:
        a[local[x], local[y]] = a[local[y], local[x]] = 1.0
    d = a.sum(axis=1)
    lap = np.eye(v) - a / np.sqrt(np.outer(d, d))
    inner = [2.0 * j / bins for j in range(1, bins)]
    counts = [0] * bins
    for x in np.clip(np.round(np.linalg.eigvalsh(lap), 9), 0.0, 2.0):
        counts[sum(x >= edge for edge in inner)] += 1
    return [c / v for c in counts]


@given(windows=window_lists(), limit=st.sampled_from([1, 150, tgtopo.temporal.STACK_LIMIT]))
@settings(max_examples=80, deadline=None)
def test_stacked_descriptors_match_oracles_and_one_window_functions(windows, limit):
    # a small STACK_LIMIT splits equal node counts into several stacks
    saved, tgtopo.temporal.STACK_LIMIT = tgtopo.temporal.STACK_LIMIT, limit
    try:
        stack = stack_windows(as_windows(windows))
    finally:
        tgtopo.temporal.STACK_LIMIT = saved
    phi = topo_descriptors(stack)
    psi, empty = spectral_descriptors(stack, 4)
    assert phi.tolist() == [oracle_topo(w) for w in windows]
    assert phi.tolist() == [[w.num_nodes, w.num_edges, betti0(w), betti1(clique_complex(w))]
                            for w in windows]
    assert empty.tolist() == [w.num_nodes == 0 for w in windows]
    for w, row in zip(windows, psi):
        assert row.tolist() == oracle_dos(w, 4)
        h = spectral_descriptor(w, 4)
        assert row.tolist() == list(h.mass) and h.empty == (w.num_nodes == 0)


def test_sparse_graph_windows_stay_small():
    # 20,000 nodes, about 100 per window: a stack sized by the graph's node
    # count (windows x 20,000^2) instead of the windows' would be gigabytes
    rng = np.random.default_rng(3)
    events = []
    for t in range(400):
        for _ in range(10):
            u, v = rng.choice(20_000, size=2, replace=False)
            events.append((int(u), int(v), float(t)))
    g = from_events(20_000, events)
    windows = window_sequence(g, WindowSpec(4.0, 1.0))
    tracemalloc.start()
    try:
        stack = stack_windows(windows)
        topo_descriptors(stack)
        spectral_descriptors(stack, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(windows) == 396 and peak < 8 * 2**20
