import numpy as np
import pytest

from tgtopo.temporal import TemporalGraph, _windows, from_events


@pytest.fixture
def toy_graph():
    """Four-node toy: A=0, B=1, C=2, D=3.

    Activity pattern chosen so the per-timestep degree rows over the grid
    1..6 are A=[2,1,1,0,0,0] and B=[1,0,1,1,0,1].
    """
    events = [
        (0, 1, 1.0),
        (0, 2, 1.0),
        (0, 2, 2.0),
        (0, 1, 3.0),
        (1, 2, 4.0),
        (1, 3, 6.0),
    ]
    return from_events(4, events)


def graph_key(graph):
    """What two equal graphs share: node count, label, and the shape, dtype and
    bytes of ``events``.  ``TemporalGraph`` has no ``==`` of its own."""
    ev = graph.events
    return graph.num_nodes, graph.label, ev.shape, ev.dtype.str, ev.tobytes()


def bfs_component_count(num_nodes, edges):
    """Independent component-count oracle."""
    adj = [[] for _ in range(num_nodes)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * num_nodes
    comps = 0
    for start in range(num_nodes):
        if seen[start]:
            continue
        comps += 1
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return comps


def gf2_rank_dense(mat):
    """Independent GF(2) rank oracle: dense numpy row reduction mod 2."""
    a = np.array(mat, dtype=np.int64) % 2
    if a.size == 0:
        return 0
    rows, cols = a.shape
    rank = 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, rows):
            if a[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        a[[pivot_row, pivot]] = a[[pivot, pivot_row]]
        for r in range(rows):
            if r != pivot_row and a[r, col]:
                a[r] = (a[r] + a[pivot_row]) % 2
        rank += 1
        pivot_row += 1
        if pivot_row == rows:
            break
    return rank


def random_er_edges(rng, n, p):
    return [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]


def er_window(rng, n_low=20, n_high=60, p=0.2):
    """An Erdős–Rényi window over n in [n_low, n_high] nodes, isolated nodes
    dropped: the draws, in order, of ``stability._draw_er``, one per pair."""
    return window_from_edges(random_er_edges(rng, int(rng.integers(n_low, n_high + 1)), p))


def window_from_edges(edges):
    """Build a WindowGraph directly from a simple edge list."""
    from tgtopo.temporal import WindowGraph

    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    nodes = tuple(sorted({x for e in edges for x in e}))
    return WindowGraph(0, 0.0, 1.0, nodes, tuple(edges), (1,) * len(edges))


def as_windows(windows):
    """The program's ``Windows`` for hand-built ``WindowGraph``s: window i's
    events (each pair repeated by its multiplicity) at time 2i, cut by
    ``temporal._windows`` into the windows [2i, 2i + 1].  Windows that are all
    empty get one event at time -1, outside every window, as a graph has one."""
    events = [(u, v, 2.0 * i) for i, w in enumerate(windows)
              for (u, v), m in zip(w.edges, w.edge_multiplicity) for _ in range(m)]
    events = events or [(0, 1, -1.0)]
    n = max((x for w in windows for x in w.nodes), default=1) + 1
    graph = TemporalGraph(n, np.array(events, np.float64).reshape(-1, 3))
    return _windows(graph, 2.0 * np.arange(len(windows)), 1.0)
