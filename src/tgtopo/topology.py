"""Clique complexes, Betti numbers, degree-0 sublevel persistence and Betti-0 curves.

Complexes are truncated at dimension 2 (triangles): beta_1 of a clique
complex only depends on simplices up to dimension 2, and the per-window
descriptor needs nothing higher.  ``topo_descriptors`` works on a graph's
windows stacked by node count (``temporal.stack_windows``): one label
propagation gives every window's beta_0 and one ``flatnonzero`` over the
stacked common-neighbour mask its triangles; beta_1 is the cycle rank minus
the GF(2) rank of the triangle boundary columns: Python ints with bit x set
for edge x, ORed together from an object array of powers of two.  ``betti0_curve``
counts an event stream's births and spanning-forest merges in one union-find pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

INF = math.inf


class TopologyError(InputError):
    pass


@dataclass(frozen=True)
class CliqueComplex2:
    """2-truncated clique complex: vertices 0..n-1, edges, 3-cliques, and beta_0."""

    vertices: int
    edges: tuple  # sorted (i, j), i < j
    triangles: tuple  # sorted (i, j, k), i < j < k
    components: int


@dataclass(frozen=True)
class PersistenceDiagram:
    dimension: int
    points: tuple  # ((birth, death), ...), death may be math.inf


@dataclass(frozen=True)
class BettiVector:
    thresholds: tuple
    values: tuple


def _components(g, n, owner, i, j) -> np.ndarray:
    """Connected components of each of g graphs on n vertices, by min-label
    propagation with pointer jumping: labels stay vertices of their own
    component, so each component ends with one vertex labelled with itself."""
    a, b = owner * n + i, owner * n + j
    ends, other, label = np.concatenate([a, b]), np.concatenate([b, a]), np.arange(g * n)
    while True:
        low = label.copy()
        np.minimum.at(low, ends, label[other])
        if ((low := low[low]) == label).all():
            return (label == np.arange(g * n)).reshape(g, n).sum(axis=1)
        label = low


def _triangles(g, n, owner, i, j):
    """Triangles (i[e], j[e], k) of g graphs on n vertices, lexicographic within
    each graph, with the in-graph indices ``ij``, ``ik`` and ``jk`` of their edges."""
    row, col = owner * n + i, owner * n + j  # rows of vertices i and j in a (g*n, n) stack
    up = np.zeros((g * n, n), dtype=bool)  # edges to higher-index neighbours
    up[row, j] = True
    both = up.take(row, axis=0)
    both &= up.take(col, axis=0)
    e, k = np.divmod(np.flatnonzero(both), n)
    local = np.arange(len(owner)) - np.searchsorted(owner, np.arange(g))[owner]  # owner is sorted
    index = np.empty((g * n, n), dtype=np.int32)  # read only where ``up`` is set
    index[row, j] = local
    return e, k, local[e], index[row[e], k], index[col[e], k]


def topo_descriptors(stack, count_edge_multiplicity=False) -> np.ndarray:
    """(W, 4) int rows (v, e, beta_0, beta_1) of ``temporal.stack_windows``
    windows: node count, edge count and Betti numbers; ``count_edge_multiplicity``
    switches e from deduplicated pairs to total event occurrences."""
    counts, groups = stack
    out = np.zeros((len(counts), 4), dtype=np.int64)
    out[:, :2] = counts[:, [0, 2 if count_edge_multiplicity else 1]]
    for n, ids, owner, i, j in groups:
        comps = _components(len(ids), n, owner, i, j)
        e, _, ij, ik, jk = _triangles(len(ids), n, owner, i, j)
        bit = 1 << np.arange(counts[ids, 1].max()).astype(object)  # Python ints: 1 << edge
        cols = (bit[ij] | bit[ik] | bit[jk]).tolist()
        cut = np.searchsorted(owner[e], np.arange(len(ids) + 1)).tolist()
        ranks = [_rank(cols[a:b]) for a, b in zip(cut, cut[1:])]
        out[ids, 2], out[ids, 3] = comps, counts[ids, 1] - n + comps - ranks
    return out


def clique_complex(win) -> CliqueComplex2:
    """Vertices, edges, triangles, and components of a window's edge set."""
    n = win.num_nodes
    # nodes are sorted, so searchsorted gives each endpoint's local index
    i, j = np.searchsorted(win.nodes, np.array(win.edges, dtype=np.int64).reshape(-1, 2)).T
    owner = np.zeros_like(i)
    e, k, *_ = _triangles(1, n, owner, i, j)
    return CliqueComplex2(n, tuple(zip(i.tolist(), j.tolist())),
                          tuple(zip(i[e].tolist(), j[e].tolist(), k.tolist())),
                          int(_components(1, n, owner, i, j)[0]))


def betti0(win) -> int:
    """Connected components of the window (0 for the empty window)."""
    return clique_complex(win).components


def _rank(words) -> int:
    """GF(2) rank of bit-packed vectors (Python ints), pivoting on the highest set bit."""
    pivots = {}  # highest set bit -> pivot vector
    for w in words:
        while w:
            top = w.bit_length()
            if top not in pivots:
                pivots[top] = w
                break
            w ^= pivots[top]
    return len(pivots)


def boundary2_matrix(cx: CliqueComplex2):
    """Dense edge-by-triangle GF(2) boundary matrix, kept as an oracle for betti1."""
    edge_idx = {e: i for i, e in enumerate(cx.edges)}
    rows = [[0] * len(cx.triangles) for _ in range(len(cx.edges))]
    for t, (i, j, k) in enumerate(cx.triangles):
        for e in ((i, j), (i, k), (j, k)):
            rows[edge_idx[e]][t] = 1
    return rows


def betti1(cx: CliqueComplex2) -> int:
    """First Betti number: cycle rank minus the rank of the triangle boundary."""
    i, j = np.array(cx.edges, dtype=np.int64).reshape(-1, 2).T  # already local pairs
    group = (cx.vertices, [0], np.zeros_like(i), i, j)  # one window, as ``stack_windows`` groups
    return int(topo_descriptors((np.array([[cx.vertices, len(i), len(i)]]), [group]))[0, 3])


def sublevel_persistence0(edge_values, keep_zero_persistence=False) -> PersistenceDiagram:
    """Degree-0 persistence of the sublevel filtration by edge values.

    ``edge_values`` is an iterable of ``(u, v, value)``; repeated pairs
    collapse to their minimum value.  Vertices are born at the minimum value
    over their incident edges; a merging edge kills the younger component at
    the edge value (elder rule).  Each surviving component contributes an
    essential point ``(birth, inf)``.  Points with ``death == birth`` are
    dropped unless ``keep_zero_persistence`` is set.
    """
    values = {}
    for u, v, w in edge_values:
        if w is None or (isinstance(w, float) and math.isnan(w)):
            raise TopologyError(f"edge ({u},{v}) has no value")
        pair = (u, v) if u < v else (v, u)
        w = float(w)
        if pair not in values or w < values[pair]:
            values[pair] = w
    if not values:
        return PersistenceDiagram(0, ())

    birth = {}
    for (u, v), w in values.items():
        for x in (u, v):
            if x not in birth or w < birth[x]:
                birth[x] = w

    parent, points = {x: x for x in birth}, []
    for (u, v), w in sorted(values.items(), key=lambda kv: (kv[1], kv[0])):  # Kruskal
        while parent[u] != u:  # halving the path to the root
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:  # the later-born root dies; on a tie the second end's
            u, v = (v, u) if birth[v] < birth[u] else (u, v)
            parent[v] = u
            points.append((birth[v], w))
    points = [p for p in points if keep_zero_persistence or p[1] > p[0]]
    points += [(birth[x], INF) for x in birth if parent[x] == x]
    return PersistenceDiagram(0, tuple(sorted(points)))


def betti0_curve(events, thresholds, ids) -> np.ndarray:
    """``betti_curve(sublevel_persistence0(events), thresholds).values`` of a
    time-sorted (E, 3) event array at finite thresholds: the vertices born (at their
    first event) by t less the spanning-forest merges by t, which neither the elder
    rule nor zero-persistence points change; ``ids`` are ``np.unique(events[:, :2])``."""
    parent, born, merged = [-1] * len(ids), [], []  # -1: not seen yet
    for (u, v), t in zip(np.searchsorted(ids, events[:, :2]).tolist(), events[:, 2].tolist()):
        if parent[u] < 0:
            parent[u] = u
            born.append(t)
        if parent[v] < 0:
            parent[v] = v
            born.append(t)
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[v] = u
            merged.append(t)
    return (np.searchsorted(born, thresholds, "right")
            - np.searchsorted(merged, thresholds, "right"))


def betti_curve(pd: PersistenceDiagram, thresholds) -> BettiVector:
    """Number of diagram points alive at each threshold: birth <= t < death."""
    t = np.asarray(thresholds, dtype=np.float64)
    if not t.size:
        raise TopologyError("thresholds must be nonempty")
    points = np.reshape(pd.points, (-1, 2))
    # a point with birth <= death is alive at t iff born and not dead by t, so
    # the count is births minus deaths up to t; any other point is never alive
    births, deaths = np.sort(points[points[:, 0] <= points[:, 1]], axis=0).T
    vals = np.searchsorted(births, t, "right") - np.searchsorted(deaths, t, "right")
    return BettiVector(tuple(t.tolist()), tuple(vals.tolist()))
