"""Clique complexes, Betti numbers, and degree-0 sublevel persistence.

Complexes are truncated at dimension 2 (triangles): beta_1 of a clique
complex only depends on simplices up to dimension 2, and the per-window
descriptor needs nothing higher.  Homology ranks are computed over GF(2)
with bit-packed Gaussian elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf


class TopologyError(ValueError):
    pass


class MissingEdgeValueError(TopologyError):
    pass


class EmptyThresholdsError(TopologyError):
    pass


class ThresholdMismatchError(TopologyError):
    pass


@dataclass(frozen=True)
class CliqueComplex2:
    """2-truncated clique complex: vertices 0..n-1, edges, and all 3-cliques."""

    vertices: int
    edges: tuple  # sorted (i, j), i < j
    triangles: tuple  # sorted (i, j, k), i < j < k


@dataclass(frozen=True)
class PersistenceDiagram:
    dimension: int
    points: tuple  # ((birth, death), ...), death may be math.inf


@dataclass(frozen=True)
class BettiVector:
    thresholds: tuple
    values: tuple


@dataclass(frozen=True)
class TopoDescriptor:
    """Per-window 4-vector: node count, edge count, beta_0, beta_1."""

    v_count: int
    e_count: int
    betti0: int
    betti1: int

    def as_list(self):
        return [self.v_count, self.e_count, self.betti0, self.betti1]


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def clique_complex(win) -> CliqueComplex2:
    """All vertices, edges, and triangles of a window's deduplicated edge set."""
    local = win.local_edges()
    n = win.num_nodes
    adj = [set() for _ in range(n)]
    for i, j in local:
        adj[i].add(j)
        adj[j].add(i)
    triangles = []
    for i, j in local:
        for k in sorted(adj[i] & adj[j]):
            if k > j:
                triangles.append((i, j, k))
    return CliqueComplex2(n, tuple(sorted(local)), tuple(sorted(triangles)))


def _components(n, edges) -> int:
    """Connected components of the graph on vertices 0..n-1."""
    uf = _UnionFind(range(n))
    return n - sum(uf.union(i, j) for i, j in edges)


def betti0(win) -> int:
    """Connected components of the window (0 for the empty window)."""
    return _components(win.num_nodes, win.local_edges())


def gf2_rank(matrix) -> int:
    """Rank over GF(2); accepts any row-iterable of 0/1 entries."""
    packed = []
    for row in matrix:
        word = 0
        for j, bit in enumerate(row):
            if int(bit) & 1:
                word |= 1 << j
        packed.append(word)
    rank = 0
    rows = [r for r in packed if r]
    while rows:
        pivot = rows.pop()
        rank += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rank


def boundary2_matrix(cx: CliqueComplex2):
    """Edge-by-triangle incidence matrix of the 2-boundary map (GF(2))."""
    edge_idx = {e: i for i, e in enumerate(cx.edges)}
    rows = [[0] * len(cx.triangles) for _ in range(len(cx.edges))]
    for t, (i, j, k) in enumerate(cx.triangles):
        for e in ((i, j), (i, k), (j, k)):
            rows[edge_idx[e]][t] = 1
    return rows

def betti1(cx: CliqueComplex2) -> int:
    """First Betti number: cycle rank minus the rank of the triangle boundary."""
    cycles = len(cx.edges) - cx.vertices + _components(cx.vertices, cx.edges)
    if not cx.triangles:
        return cycles
    return cycles - gf2_rank(boundary2_matrix(cx))


def topo_descriptor(win, count_edge_multiplicity=False) -> TopoDescriptor:
    """Compose the per-window topological 4-vector.

    ``count_edge_multiplicity`` switches the edge count from deduplicated
    pairs to total event occurrences.
    """
    if win.num_nodes == 0:
        return TopoDescriptor(0, 0, 0, 0)
    cx = clique_complex(win)
    e = win.num_event_edges if count_edge_multiplicity else win.num_edges
    return TopoDescriptor(win.num_nodes, e, betti0(win), betti1(cx))


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
            raise MissingEdgeValueError(f"edge ({u},{v}) has no value")
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

    uf = _UnionFind(birth)
    root_birth = dict(birth)
    points = []
    for (u, v), w in sorted(values.items(), key=lambda kv: (kv[1], kv[0])):
        ru, rv = uf.find(u), uf.find(v)
        if ru == rv:
            continue
        # elder rule: the later-born root dies at w
        if root_birth[ru] <= root_birth[rv]:
            elder, younger = ru, rv
        else:
            elder, younger = rv, ru
        b = root_birth[younger]
        if w > b or keep_zero_persistence:
            points.append((b, w))
        uf.parent[younger] = elder
    for x in birth:
        if uf.find(x) == x:
            points.append((root_birth[x], INF))
    return PersistenceDiagram(0, tuple(sorted(points)))


def betti_curve(pd: PersistenceDiagram, thresholds) -> BettiVector:
    """Number of diagram points alive at each threshold: birth <= t < death."""
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds:
        raise EmptyThresholdsError("thresholds must be nonempty")
    vals = []
    for t in thresholds:
        vals.append(sum(1 for b, d in pd.points if b <= t < d))
    return BettiVector(thresholds, tuple(vals))


def l1_distance(a: BettiVector, b: BettiVector) -> float:
    if a.thresholds != b.thresholds:
        raise ThresholdMismatchError("Betti vectors sampled on different grids")
    return float(sum(abs(x - y) for x, y in zip(a.values, b.values)))
