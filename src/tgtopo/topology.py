"""Clique complexes, Betti numbers, and degree-0 sublevel persistence.

Complexes are truncated at dimension 2 (triangles): beta_1 of a clique
complex only depends on simplices up to dimension 2, and the per-window
descriptor needs nothing higher.  A window runs one union-find, whose beta_0
the complex carries as ``components``; beta_1 is the cycle rank minus the GF(2)
rank of the triangle boundary columns, each an int with bit i set for edge i.
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


@dataclass(frozen=True)
class TopoDescriptor:
    """Per-window 4-vector: node count, edge count, beta_0, beta_1."""

    v_count: int
    e_count: int
    betti0: int
    betti1: int

    def as_list(self):
        return [self.v_count, self.e_count, self.betti0, self.betti1]


def _find(parent, x):
    """Root of ``x`` in a list or dict union-find forest, halving the path
    (which re-points non-roots only, so it never changes which node is a root)."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _components(n, edges) -> int:
    """Connected components of the graph on vertices 0..n-1."""
    parent = list(range(n))
    count = n
    for i, j in edges:
        ri, rj = _find(parent, i), _find(parent, j)
        if ri != rj:
            parent[rj] = ri
            count -= 1
    return count


def clique_complex(win) -> CliqueComplex2:
    """Vertices, edges, triangles, and components of a window's edge set; sorted
    local edges and sorted higher-index neighbours give sorted triangles."""
    local = win.local_edges()
    n = win.num_nodes
    up = [set() for _ in range(n)]  # neighbours with a higher index
    for i, j in local:
        up[i].add(j)
    triangles = tuple((i, j, k) for i, j in local for k in sorted(up[i] & up[j]))
    return CliqueComplex2(n, tuple(local), triangles, _components(n, local))


def betti0(win) -> int:
    """Connected components of the window (0 for the empty window)."""
    return _components(win.num_nodes, win.local_edges())


def _rank(words) -> int:
    """GF(2) rank of bit-packed vectors (Python ints)."""
    pivots = {}  # lowest set bit -> pivot vector
    for w in words:
        while w:
            low = w & -w
            if low not in pivots:
                pivots[low] = w
                break
            w ^= pivots[low]
    return len(pivots)


def gf2_rank(matrix) -> int:
    """Rank over GF(2); accepts any row-iterable of 0/1 entries."""
    return _rank(sum(1 << j for j, bit in enumerate(row) if int(bit) & 1)
                 for row in matrix)


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
    cycles = len(cx.edges) - cx.vertices + cx.components
    bit = {e: 1 << i for i, e in enumerate(cx.edges)}
    return cycles - _rank(bit[i, j] | bit[i, k] | bit[j, k] for i, j, k in cx.triangles)


def topo_descriptor(win, count_edge_multiplicity=False) -> TopoDescriptor:
    """Compose the per-window topological 4-vector.

    ``count_edge_multiplicity`` switches the edge count from deduplicated
    pairs to total event occurrences.
    """
    if win.num_nodes == 0:
        return TopoDescriptor(0, 0, 0, 0)
    cx = clique_complex(win)
    e = win.num_event_edges if count_edge_multiplicity else win.num_edges
    return TopoDescriptor(win.num_nodes, e, cx.components, betti1(cx))


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

    parent = {x: x for x in birth}
    root_birth = dict(birth)
    points = []
    for (u, v), w in sorted(values.items(), key=lambda kv: (kv[1], kv[0])):
        ru, rv = _find(parent, u), _find(parent, v)
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
        parent[younger] = elder
    for x in birth:
        if parent[x] == x:
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
