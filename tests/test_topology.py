import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (as_windows, bfs_component_count, gf2_rank_dense, random_er_edges,
                      window_from_edges)
from tgtopo.spectral import normalized_laplacian
from tgtopo.temporal import TemporalGraph, _windows, from_events, stack_windows
from tgtopo.topology import (
    _rank,
    _triangles,
    PersistenceDiagram,
    TopologyError,
    betti0,
    betti0_curve,
    betti1,
    betti_curve,
    boundary2_matrix,
    clique_complex,
    sublevel_persistence0,
    topo_descriptors,
)

INF = math.inf


def boundary1_matrix(num_vertices, edges):
    """Vertex-by-edge incidence matrix over GF(2) (test-side oracle)."""
    m = [[0] * len(edges) for _ in range(num_vertices)]
    for j, (u, v) in enumerate(edges):
        m[u][j] = 1
        m[v][j] = 1
    return m


class TestCliqueComplex:
    def test_k3(self):
        cx = clique_complex(window_from_edges([(0, 1), (1, 2), (0, 2)]))
        assert cx.vertices == 3 and len(cx.edges) == 3
        assert cx.triangles == ((0, 1, 2),)

    def test_c4_has_no_triangles(self):
        cx = clique_complex(window_from_edges([(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert len(cx.edges) == 4 and cx.triangles == ()

    def test_k4_triangles_match_bruteforce(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        cx = clique_complex(window_from_edges(edges))
        es = set(edges)
        brute = [
            (i, j, k)
            for i in range(4)
            for j in range(i + 1, 4)
            for k in range(j + 1, 4)
            if {(i, j), (i, k), (j, k)} <= es
        ]
        assert list(cx.triangles) == brute
        assert len(cx.triangles) == 4

    def test_single_pass_on_non_contiguous_node_ids(self):
        # global ids drawn from 0-99 in random order, so local != global index
        rng = np.random.default_rng(31)
        for _ in range(150):
            n = int(rng.integers(2, 14))
            ids = rng.choice(100, size=n, replace=False)
            pairs = random_er_edges(rng, n, float(rng.choice([0.2, 0.4, 0.7])))
            if not pairs:
                continue
            w = window_from_edges([(int(ids[a]), int(ids[b])) for a, b in pairs])
            local = {v: i for i, v in enumerate(sorted(w.nodes))}
            es = sorted({tuple(sorted((local[int(ids[a])], local[int(ids[b])])))
                         for a, b in pairs})
            m = len(local)
            brute = [(i, j, k) for i in range(m) for j in range(i + 1, m)
                     for k in range(j + 1, m) if {(i, j), (i, k), (j, k)} <= set(es)]
            cx = clique_complex(w)
            assert list(cx.edges) == es
            assert list(cx.triangles) == brute
            assert cx.components == bfs_component_count(m, es)
            stack = stack_windows(as_windows([w]))
            assert topo_descriptors(stack)[0, 2] == betti0(w) == cx.components
            adjacent = np.nonzero(np.triu(normalized_laplacian(w).array, 1))
            assert sorted(zip(*(ix.tolist() for ix in adjacent))) == es


class TestBetti0:
    def test_empty_window(self):
        assert betti0(window_from_edges([])) == 0

    def test_two_disjoint_edges(self):
        assert betti0(window_from_edges([(0, 1), (2, 3)])) == 2

    def test_matches_bfs_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            edges = random_er_edges(rng, n, float(rng.choice([0.2, 0.4, 0.6])))
            if not edges:
                continue
            w = window_from_edges(edges)
            # oracle counts components among edge endpoints only
            remap = {v: i for i, v in enumerate(w.nodes)}
            local = [(remap[u], remap[v]) for u, v in w.edges]
            assert betti0(w) == bfs_component_count(len(w.nodes), local)


def packed(matrix):
    """Each 0/1 row as an int, its first column the highest bit (``_rank``'s input)."""
    return [int("".join(map(str, row)), 2) for row in np.asarray(matrix).tolist()]


class TestGf2Rank:
    def test_identity(self):
        assert _rank(packed(np.eye(3, dtype=int))) == 3

    def test_zeros(self):
        assert _rank(packed(np.zeros((4, 5), dtype=int))) == 0

    def test_k4_boundary2(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        cx = clique_complex(window_from_edges(edges))
        m = boundary2_matrix(cx)
        assert _rank(packed(m)) == gf2_rank_dense(m) == 3

    def test_matches_dense_oracle_on_random_matrices(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            rows, cols = rng.integers(1, 12, size=2)
            m = rng.integers(0, 2, size=(rows, cols))
            assert _rank(packed(m)) == gf2_rank_dense(m)


class TestBetti1:
    def test_c4(self):
        cx = clique_complex(window_from_edges([(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert betti1(cx) == 1

    def test_k4(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert betti1(clique_complex(window_from_edges(edges))) == 0

    def test_two_filled_triangles(self):
        cx = clique_complex(
            window_from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        )
        assert betti1(cx) == 0

    def test_full_boundary_oracle_on_random_graphs(self):
        # beta1 = dim ker d1 - rank d2, all over GF(2)
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(3, 13))
            edges = random_er_edges(rng, n, float(rng.choice([0.2, 0.4, 0.6])))
            if not edges:
                continue
            w = window_from_edges(edges)
            cx = clique_complex(w)
            rank_d1 = gf2_rank_dense(boundary1_matrix(cx.vertices, cx.edges))
            rank_d2 = gf2_rank_dense(boundary2_matrix(cx)) if cx.triangles else 0
            dim_ker_d1 = len(cx.edges) - rank_d1
            assert betti1(cx) == dim_ker_d1 - rank_d2

    @pytest.mark.parametrize("n", range(3, 11))
    def test_packed_columns_match_dense_boundary_on_complete_graphs(self, n):
        self._check_against_dense_boundary([(i, j) for i in range(n) for j in range(i + 1, n)])

    def test_packed_columns_match_dense_boundary_on_dense_random_graphs(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            edges = random_er_edges(rng, int(rng.integers(3, 12)), 0.9)
            if edges:
                self._check_against_dense_boundary(edges)

    @staticmethod
    def _check_against_dense_boundary(edges):
        cx = clique_complex(window_from_edges(edges))
        cycles = len(cx.edges) - cx.vertices + bfs_component_count(cx.vertices, cx.edges)
        assert betti1(cx) == cycles - gf2_rank_dense(boundary2_matrix(cx))

    def test_euler_consistency_on_random_complexes(self):
        # |V| - |E| + |T| = b0 - b1 + b2' with b2' = |T| - rank(d2)
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            edges = random_er_edges(rng, n, 0.5)
            if not edges:
                continue
            w = window_from_edges(edges)
            cx = clique_complex(w)
            rank_d2 = gf2_rank_dense(boundary2_matrix(cx)) if cx.triangles else 0
            b2 = len(cx.triangles) - rank_d2
            euler = cx.vertices - len(cx.edges) + len(cx.triangles)
            assert euler == betti0(w) - betti1(cx) + b2


def sweep_component_count(edge_values, threshold):
    """Brute-force sublevel oracle: components of the subgraph with values <= t."""
    sub = [(u, v) for (u, v), w in edge_values.items() if w <= threshold]
    nodes = sorted({x for e in sub for x in e})
    remap = {v: i for i, v in enumerate(nodes)}
    return bfs_component_count(len(nodes), [(remap[u], remap[v]) for u, v in sub])


class TestSublevelPersistence0:
    def test_single_edge(self):
        pd = sublevel_persistence0([(0, 1, 3.0)])
        assert pd.points == ((3.0, INF),)

    def test_path_example(self):
        pd = sublevel_persistence0([(0, 1, 1.0), (1, 2, 2.0)])
        assert pd.points == ((1.0, INF),)
        pd_full = sublevel_persistence0(
            [(0, 1, 1.0), (1, 2, 2.0)], keep_zero_persistence=True
        )
        assert (1.0, INF) in pd_full.points
        assert (2.0, 2.0) in pd_full.points

    def test_triangle_weights(self):
        pd = sublevel_persistence0(
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)], keep_zero_persistence=True
        )
        # vertex births: 0 -> 1, 1 -> 1, 2 -> 2; merges at 1 and 2
        assert (1.0, INF) in pd.points
        assert (2.0, 2.0) in pd.points

    def test_repeated_edges_collapse_to_min(self):
        pd = sublevel_persistence0([(0, 1, 5.0), (1, 0, 2.0)])
        assert pd.points == ((2.0, INF),)

    def test_curve_matches_sweep_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            edges = random_er_edges(rng, n, 0.35)
            if not edges:
                continue
            values = {e: float(rng.uniform(0, 5)) for e in edges}
            pd = sublevel_persistence0((u, v, w) for (u, v), w in values.items())
            grid = sorted(set(values.values()))
            curve = betti_curve(pd, grid)
            for t, got in zip(grid, curve.values):
                assert got == sweep_component_count(values, t)

    def test_curve_non_increasing_after_all_births(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(3, 10))
            edges = random_er_edges(rng, n, 0.4)
            if not edges:
                continue
            values = {e: float(rng.uniform(0, 5)) for e in edges}
            pd = sublevel_persistence0((u, v, w) for (u, v), w in values.items())
            births = [b for b, _ in pd.points]
            grid = sorted(set(values.values()))
            tail = [t for t in grid if t >= max(births)]
            curve = betti_curve(pd, tail).values if tail else ()
            assert all(a >= b for a, b in zip(curve, curve[1:]))


def sublevel_persistence0_reference(edge_values, keep_zero_persistence=False):
    """An independent dict-based Kruskal loop, with its own ``find`` and the elder
    root chosen by ``<=`` on births, that sublevel_persistence0's diagram is checked
    against."""
    values = {}
    for u, v, w in edge_values:
        pair = (u, v) if u < v else (v, u)
        if pair not in values or float(w) < values[pair]:
            values[pair] = float(w)
    birth = {}
    for (u, v), w in values.items():
        for x in (u, v):
            if x not in birth or w < birth[x]:
                birth[x] = w
    parent, points = {x: x for x in birth}, []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v), w in sorted(values.items(), key=lambda kv: (kv[1], kv[0])):
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        elder, younger = (ru, rv) if birth[ru] <= birth[rv] else (rv, ru)
        if w > birth[younger] or keep_zero_persistence:
            points.append((birth[younger], w))
        parent[younger] = elder
    points += [(birth[x], INF) for x in birth if parent[x] == x]
    return tuple(sorted(points))


class TestUnionFind:
    # sublevel_persistence0 and betti0_curve each run their own union-find: the
    # diagram is checked against the reference loop, the curve against the diagram
    values = st.integers(-3, 3).map(float) | st.floats(-4, 4)  # ties are common

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), values)
                    .filter(lambda e: e[0] != e[1]), max_size=14), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_diagram_matches_dict_loop(self, edge_values, keep_zero):
        assert (sublevel_persistence0(edge_values, keep_zero_persistence=keep_zero).points
                == sublevel_persistence0_reference(edge_values, keep_zero))

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), values)
                    .filter(lambda e: e[0] != e[1]), min_size=1, max_size=14),
           st.lists(values | st.just(-INF), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_betti0_curve_is_the_diagram_curve(self, events, thresholds):
        # at t = inf the diagram's essential points are dead; event times are finite
        graph = from_events(6, events)
        thresholds += graph.events[:, 2].tolist()  # births and merges tie with thresholds
        expected = betti_curve(sublevel_persistence0(graph.events.tolist()), thresholds)
        ids = np.unique(graph.events[:, :2])
        assert betti0_curve(graph.events, thresholds, ids).tolist() == list(expected.values)


class TestBetti0CurveKernel:
    times = st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(-4, 4)  # ties, both zeros

    @given(st.lists(st.integers(0, 2**52), min_size=2, max_size=8, unique=True),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 6), times),
                    min_size=1, max_size=16),
           st.lists(times | st.just(-INF), max_size=4))
    @example([0, 2**52], [(0, 0, 0.0), (1, 0, -0.0)], [-0.0, 0.0])
    @example([5, 2**52, 2**40], [(0, 0, -0.0), (2, 0, 0.0), (1, 1, -0.0)], [0.0])
    @settings(max_examples=300, deadline=None)
    def test_sparse_ids_and_tied_times_give_the_diagram_curve(self, ids, picks, thresholds):
        # ids far apart and up to 2**52 (exact in float64); the second end is another id
        n = len(ids)
        rows = [(ids[a % n], ids[(a + 1 + b % (n - 1)) % n], t) for a, b, t in picks]
        graph = TemporalGraph(2**52 + 1, np.array(rows, dtype=np.float64))
        thresholds += graph.events[:, 2].tolist()
        expected = betti_curve(sublevel_persistence0(graph.events.tolist()), thresholds).values
        ranked = np.unique(graph.events[:, :2])
        assert betti0_curve(graph.events, thresholds, ranked).tolist() == list(expected)


class TestBettiCurve:
    def test_essential_point(self):
        pd = PersistenceDiagram(0, ((1.0, INF),))
        assert betti_curve(pd, [0, 1, 2]).values == (0, 1, 1)

    def test_empty_diagram(self):
        pd = PersistenceDiagram(0, ())
        assert betti_curve(pd, [0.0, 1.0]).values == (0, 0)

    def test_path_diagram(self):
        pd = sublevel_persistence0([(0, 1, 1.0), (1, 2, 2.0)])
        assert betti_curve(pd, [1.0, 2.0]).values == (1, 1)

    def test_empty_thresholds_rejected(self):
        with pytest.raises(TopologyError, match="^thresholds must be nonempty$"):
            betti_curve(PersistenceDiagram(0, ()), [])

    # few distinct values, so births, deaths and thresholds often tie
    values = st.integers(-3, 3).map(float) | st.floats(-4, 4)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), values)
                    .filter(lambda e: e[0] != e[1]), max_size=12),
           st.booleans(), st.lists(values | st.sampled_from([-INF, INF]), max_size=6),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_alive_count_oracle(self, edge_values, keep_zero, thresholds, data):
        # diagrams with essential (inf-death) and, when kept, zero-persistence
        # points; thresholds include births and deaths themselves
        pd = sublevel_persistence0(edge_values, keep_zero_persistence=keep_zero)
        ends = [x for point in pd.points for x in point]
        if ends:
            thresholds += data.draw(st.lists(st.sampled_from(ends), min_size=1, max_size=6))
        if not thresholds:
            return
        expected = tuple(sum(1 for b, d in pd.points if b <= t < d) for t in thresholds)
        assert betti_curve(pd, thresholds).values == expected

    @given(st.lists(st.tuples(values | st.just(math.nan), values | st.just(INF)), max_size=8),
           st.lists(values, min_size=1, max_size=6))
    def test_hand_built_diagram_matches_alive_count_oracle(self, points, thresholds):
        # a point with birth > death or a NaN end is alive at no threshold
        pd = PersistenceDiagram(0, tuple(points))
        expected = tuple(sum(1 for b, d in points if b <= t < d) for t in thresholds)
        assert betti_curve(pd, thresholds).values == expected


def triangles_nonzero(g, n, owner, i, j):
    """The 2-D ``nonzero`` form that ``_triangles``' flat search replaced, kept as its oracle."""
    row, col = owner * n + i, owner * n + j
    up = np.zeros((g * n, n), dtype=bool)
    up[row, j] = True
    e, k = np.nonzero(up.take(row, axis=0) & up.take(col, axis=0))
    local = np.arange(len(owner)) - np.searchsorted(owner, owner)
    index = np.empty((g * n, n), dtype=np.int32)
    index[row, j] = local
    return e, k, local[e], index[row[e], k], index[col[e], k]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_flat_triangle_search_matches_nonzero(n, data):
    # g graphs on n vertices, some with no pair, pairs in graph then lexicographic order
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    graphs = data.draw(st.lists(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)),
                                min_size=1, max_size=5))
    owner, i, j = np.array([(w, *p) for w, keep in enumerate(graphs)
                            for p, k in zip(pairs, keep) if k], np.int64).reshape(-1, 3).T
    got, want = _triangles(len(graphs), n, owner, i, j), triangles_nonzero(len(graphs), n, owner, i, j)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def descriptor(w, count_edge_multiplicity=False):
    return topo_descriptors(stack_windows(as_windows([w])), count_edge_multiplicity)[0].tolist()


class TestDescriptor:
    def test_empty_window(self):
        assert descriptor(window_from_edges([])) == [0, 0, 0, 0]

    def test_c4(self):
        assert descriptor(window_from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])) == [4, 4, 1, 1]

    def test_k4(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert descriptor(window_from_edges(edges)) == [4, 6, 1, 0]

    def test_multiplicity_flag(self):
        w = _windows(from_events(2, [(0, 1, 1.0), (0, 1, 2.0)]), np.array([0.0]), 3.0)[0]
        assert descriptor(w)[1] == 1
        assert descriptor(w, count_edge_multiplicity=True)[1] == 2
