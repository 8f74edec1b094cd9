import math
import re
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tgtopo.temporal
from tgtopo.data import ParseError, load_graph
from tgtopo.stability import perturb_timestamps, random_temporal_graph
from tgtopo.temporal import (
    EVENT,
    TemporalGraph,
    TemporalGraphError,
    WindowGraph,
    WindowSpec,
    from_events,
    from_records,
    static_projection,
    temporal_degree,
    _unique,
    _windows,
    window_count,
    window_sequence,
)


class TestFromEvents:
    def test_single_event(self):
        g = from_events(2, [(0, 1, 1.0)])
        assert g.t_min == g.t_max == 1.0
        assert g.num_events == 1

    def test_sorts_by_timestamp(self):
        g = from_events(2, [(0, 1, 3.0), (0, 1, 1.0)])
        assert g.events.tolist() == [[0, 1, 1.0], [0, 1, 3.0]]

    def test_self_loop_rejected(self):
        with pytest.raises(TemporalGraphError, match=r"^self-loop at node 0, t=1\.0$"):
            from_events(2, [(0, 0, 1.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(TemporalGraphError, match=r"^event \(0,2,1\.0\) outside \[0,2\)$"):
            from_events(2, [(0, 2, 1.0)])

    @pytest.mark.parametrize("u, v", [(0.5, 1), (0, 1.7), (True, 2), (0, np.True_)],
                             ids=["fractional_u", "fractional_v", "bool_u", "numpy_bool_v"])
    def test_non_integer_node_id_rejected(self, u, v):
        with pytest.raises(TemporalGraphError, match="integer"):
            from_events(3, [(u, v, 0.0)])

    def test_node_count_above_two_to_53_rejected(self):
        # windows read node ids through float64, which is exact only up to 2**53
        with pytest.raises(TemporalGraphError, match="2\\*\\*53"):
            from_events(2**60, [(2**60 - 1, 2**60 - 3, 0.0)])
        assert from_events(2**53, [(2**53 - 1, 2**53 - 3, 0.0)]).num_nodes == 2**53

    def test_integral_float_node_ids_accepted(self):
        assert from_events(3, [(0.0, np.int64(2), 1.0)]).events.tolist() == [[0, 2, 1.0]]

    @pytest.mark.parametrize("events, message", [
        ([(0, 1, math.nan), (0, 5, 1.0)], "event (0,1) has timestamp nan"),
        ([(0, 5, 1.0), (0, 1, math.nan)], "event (0,5,1.0) outside [0,3)"),
        ([(1, 1, 2.0), (0, 5, 1.0)], "self-loop at node 1, t=2.0"),
        ([(0, 5, 1.0), (0.5, 1, 0.0)], "event (0,5,1.0) outside [0,3)"),
        ([(0.5, 1, 0.0), (0, 5, 1.0)], "event (0.5,1,0.0): node ids must be integers"),
        ([(2, 2.0, 1), (10**400, 1, 0.0)], "self-loop at node 2, t=1.0"),
        ([(0, 1, 1.0), (-10**400, 1, 0.0)], f"event ({-10**400},1,0.0) outside [0,3)"),
        ([(4.0, 1, 1.0)], "event (4.0,1,1.0) outside [0,3)"),
    ], ids=["nan_first", "range_first", "self_loop_first", "range_before_fraction",
            "fraction_before_range", "self_loop_before_huge_id", "huge_negative_id",
            "integral_float_id_shown_as_given"])
    def test_first_bad_event_in_input_order_raises(self, events, message):
        with pytest.raises(TemporalGraphError) as exc:
            from_events(3, events)
        assert str(exc.value) == message

    def test_empty_list_is_refused(self):
        with pytest.raises(TemporalGraphError, match="^empty event list$"):
            from_events(2, [])
        # the events are checked first, so a bad node count is named before emptiness
        with pytest.raises(TemporalGraphError, match="^num_nodes must be"):
            from_events(0, [])

    def test_duplicates_preserved(self):
        g = from_events(2, [(0, 1, 1.0), (0, 1, 1.0)])
        assert g.num_events == 2

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, t):
        message = f"^{re.escape(f'event (0,1) has timestamp {t}')}$"
        with pytest.raises(TemporalGraphError, match=message):
            from_events(2, [(0, 1, 1.0), (0, 1, t)])
        with pytest.raises(TemporalGraphError, match=message):
            from_events(2, [(0, 1, t), (0, 1, 1.0)])


EVENTS = [(3, 4, 2.5), (0, 1, 1.0), (1, 2, 2.5), (2, 0, -0.0)]


def _load(tmp_path, refused, **how):
    """``EVENTS`` written as a graph file and read by ``load_graph`` with ``refused`` patched."""
    path = tmp_path / "g.txt"
    path.write_text("n 5 label 1\n" + "".join(f"{u} {v} {t!r}\n" for u, v, t in EVENTS))
    with mock.patch(refused, **how):
        return load_graph(path)


BUILDERS = {
    "from_events": lambda tmp_path: from_events(5, EVENTS),
    "load_graph_numpy_parse": lambda tmp_path: _load(  # numpy reads every line
        tmp_path, "tgtopo.data.from_events", side_effect=AssertionError),
    "load_graph_line_loop": lambda tmp_path: _load(
        tmp_path, "tgtopo.data._loadtxt", return_value=None),
    "perturb_timestamps": lambda tmp_path: perturb_timestamps(from_events(5, EVENTS), 0.5, 1)[0],
    "random_temporal_graph": lambda tmp_path: random_temporal_graph(np.random.default_rng(2)),
    "temporal_graph": lambda tmp_path: TemporalGraph(5, np.array(EVENTS)),
}


def test_temporal_graph_stable_sorts_its_rows():
    # the one place events are put in time order: every builder hands its rows over as they are
    rows = np.array(EVENTS)
    assert TemporalGraph(5, rows).events.tolist() == rows[[3, 1, 0, 2]].tolist()  # 2.5 tied


def _header_only(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 5 label 1\n")
    return load_graph(path)


# every way to build a graph with no events: the one refusal in TemporalGraph
EMPTY_BUILDERS = {
    "from_events": (lambda tmp_path: from_events(5, []), TemporalGraphError, ""),
    "temporal_graph": (lambda tmp_path: TemporalGraph(5, np.empty((0, 3))), TemporalGraphError, ""),
    "from_records": (lambda tmp_path: from_records(5, np.empty(0, EVENT)), TemporalGraphError, ""),
    "load_graph_header_only": (_header_only, ParseError, "{tmp}/g.txt: "),  # CLI exit 2
}


@pytest.mark.parametrize("build, error, where", EMPTY_BUILDERS.values(), ids=EMPTY_BUILDERS.keys())
def test_every_builder_refuses_an_empty_event_list(build, error, where, tmp_path):
    with pytest.raises(error) as exc:
        build(tmp_path)
    assert type(exc.value) is error
    assert str(exc.value) == where.format(tmp=tmp_path) + "empty event list"


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_builder_gives_read_only_time_sorted_events(build, tmp_path):
    g = build(tmp_path)
    ev = g.events
    assert type(ev) is np.ndarray and ev.dtype == np.float64 and ev.shape == (g.num_events, 3)
    assert ev.flags.c_contiguous and not ev.flags.writeable
    assert np.all(ev[1:, 2] >= ev[:-1, 2])
    assert g.num_events and type(g.t_min) is float and type(g.t_max) is float
    assert (g.t_min, g.t_max) == (ev[0, 2], ev[-1, 2])


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_builder_events_cannot_be_made_writeable(build, tmp_path):
    # a caller that could flip the flag could reorder rows under t_min, t_max and windows
    arr = build(tmp_path).events
    while isinstance(arr, np.ndarray):  # the array and every array it views
        with pytest.raises(ValueError):
            arr.flags.writeable = True
        arr = arr.base


class TestWindowSpec:
    def test_rejects_bad_stride(self):
        with pytest.raises(TemporalGraphError):
            WindowSpec(delta=2.0, sigma=2.0)
        with pytest.raises(TemporalGraphError):
            WindowSpec(delta=2.0, sigma=0.0)
        with pytest.raises(TemporalGraphError):
            WindowSpec(delta=0.0, sigma=-1.0)

    def test_rejects_an_infinite_length(self):
        # no window edge t_min + i*sigma + delta would be a number
        with pytest.raises(TemporalGraphError, match="^delta must be finite and > 0, got inf$"):
            WindowSpec(delta=math.inf, sigma=1.0)


class TestWindowCount:
    def test_formula_case(self):
        g = from_events(2, [(0, 1, 1.0), (0, 1, 25.0)])
        assert window_count(g, WindowSpec(6.0, 4.0)) == 6

    def test_clamp_when_span_fits(self):
        g = from_events(2, [(0, 1, 0.0), (0, 1, 6.0)])
        assert window_count(g, WindowSpec(6.0, 4.0)) == 1

    def test_matches_enumeration(self):
        # start times 0,4,8,12,16 fully inside, plus the final partial window
        g = from_events(2, [(0, 1, 0.0), (0, 1, 24.0)])
        starts = [s for s in range(0, 25, 4) if s <= 24 - 6]
        assert window_count(g, WindowSpec(6.0, 4.0)) == len(starts) + 1 == 6

    def test_random_configs_match_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            t_min = float(rng.uniform(-5, 5))
            span = float(rng.uniform(0.01, 50))
            delta = float(rng.uniform(0.1, 10))
            sigma = float(rng.uniform(0.01, 0.99)) * delta
            g = from_events(2, [(0, 1, t_min), (0, 1, t_min + span)])
            # oracle: walk start times until a window reaches t_max
            n = 1
            start = 0.0
            while start + delta < span:
                start += sigma
                n += 1
            assert window_count(g, WindowSpec(delta, sigma)) == n


class TestWindow:
    def test_multiplicity(self):
        g = from_events(2, [(0, 1, 1.0), (0, 1, 2.5)])
        w = _windows(g, np.array([1.0]), 2.0)[0]
        assert w.edges == ((0, 1),)
        assert w.edge_multiplicity == (2,)

    def test_empty_window(self):
        g = from_events(2, [(0, 1, 10.0)])
        w = _windows(g, np.array([0.0]), 1.0)[0]
        assert w.num_nodes == 0 and w.num_edges == 0

    def test_closed_interval_includes_both_endpoints(self):
        g = from_events(3, [(0, 1, 1.0), (1, 2, 3.0)])
        w = _windows(g, np.array([1.0]), 2.0)[0]
        assert w.edges == ((0, 1), (1, 2))

    def test_nodes_are_endpoints_only(self):
        g = from_events(5, [(0, 1, 1.0), (3, 4, 9.0)])
        w = _windows(g, np.array([0.0]), 2.0)[0]
        assert w.nodes == (0, 1)

    def test_matches_linear_scan(self):
        # Integer timestamps make ties and events exactly on both window
        # ends common; anchors and lengths are a mix of integers and floats.
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            events = []
            for _ in range(int(rng.integers(1, 40))):
                u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
                events.append((u, v, float(rng.integers(0, 12))))
            g = from_events(n, events)
            for _ in range(10):
                t = float(rng.integers(-2, 13)) if rng.random() < 0.7 else rng.uniform(-2, 13)
                delta = float(rng.integers(1, 6)) if rng.random() < 0.7 else rng.uniform(0.1, 6)
                w = _windows(g, np.array([t]), delta)[0]
                edges, mult = window_linear_scan(g, t, delta)
                assert (w.edges, w.edge_multiplicity) == (edges, mult)
                assert w.nodes == tuple(sorted({x for e in edges for x in e}))


def window_linear_scan(graph, t, delta):
    """Reference window: test every event against the closed [t, t + delta], both
    edges exact (``t`` a float or a Fraction)."""
    t = Fraction(t)
    hi = t + Fraction(delta)
    mult = {}
    for u, v, te in graph.events.tolist():
        if t <= te <= hi:
            pair = (int(min(u, v)), int(max(u, v)))
            mult[pair] = mult.get(pair, 0) + 1
    edges = tuple(sorted(mult))
    return edges, tuple(mult[e] for e in edges)


class TestWindowSequence:
    def test_toy_windows(self, toy_graph):
        seq = window_sequence(toy_graph, WindowSpec(2.0, 1.0))
        assert [w.t_start for w in seq[:3]] == [1.0, 2.0, 3.0]
        assert all(w.delta == 2.0 for w in seq)
        # G_[1,3]: events at t in {1,1,2,3}
        assert seq[0].edges == ((0, 1), (0, 2))
        assert seq[0].edge_multiplicity == (2, 2)
        # G_[2,4]: events at t in {2,3,4}
        assert seq[1].edges == ((0, 1), (0, 2), (1, 2))
        # G_[3,5]: events at t in {3,4}
        assert seq[2].edges == ((0, 1), (1, 2))

    def test_length_matches_count(self, toy_graph):
        spec = WindowSpec(2.0, 1.0)
        assert len(window_sequence(toy_graph, spec)) == window_count(toy_graph, spec)

    def test_consecutive_overlap(self):
        g = from_events(2, [(0, 1, 0.0), (0, 1, 24.0)])
        seq = window_sequence(g, WindowSpec(6.0, 4.0))
        for a, b in zip(seq, seq[1:]):
            # overlap is [b.t_start, a.t_start + delta], length delta - sigma
            assert (a.t_start + 6.0) - b.t_start == pytest.approx(2.0)

    @given(
        delta=st.floats(0.5, 10.0),
        frac=st.floats(0.05, 0.95),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_event_covered(self, delta, frac, seed):
        rng = np.random.default_rng(seed)
        n_events = int(rng.integers(1, 30))
        events = [
            (0, 1, float(rng.uniform(0, 20))) for _ in range(n_events)
        ]
        g = from_events(2, events)
        spec = WindowSpec(delta, frac * delta)
        seq = window_sequence(g, spec)
        for t in g.events[:, 2].tolist():
            assert any(w.t_start <= t <= w.t_start + w.delta for w in seq)

    @given(
        span=st.floats(0.0, 60.0),
        delta=st.floats(0.1, 10.0),
        frac=st.floats(0.05, 0.95),
    )
    @settings(max_examples=200, deadline=None)
    def test_count_equals_sequence_length(self, span, delta, frac):
        g = from_events(2, [(0, 1, 0.0), (0, 1, span)])
        spec = WindowSpec(delta, frac * delta)
        assert window_count(g, spec) == len(window_sequence(g, spec))


def exact_window_count(graph, spec):
    """The least k >= 1 with t_min + (k - 1) * sigma + delta >= t_max, in Fractions."""
    t0, t1, delta, sigma = map(Fraction, (graph.t_min, graph.t_max, spec.delta, spec.sigma))
    return 1 + max(0, math.ceil((t1 - t0 - delta) / sigma))


def oracle_windows(graph, spec):
    """Every window of the sequence, each cut by its own linear scan with the exact
    start t_min + i * sigma; ``t_start`` is the float nearest that start."""
    out = []
    for i in range(exact_window_count(graph, spec)):
        t = Fraction(graph.t_min) + i * Fraction(spec.sigma)
        edges, mult = window_linear_scan(graph, t, spec.delta)
        out.append(WindowGraph(i, float(t), spec.delta,
                               tuple(sorted({x for e in edges for x in e})), edges, mult))
    return out


class TestExactWindowEdges:
    """Window membership and the window count are decided exactly on the float
    inputs, as ``fractions.Fraction`` decides them, not by how the edges round."""

    def test_shifted_decimal_times_cut_the_same_windows(self):
        # 3 * 0.1 rounds to 0.30000000000000004 and 7 + that rounds to the float 7.3,
        # so float edges put (1, 2) in window 3 only after the shift; exactly, window
        # 3 starts above 0.3 (and above 7.3), so it holds no edge either way
        events = [(0, 1, 0.0), (1, 2, 0.3), (2, 3, 1.0)]
        spec = WindowSpec(0.2, 0.1)
        for shift in (0.0, 7.0):
            g = from_events(4, [(u, v, t + shift) for u, v, t in events])
            seq = window_sequence(g, spec)
            assert len(seq) == window_count(g, spec) == exact_window_count(g, spec) == 9
            assert seq[3].edges == () and list(seq) == oracle_windows(g, spec)

    def test_an_end_that_rounds_up_is_not_reached(self):
        # 0.1 + 0.2 rounds up to the float 0.30000000000000004, above the exact end
        g = from_events(2, [(0, 1, 0.30000000000000004)])
        assert _windows(g, np.array([0.1]), 0.2)[0].edges == ()
        assert _windows(g, np.array([0.1]), 0.25)[0].edges == ((0, 1),)

    @given(
        times=st.lists(st.floats(-30, 30) | st.integers(-300, 300).map(lambda k: k / 10)
                       | st.integers(-30, 30).map(float), min_size=1, max_size=30),
        shift=st.sampled_from([0.0, 7.0, 0.1, -1e6, 2.0**40]),
        sigma=st.floats(0.05, 5) | st.integers(1, 50).map(lambda k: k / 10),
        ratio=st.floats(1.01, 4) | st.sampled_from([1.5, 2.0, 3.0]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_windows_match_a_fraction_oracle(self, times, shift, sigma, ratio, data):
        delta = data.draw(st.sampled_from([sigma * ratio, sigma + 0.1, 2 * sigma]))
        spec = WindowSpec(delta, sigma)
        pairs = data.draw(st.lists(st.sampled_from([(0, 1), (1, 2), (0, 2), (2, 3)]),
                                   min_size=len(times), max_size=len(times)))
        g = from_events(4, [(u, v, t + shift) for (u, v), t in zip(pairs, times)])
        want = oracle_windows(g, spec)
        assert window_count(g, spec) == len(want)
        assert list(window_sequence(g, spec)) == want


@st.composite
def gappy_graphs(draw):
    """Up to 12 nodes, whose ids may sit far apart (up to 2**53 - 1), and events
    on an integer grid with gaps, so that some windows are empty."""
    n = draw(st.sampled_from([3, 12, 2**52, 2**53]))
    ids = st.integers(0, 11).map(lambda x: x if n == 12 else (n - 1 - x) % n)
    times = st.integers(0, 12) | st.integers(30, 40) | st.floats(0, 40)
    events = draw(st.lists(st.tuples(ids, ids, times), min_size=1, max_size=40))
    events = [(u, v, float(t)) for u, v, t in events if u != v]
    return from_events(n, events or [(0, 1, 0.0)])


class TestLazyWindows:
    """``window_sequence``'s lazy windows, windows cut one at a time by
    ``_windows`` and the linear-scan oracle all describe the same windows."""

    @staticmethod
    def check(graph, spec):
        seq, want = window_sequence(graph, spec), oracle_windows(graph, spec)
        assert len(seq) == len(want) and list(seq) == want
        assert [seq[-k] for k in range(1, len(seq) + 1)] == want[::-1]
        for cut in (slice(None), slice(1, None, 2), slice(-3, None), slice(None, None, -1),
                    slice(5, 2)):
            assert seq[cut] == want[cut]
        with pytest.raises(IndexError):
            seq[len(seq)]
        for i, w in enumerate(want):
            if Fraction(w.t_start) == Fraction(graph.t_min) + i * Fraction(spec.sigma):
                assert _windows(graph, np.array([w.t_start]), spec.delta)[0] == replace(
                    w, window_index=0)

    def test_toy(self, toy_graph):
        self.check(toy_graph, WindowSpec(2.0, 1.0))
        self.check(toy_graph, WindowSpec(1.5, 0.5))

    @given(graph=gappy_graphs(), spec=st.sampled_from(
        [WindowSpec(2.0, 1.0), WindowSpec(4.0, 1.0), WindowSpec(1.0, 0.5), WindowSpec(3.0, 2.5)]))
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_graphs(self, graph, spec):
        self.check(graph, spec)

    def test_sparse_node_ids_take_the_sort_branch(self):
        # ids near 2**40 make the node key space far larger than the keys
        base = 2**40
        events = [(base + (k * 7) % 5, base + (k * 3 + 1) % 5, float(k % 9)) for k in range(30)]
        g = from_events(2**40 + 5, [e for e in events if e[0] != e[1]])
        assert g.num_nodes > tgtopo.temporal.DENSE * 2 * g.num_events
        self.check(g, WindowSpec(3.0, 2.0))


class TestUnique:
    @staticmethod
    def check(keys, size):
        want = np.unique(keys, return_inverse=True, return_counts=True)
        got = _unique(keys, size)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)

    @given(size=st.integers(1, 300), pairs=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_unique(self, size, pairs, data):
        # sizes up to 300 over at most 60 keys fall on both sides of DENSE
        keys = np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=60)),
                        dtype=np.int64)
        keys = keys[:len(keys) // 2 * 2].reshape(-1, 2) if pairs and len(keys) > 1 else keys
        self.check(keys, size)

    @pytest.mark.parametrize("size", [1, tgtopo.temporal.DENSE * 6, tgtopo.temporal.DENSE * 6 + 1])
    def test_both_branches_at_the_constant(self, size):
        # 6 keys: counted up to DENSE * 6, sorted above
        keys = np.array([0, 0, size - 1, 0, size - 1, 0], dtype=np.int64)
        self.check(keys, size)
        self.check(keys.reshape(3, 2), size)
        self.check(np.zeros(0, np.int64), size)


class TestTemporalDegree:
    def test_toy_rows(self, toy_graph):
        m = temporal_degree(toy_graph, [1, 2, 3, 4, 5, 6])
        assert m[0].tolist() == [2, 1, 1, 0, 0, 0]
        assert m[1].tolist() == [1, 0, 1, 1, 0, 1]

    def test_inactive_node_zero_row(self, toy_graph):
        m = temporal_degree(toy_graph, [10.0])
        assert not m.any()

    def test_parallel_events_count(self):
        g = from_events(3, [(0, 1, 1.0), (0, 2, 1.0)])
        m = temporal_degree(g, [1.0])
        assert m[0, 0] == 2

    def test_binary_mode(self):
        g = from_events(3, [(0, 1, 1.0), (0, 2, 1.0)])
        m = temporal_degree(g, [1.0], binary=True)
        assert m[0, 0] == 1

    def test_column_sums(self, toy_graph):
        times = toy_graph.events[:, 2].tolist()
        grid = sorted(set(times))
        m = temporal_degree(toy_graph, grid)
        for j, t in enumerate(grid):
            n_events = times.count(t)
            assert m[:, j].sum() == 2 * n_events

    def test_empty_grid_rejected(self, toy_graph):
        with pytest.raises(TemporalGraphError, match="^timesteps grid is empty$"):
            temporal_degree(toy_graph, [])

    @settings(max_examples=60, deadline=None)
    @given(events=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                     st.integers(-2, 5).map(float)).filter(lambda e: e[0] != e[1]),
                           min_size=1, max_size=30),
           grid=st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.5, 3.0, 5.0, math.nan]),
                         min_size=1, max_size=8))
    def test_matches_event_loop(self, events, grid):
        # the event loop it replaced: a duplicated timestep counts in its
        # last column, and an unsorted or NaN grid is allowed
        g = from_events(5, events)
        col = {float(t): j for j, t in enumerate(grid)}
        want = np.zeros((5, len(grid)))
        for u, v, t in g.events.tolist():
            if t in col:
                want[int(u), col[t]] += 1.0
                want[int(v), col[t]] += 1.0
        assert np.array_equal(temporal_degree(g, grid), want)


def temporal_degree_add_at(graph, timesteps, binary=False):
    """The ``np.add.at`` form that ``temporal_degree``'s bincount replaced, kept as its oracle."""
    steps = np.array(list(timesteps), dtype=np.float64)
    order = np.argsort(steps, kind="stable")
    ev, grid = graph.events, steps[order]
    pos = np.searchsorted(grid, ev[:, 2], "right") - 1
    hit = (pos >= 0) & (grid[pos] == ev[:, 2])
    out = np.zeros((graph.num_nodes, len(steps)), dtype=np.float64)
    np.add.at(out, (ev[hit, :2].astype(np.int64).ravel(), np.repeat(order[pos[hit]], 2)), 1.0)
    return (out > 0).astype(np.float64) if binary else out


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 7), binary=st.booleans(), data=st.data(),
       grid=st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.5, 3.0, 5.0, math.nan]),
                     min_size=1, max_size=8))
def test_temporal_degree_matches_add_at(n, binary, data, grid):
    # repeated events, a duplicated or NaN timestep, nodes with no event
    ids = st.integers(0, n - 1)
    event = st.tuples(ids, ids, st.sampled_from([-1.0, 0.0, 1.0, 2.5, 5.0]))
    events = data.draw(st.lists(event.filter(lambda e: e[0] != e[1]), min_size=1, max_size=30))
    g = from_events(n, events)
    got, want = temporal_degree(g, grid, binary), temporal_degree_add_at(g, grid, binary)
    assert (got.dtype, got.shape, got.flags.c_contiguous) == (want.dtype, want.shape, True)
    assert got.tobytes() == want.tobytes()


class TestStaticProjection:
    def test_dedup(self):
        g = from_events(3, [(0, 1, 1.0), (0, 1, 3.0), (1, 2, 2.0)])
        assert static_projection(g).edges == ((0, 1), (1, 2))

    def test_reversed_pairs_come_out_sorted(self):
        g = from_events(3, [(2, 0, 1.0), (1, 0, 2.0)])
        assert static_projection(g).edges == ((0, 1), (0, 2))

    def test_union_of_covering_windows(self, toy_graph):
        seq = window_sequence(toy_graph, WindowSpec(2.0, 1.0))
        union = set()
        for w in seq:
            union.update(w.edges)
        assert set(static_projection(toy_graph).edges) == union
