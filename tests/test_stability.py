import hashlib
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import as_windows, er_window, graph_key, random_er_edges, window_from_edges
from tgtopo import spectral, stability
from tgtopo.spectral import TABLE_SIZES, _w1, spectral_descriptor
from tgtopo.stability import (
    _draw_er,
    _grid,
    _pair_table,
    _upper,
    PerturbationSpec,
    StabilityError,
    StabilityReport,
    campaign_csv,
    perturb_edges,
    perturb_timestamps,
    random_temporal_graph,
    run_campaign,
    spectral_stability_trial,
    topo_stability_trial,
)
from tgtopo.temporal import TemporalGraphError, WindowGraph, from_events, stack_windows
from tgtopo.topology import betti_curve, sublevel_persistence0, topo_descriptors

INFEASIBLE = "no feasible modification at step "  # perturb_edges' refusal of too large a k


class TestPerturbationSpec:
    def test_rejects_unknown_mode(self):
        with pytest.raises(StabilityError):
            PerturbationSpec("swap", 0.1, 50, 0)

    def test_rejects_zero_eps(self):
        with pytest.raises(StabilityError):
            PerturbationSpec("timestamp", 0.0, 50, 0)

    def test_rejects_negative_k(self):
        with pytest.raises(StabilityError):
            PerturbationSpec("edge", -1, 50, 0)

    @pytest.mark.parametrize("mode, magnitude, seed, trials", [
        *(pytest.param(*row, 50, id="-".join(map(str, row))) for row in [
            ("edge", math.nan, 0), ("edge", math.inf, 0), ("edge", 2.5, 0),
            ("timestamp", math.inf, 0), ("timestamp", math.nan, 0),
            ("timestamp", sys.float_info.max, 0), ("timestamp", 8e307, 0),
            ("timestamp", 0.1, -1), ("edge", 2, 1.0)]),
        # SeedSequence.spawn would end the campaign in a bare TypeError
        pytest.param("edge", 2, 1, 30.0, id="edge-2-1-trials-30.0"),
        pytest.param("edge", 2, 1, True, id="edge-2-1-trials-True"),
        pytest.param("timestamp", 0.1, 1, "30", id="timestamp-0.1-1-trials-str"),
        pytest.param("timestamp", 0.1, 1, None, id="timestamp-0.1-1-trials-None"),
    ])
    def test_rejects_malformed_magnitude_or_seed(self, mode, magnitude, seed, trials):
        with pytest.raises(StabilityError):
            PerturbationSpec(mode, magnitude, trials, seed)

    @pytest.mark.parametrize("mode", ["edge", "timestamp"])
    @pytest.mark.parametrize("magnitude", [True, False, np.bool_(True), "2", None, 1j],
                             ids=["True", "False", "np-True", "str", "None", "complex"])
    def test_rejects_bool_or_non_real_magnitude(self, mode, magnitude):
        # True once ran as k = 1 (or eps = 1); a str or None raised a bare TypeError
        with pytest.raises(StabilityError):
            PerturbationSpec(mode, magnitude, 30, 1)

    def test_integral_float_k_runs_as_its_integer(self):
        # argparse hands the CLI's --magnitude over as a float
        assert (run_campaign(PerturbationSpec("edge", 2.0, 30, 4)).trials
                == run_campaign(PerturbationSpec("edge", 2, 30, 4)).trials)


class TestPerturbTimestamps:
    def test_structure_preserved(self):
        g = from_events(3, [(0, 1, 1.0), (1, 2, 5.0)])
        perturbed, l1 = perturb_timestamps(g, 0.25, seed=3)
        assert sorted(perturbed.events[:, :2].tolist()) == [[0, 1], [1, 2]]
        assert l1 >= 0

    def test_shift_bound_and_exact_l1(self):
        g = from_events(4, [(0, 1, float(t)) for t in range(1, 9)])
        perturbed, l1 = perturb_timestamps(g, 0.5, seed=7)
        orig = sorted(g.events[:, 2].tolist())
        new = sorted(perturbed.events[:, 2].tolist())
        shifts = [abs(a - b) for a, b in zip(orig, new)]
        assert max(shifts) <= 0.5
        # sorted pairing matches the true pairing here: identical edge labels
        assert l1 == pytest.approx(sum(shifts))

    @pytest.mark.parametrize("eps", [0.5, 1e-300])
    @pytest.mark.parametrize("seed", range(4))
    def test_graph_is_what_from_events_builds(self, seed, eps):
        # the perturbed graph skips from_events' validation but not its result:
        # the same stable time sort (tied times keep their order, eps 1e-300
        # leaves the rounded times tied), bounds and label
        g = random_temporal_graph(np.random.default_rng(seed), 12, 30)
        events = [(int(u), int(v), float(round(t))) for u, v, t in g.events.tolist()]
        g = from_events(g.num_nodes, events, seed % 2)
        perturbed, l1 = perturb_timestamps(g, eps, seed)
        shifts = np.random.default_rng(seed).uniform(-eps, eps, size=g.num_events)
        rebuilt = from_events(g.num_nodes, [(u, v, t + float(dt)) for (u, v, t), dt
                                            in zip(g.events.tolist(), shifts)], g.label)
        assert graph_key(perturbed) == graph_key(rebuilt) and l1 == float(np.abs(shifts).sum())
        assert (perturbed.t_min, perturbed.t_max) == (rebuilt.t_min, rebuilt.t_max)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_overflowing_shift_is_non_finite(self, sign):
        # a shift away from zero takes the largest double past itself
        g = from_events(3, [(0, 1, 0.0), (1, 2, sign * sys.float_info.max)])
        with pytest.raises(TemporalGraphError, match=r"^event \(1,2\) has timestamp -?inf$"):
            for seed in range(10):
                perturb_timestamps(g, 1e300, seed)

    def test_seed_determinism(self):
        g = from_events(3, [(0, 1, 1.0), (1, 2, 2.0)])
        a, _ = perturb_timestamps(g, 0.1, seed=5)
        b, _ = perturb_timestamps(g, 0.1, seed=5)
        assert graph_key(a) == graph_key(b)


class TestPerturbEdges:
    def test_symmetric_difference_exactly_k(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            win = er_window(rng, n_low=10, n_high=20, p=0.3)
            k = int(rng.integers(1, 6))
            out = perturb_edges(win, k, seed=trial)
            diff = set(win.edges) ^ set(out.edges)
            assert len(diff) == k

    def test_no_isolated_nodes_created(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            win = er_window(rng, n_low=10, n_high=16, p=0.3)
            out = perturb_edges(win, 3, seed=trial)
            touched = {x for e in out.edges for x in e}
            assert set(win.nodes) <= touched

    def test_k_zero_is_identity(self):
        win = window_from_edges([(0, 1), (1, 2)])
        assert perturb_edges(win, 0, seed=0).edges == win.edges

    def test_infeasible_k(self):
        win = window_from_edges([(0, 1)])
        # one edge, two nodes: the only pair is undeletable and uninsertable
        with pytest.raises(StabilityError, match=f"^{INFEASIBLE}0 of 1$"):
            perturb_edges(win, 1, seed=0)

    def test_matches_reference_for_every_feasible_k(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            win = er_window(rng, n_low=4, n_high=9, p=float(rng.choice([0.3, 0.7])))
            for seed in range(3):
                k = 0
                while True:
                    try:
                        expected = perturb_edges_reference(win, k, seed)
                    except StabilityError as exc:
                        assert str(exc).startswith(INFEASIBLE), exc
                        with pytest.raises(StabilityError, match=f"^{re.escape(str(exc))}$"):
                            perturb_edges(win, k, seed)
                        break
                    assert perturb_edges(win, k, seed) == expected
                    k += 1

    def test_matches_reference_at_campaign_sizes(self):
        # the campaigns' windows: 20-60 nodes at p = 0.2, k of 0, 1, 2 and 16
        rng = np.random.default_rng(21)
        for _ in range(8):
            win = er_window(rng)
            for k in (0, 1, 2, 16):
                for seed in range(3):
                    assert perturb_edges(win, k, seed) == perturb_edges_reference(win, k, seed)

    def test_matches_reference_on_sparse_windows(self):
        # at p = 0.05 most nodes have degree 1 or 2, so edits often move a degree
        # across 1 <-> 2 and change which edges are deletable; the small windows
        # run every k up to and past the first infeasible one
        rng = np.random.default_rng(5)
        for n_low, n_high, ks in ((20, 60, (1, 2, 5, 16, 40)), (4, 12, range(80))):
            for _ in range(10):
                win = er_window(rng, n_low, n_high, 0.05)
                if not win.num_nodes:
                    continue
                for seed in range(2):
                    for k in ks:
                        try:
                            expected = perturb_edges_reference(win, k, seed)
                        except StabilityError as exc:
                            assert str(exc).startswith(INFEASIBLE), exc
                            with pytest.raises(StabilityError, match=f"^{re.escape(str(exc))}$"):
                                perturb_edges(win, k, seed)
                            break
                        assert perturb_edges(win, k, seed) == expected


def perturb_edges_reference(win, k, seed):
    """Straightforward perturb_edges: rebuilds the pair set and the degrees
    on every step.  The optimized version must make the same draws."""
    rng = np.random.default_rng(seed)
    nodes = list(win.nodes)
    n = len(nodes)
    edges = set(win.edges)
    all_pairs = {(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)}
    touched = set()
    for step in range(k):
        non_edges = sorted(all_pairs - edges - touched)
        degree = {v: 0 for v in nodes}
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        deletable = sorted(
            e for e in edges
            if e not in touched and degree[e[0]] > 1 and degree[e[1]] > 1
        )
        if not non_edges and not deletable:
            raise StabilityError(f"{INFEASIBLE}{step} of {k}")
        if not deletable:
            choice = "insert"
        elif not non_edges:
            choice = "delete"
        else:
            choice = "insert" if rng.random() < 0.5 else "delete"
        if choice == "insert":
            pick = non_edges[int(rng.integers(len(non_edges)))]
            edges.add(pick)
        else:
            pick = deletable[int(rng.integers(len(deletable)))]
            edges.remove(pick)
        touched.add(pick)
    edges = tuple(sorted(edges))
    return WindowGraph(win.window_index, win.t_start, win.delta, win.nodes, edges,
                       (1,) * len(edges))


class TestTrials:
    def test_topo_trial_zero_distance_for_tiny_eps(self):
        g = from_events(4, [(0, 1, 1.0), (1, 2, 5.0), (2, 3, 9.0)])
        lhs, rhs = topo_stability_trial(g, 1e-9, seed=1)
        assert lhs == pytest.approx(0.0, abs=1e-6)
        assert rhs <= 3e-9

    def test_spectral_trial_bounds(self):
        rng = np.random.default_rng(9)
        win = er_window(rng)
        w1, ratio_base = spectral_stability_trial(win.num_nodes, win.local_edges(), 2, seed=3)
        assert 0.0 <= w1 <= 3.0  # diameter of the metric on [0,2]
        assert ratio_base == pytest.approx(2 / win.num_nodes)


class TestEditCountAndBinGuards:
    # a campaign window; k and bins are refused before any draw
    win = er_window(np.random.default_rng(9))
    local = win.num_nodes, win.local_edges()

    @pytest.mark.parametrize("k", [-1, 2.5, 2.0, True, "2", None])
    def test_trial_and_perturb_edges_refuse_k(self, k):
        with pytest.raises(StabilityError, match="k must be an integer >= 0"):
            spectral_stability_trial(*self.local, k, seed=3)
        with pytest.raises(StabilityError, match="k must be an integer >= 0"):
            perturb_edges(self.win, k, seed=3)

    @pytest.mark.parametrize("bins", [0, -1, 2.5, True, None])
    def test_trial_refuses_bins(self, bins):
        with pytest.raises(StabilityError, match="bins must be an integer >= 1"):
            spectral_stability_trial(*self.local, 2, seed=3, bins=bins)

    def test_numpy_integers_are_taken(self):
        assert spectral_stability_trial(*self.local, np.int64(2), 3, np.int64(4)) == \
            spectral_stability_trial(*self.local, 2, 3, 4)


class TestSeedAndEpsGuards:
    # a campaign graph and window; a seed or eps that PerturbationSpec would refuse
    # is refused by every entry point too, before any generator is made
    graph = random_temporal_graph(np.random.default_rng(9))
    win = er_window(np.random.default_rng(9))
    local = win.num_nodes, win.local_edges()

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a generator was made")
        monkeypatch.setattr(np.random, "default_rng", refuse)

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "3", True, np.bool_(True)],
                             ids=["None", "-1", "1.5", "str", "True", "np-True"])
    def test_every_entry_refuses_seed(self, seed, no_draws):
        for call in (lambda: perturb_timestamps(self.graph, 0.1, seed),
                     lambda: topo_stability_trial(self.graph, 0.1, seed),
                     lambda: perturb_edges(self.win, 2, seed),
                     lambda: spectral_stability_trial(*self.local, 2, seed)):
            with pytest.raises(StabilityError, match="seed must be an integer >= 0"):
                call()

    @pytest.mark.parametrize("eps", [math.inf, 1e308, sys.float_info.max, np.nextafter(1e300, math.inf),
                                     math.nan, 0.0, -0.1, True, np.bool_(True), None, "0.1"],
                             ids=["inf", "1e308", "max", "above-1e300", "nan", "0", "-0.1",
                                  "True", "np-True", "None", "str"])
    def test_timestamp_entries_refuse_eps_as_the_spec_does(self, eps, no_draws):
        for call in (lambda: perturb_timestamps(self.graph, eps, 3),
                     lambda: topo_stability_trial(self.graph, eps, 3),
                     lambda: PerturbationSpec("timestamp", eps, 30, 3)):
            with pytest.raises(StabilityError):
                call()

    def test_numpy_seed_and_largest_eps_are_taken(self):
        assert topo_stability_trial(self.graph, np.float64(0.1), np.int64(3)) == \
            topo_stability_trial(self.graph, 0.1, 3)
        assert perturb_edges(self.win, 2, np.int64(3)) == perturb_edges(self.win, 2, 3)
        assert spectral_stability_trial(*self.local, 2, np.uint32(3)) == \
            spectral_stability_trial(*self.local, 2, 3)
        PerturbationSpec("timestamp", 1e300, 30, 3)
        perturb_timestamps(from_events(3, [(0, 1, 0.0), (1, 2, 1.0)]), 1e300, 3)


def spectral_trial_chain(win, k, seed, bins=4):
    """The per-window edge trial: two windows, two Laplacians, two eigensolves,
    two histograms."""
    perturbed = perturb_edges(win, k, seed)
    w1 = _w1(spectral_descriptor(win, bins).mass, spectral_descriptor(perturbed, bins).mass)
    return w1, k / win.num_nodes


def topo_trial_chain(graph, eps, seed):
    """The timestamp trial on persistence diagrams: two dict-based union-finds,
    then the Betti-0 curves read off the diagrams."""
    perturbed, l1 = perturb_timestamps(graph, eps, seed)
    pd_a, pd_b = (sublevel_persistence0((int(u), int(v), t) for u, v, t in g.events.tolist())
                  for g in (graph, perturbed))
    grid = np.union1d(graph.events[:, 2], perturbed.events[:, 2])
    curve_a, curve_b = betti_curve(pd_a, grid), betti_curve(pd_b, grid)
    gaps = np.diff(grid, append=grid[-1])
    lhs = sum((np.abs(np.subtract(curve_a.values, curve_b.values)) * gaps).tolist())
    return float(lhs), float(l1)


def _hex(pair):
    return tuple(float(x).hex() for x in pair)


class TestArrayTrialsMatchChains:
    # few node ids, so pairs repeat and small windows run out of feasible edits
    pairs = st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1])

    # ER windows of up to 70 nodes, past the largest cached table size (64), sparse to dense
    windows = st.builds(lambda n, p, state: random_er_edges(np.random.default_rng(state), n, p),
                        st.integers(2, 70), st.sampled_from([0.03, 0.1, 0.2, 0.6]),
                        st.integers(0, 2**32 - 1)).filter(len)

    @given(st.lists(pairs, min_size=1, max_size=20) | windows, st.integers(0, 2**31 - 1),
           st.integers(1, 8))
    @example([(0, 1)], 0, 4)
    @example([(0, 1), (2, 3)], 5, 1)  # two components: deletions never become possible
    @settings(max_examples=150, deadline=None)
    def test_edge_trial_bytes_and_infeasible_k(self, edges, seed, bins):
        win = window_from_edges(edges)
        n, local = win.num_nodes, (win.num_nodes, win.local_edges())
        # a pair is edited at most once, so n(n - 1)/2 + 1 edits are never feasible; the
        # step this fails at is the largest feasible k, as k edits are the first k of any more
        with pytest.raises(StabilityError, match=f"^{INFEASIBLE}") as info:
            spectral_stability_trial(*local, n * (n - 1) // 2 + 1, seed, bins)
        last = int(str(info.value)[len(INFEASIBLE):].split()[0])
        # every feasible k (spread out on large windows), then three past it
        ks = range(last + 4) if last < 40 else [0, 1, 2, 16, last // 2, *range(last, last + 4)]
        for k in ks:
            try:
                expected = spectral_trial_chain(win, k, seed, bins)
            except StabilityError as exc:
                assert k > last and str(exc) == f"{INFEASIBLE}{last} of {k}", exc
                with pytest.raises(StabilityError, match=f"^{re.escape(str(exc))}$"):
                    spectral_stability_trial(*local, k, seed, bins)
            else:
                assert k <= last
                assert _hex(spectral_stability_trial(*local, k, seed, bins)) == _hex(expected)

    times = st.integers(0, 3).map(float) | st.floats(0, 10)  # ties are common

    @given(st.lists(st.tuples(pairs, times), min_size=1, max_size=30),
           st.sampled_from([1e-300, 0.01, 0.5, 4.0]), st.integers(0, 2**31 - 1))
    @example([((0, 1), 1.0)], 0.5, 0)  # a single event
    @example([((0, 1), 1.0), ((1, 0), 1.0), ((1, 2), 1.0), ((0, 2), 2.0)], 1e-300, 3)
    @settings(max_examples=200, deadline=None)
    def test_timestamp_trial_matches_diagram_curves(self, events, eps, seed):
        graph = from_events(8, [(u, v, t) for (u, v), t in events])
        assert _hex(topo_stability_trial(graph, eps, seed)) == _hex(
            topo_trial_chain(graph, eps, seed))

    def test_timestamp_trial_matches_chain_on_campaign_draws(self):
        rng = np.random.default_rng(24)
        for i in range(50):
            graph, eps = random_temporal_graph(rng), (0.01, 0.1, 1.0)[i % 3]
            seed = int(rng.integers(0, 2**31))
            assert _hex(topo_stability_trial(graph, eps, seed)) == _hex(
                topo_trial_chain(graph, eps, seed))

    signed = st.sampled_from([-0.0, 0.0, 1.0, -2.5]) | st.floats(-10, 10)  # ties, both zeros

    @given(st.lists(signed, min_size=1, max_size=25), st.lists(signed, min_size=1, max_size=25))
    @example([0.0, 1.0], [-0.0, 1.0])
    @example([-0.0], [0.0, 0.0])
    @settings(max_examples=300, deadline=None)
    def test_grid_and_gaps_are_union1d_and_diff(self, a, b):
        a, b = np.sort(a), np.sort(b)  # the trial's two time columns are sorted
        grid, gaps = _grid(a, b)
        expected = np.union1d(a, b)
        assert grid.tobytes() == expected.tobytes()
        assert gaps.tobytes() == np.diff(expected, append=expected[-1]).tobytes()


class TestCampaigns:
    def test_requires_thirty_trials(self):
        with pytest.raises(StabilityError):
            run_campaign(PerturbationSpec("timestamp", 0.1, 10, 0))

    def test_timestamp_campaign(self):
        report = run_campaign(PerturbationSpec("timestamp", 0.01, 30, 1))
        assert len(report.trials) == 30
        assert np.isfinite(report.empirical_constant)
        assert report.mean_distance() >= 0.0

    def test_edge_campaign_within_linear_bound(self):
        report = run_campaign(PerturbationSpec("edge", 2, 30, 2))
        assert len(report.trials) == 30
        # W1 <= C * k/n with a modest constant on this corpus
        assert report.empirical_constant <= 4.0

    @pytest.mark.parametrize("mode, magnitude", [("timestamp", 0.1), ("edge", 1)])
    def test_campaign_determinism(self, mode, magnitude):
        a, b = (run_campaign(PerturbationSpec(mode, magnitude, 30, 5)) for _ in "ab")
        assert a.trials == b.trials

    @pytest.mark.parametrize("mode, magnitude", [("timestamp", 0.1), ("edge", 2)])
    def test_seeds_spawned_in_chunks_are_the_seeds_spawned_at_once(self, mode, magnitude,
                                                                    monkeypatch):
        # no perfbench campaign (at most 400 trials) spawns inside a timed trial
        assert stability.SPAWN_CHUNK >= 4096
        spec = PerturbationSpec(mode, magnitude, 30, 6)
        at_once = run_campaign(spec)  # one spawn of all 30 children
        monkeypatch.setattr(stability, "SPAWN_CHUNK", 7)
        chunked = run_campaign(spec)
        assert np.array(chunked.trials).tobytes() == np.array(at_once.trials).tobytes()

    def test_a_long_campaign_holds_one_chunk_of_seeds(self, monkeypatch):
        # spawning all 200,000 children before the first trial peaked at about 75 MB
        def first_trial(rng):
            raise RuntimeError("first trial")

        monkeypatch.setattr(stability, "_draw_er", first_trial)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="first trial"):
                run_campaign(PerturbationSpec("edge", 2, 200_000, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_campaign_csv_layout(self):
        report = run_campaign(PerturbationSpec("edge", 1, 30, 3))
        text = campaign_csv([report])
        lines = text.splitlines()
        assert lines[0] == "trial,mode,magnitude,distance,ratio"
        assert len([l for l in lines if l.startswith("summary,")]) == 1
        assert len(lines) == 32


U = 2.0**-53  # the unit roundoff of float64


def edge_bound(bins, k_over_n):
    """The proven edge-trial bound and its rounding tolerance.

    The masses c/n round once each; a CDF value sums at most B of them, all in
    [0, 1], so it is off by at most B*u and a CDF gap by (2B + 1)*u.  The B
    gaps' sum, the width 2/B and the bound's own arithmetic add (B + 6)*u
    relative.  So W1 exceeds the exact bound by at most 2(2B + 1)*u + (B + 6)*u
    * bound, which 4(B + 2)*u*(1 + bound) covers."""
    bound = 2 * (bins - 1) / bins * k_over_n
    return bound, 4 * (bins + 2) * U * (1 + bound)


def timestamp_tolerance(rhs, perturbed_times):
    """How far a timestamp trial's lhs may exceed rhs through rounding.

    The exact curves' L1 distance is at most the sum of the realised shifts
    |fl(t + s) - t| <= |s| + u*|fl(t + s)| (plus 2**-1074 each if subnormal).
    lhs rounds each grid gap and product once and sums at most 2m terms in
    order, (1 + u)**(2m + 1); numpy's sum of the m drawn |s| in rhs is low by
    at most (m - 1)*u relative.  To first order with slack: rhs * 4m*u plus
    2u * sum |fl(t + s)| plus m * 2**-1074."""
    m = len(perturbed_times)
    return rhs * 4 * m * U + 2 * U * np.abs(perturbed_times).sum() + m * 2.0**-1074


class TestProvenBounds:
    """The bounds the ``stability`` docstring proves: W1 <= 2(B - 1)/B * k/n
    for edge trials and lhs <= rhs for timestamp trials, each up to its
    stated rounding tolerance, and both reached."""

    pairs = TestArrayTrialsMatchChains.pairs

    @given(st.lists(pairs, min_size=1, max_size=20), st.integers(0, 2**31 - 1),
           st.sampled_from([1, 2, 3, 4, 7]))
    @example([(0, 1), (1, 2), (2, 3), (3, 0)], 0, 4)
    @settings(max_examples=150, deadline=None)
    def test_edge_trials_within_interlacing_bound(self, edges, seed, bins):
        win = window_from_edges(edges)
        for k in range(1, 40):  # every feasible k
            try:
                w1, k_over_n = spectral_stability_trial(win.num_nodes, win.local_edges(), k,
                                                        seed, bins)
            except StabilityError as exc:
                assert str(exc).startswith(INFEASIBLE), exc
                break
            bound, tol = edge_bound(bins, k_over_n)
            assert k_over_n == k / win.num_nodes
            assert w1 <= bound + tol

    def test_edge_trials_on_er_draws_within_interlacing_bound(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            nodes, pairs = _draw_er(rng, 3, 30, float(rng.uniform(0.1, 0.6)))
            k, bins = int(rng.integers(1, 6)), int(rng.choice([2, 4]))
            if not len(nodes):
                continue
            try:
                w1, _ = spectral_stability_trial(len(nodes), pairs, k,
                                                 int(rng.integers(2**31)), bins)
            except StabilityError as exc:
                assert str(exc).startswith(INFEASIBLE), exc
                continue
            bound, tol = edge_bound(bins, k / len(nodes))
            assert w1 <= bound + tol

    def test_k1_edge_campaign_reaches_the_bound(self):
        report = run_campaign(PerturbationSpec("edge", 1, 200, 12))
        for k_over_n, w1 in report.trials:
            bound, tol = edge_bound(4, k_over_n)
            assert bound == 1.5 * k_over_n and w1 <= bound + tol
        assert report.empirical_constant == pytest.approx(1.5, rel=1e-12)
        assert report.bound == 1.5 and report.over_bound() == 0

    @pytest.mark.parametrize("mode, bound", [("topo", 1.0), ("spectral", 1.5)])
    def test_report_counts_trials_over_the_bound_past_its_tolerance(self, mode, bound):
        # campaign trials bin into 4 bins; the tolerance 2**-40 * (1 + magnitude) covers the
        # edge trials' derived rounding (the timestamp trials' is checked below)
        for m in (0.0, 1e-300, 0.01, 0.5, 3.0, 1e300):
            tol = 2**-40 * (1 + m)
            edge, derived = edge_bound(4, m)
            assert edge == 1.5 * m and derived <= tol
            over = [(m, bound * m + 2 * tol), (m, math.nan), (m, math.inf)]
            report = StabilityReport(mode, [(m, bound * m), (m, bound * m + 0.5 * tol), *over])
            assert report.bound == bound and report.over_bound() == 3

    @pytest.mark.parametrize("eps", [1e-300, 1e-16, 1e-15, 4e-15, 1e-9, 0.1, 1e300])
    def test_timestamp_tolerance_covers_campaign_trials(self, eps):
        # the derived timestamp tolerance on a campaign's trials is below the report's
        rng = np.random.default_rng(7)
        for seed in range(20):
            g = random_temporal_graph(rng)
            lhs, rhs = topo_stability_trial(g, eps, seed)
            tol = timestamp_tolerance(rhs, perturb_timestamps(g, eps, seed)[0].events[:, 2])
            assert lhs <= rhs + tol and tol <= 2**-40 * (1 + rhs)
        assert run_campaign(PerturbationSpec("timestamp", eps, 30, 7)).over_bound() == 0

    events = st.lists(st.tuples(st.integers(0, 5), st.integers(1, 5),
                                st.integers(0, 3).map(float) | st.floats(0, 10)),
                      min_size=1, max_size=18)

    @given(events, st.sampled_from([1e-300, 1e-9, 1e-3, 0.5, 4.0, 50.0]) | st.floats(1e-6, 50),
           st.integers(0, 2**31 - 1))
    @example([(0, 1, 1.0)], 0.5, 0)
    @settings(max_examples=200, deadline=None)
    def test_timestamp_trials_within_shift_bound(self, events, eps, seed):
        # 2-6 nodes: u and u + offset mod 6 are distinct
        graph = from_events(6, [(u, (u + o) % 6, t) for u, o, t in events])
        lhs, rhs = topo_stability_trial(graph, eps, seed)
        perturbed, l1 = perturb_timestamps(graph, eps, seed)
        assert rhs == l1
        assert lhs <= rhs + timestamp_tolerance(rhs, perturbed.events[:, 2])

    @given(st.floats(0, 10), st.floats(1e-3, 50), st.integers(0, 2**31 - 1))
    @example(1.0, 0.5, 0)
    @settings(max_examples=100, deadline=None)
    def test_one_event_reaches_the_timestamp_bound(self, t, eps, seed):
        # lhs is the one grid gap |fl(t + s) - t|, and rhs is |s|: they differ
        # by the rounding of t + s, at most u*|fl(t + s)|, and of the gap's
        # subtraction, at most u*lhs
        graph = from_events(2, [(0, 1, t)])
        lhs, rhs = topo_stability_trial(graph, eps, seed)
        moved = perturb_timestamps(graph, eps, seed)[0].events[0, 2]
        assert lhs == abs(moved - t)
        assert abs(lhs - rhs) <= 2 * U * (abs(moved) + lhs) + 2.0**-1074


class TestCampaignFingerprint:
    # SHA-256 of campaign_csv for one timestamp campaign and two edge
    # campaigns.  Refactors of the perturbations and distances leave it
    # unchanged; record a new value only for an intended change to the
    # random draws or to a distance.
    DIGEST = "42fb8d91625e10fdfac8cf9a961eaa48202abbca9d2a6cc458400bfb301ec0ab"

    def test_digest(self):
        reports = [run_campaign(PerturbationSpec("timestamp", 0.1, 30, 1)),
                   run_campaign(PerturbationSpec("edge", 2, 30, 2)),
                   run_campaign(PerturbationSpec("edge", 16, 30, 3))]
        assert hashlib.sha256(campaign_csv(reports).encode()).hexdigest() == self.DIGEST

    def test_edge_digest_at_benchmark_sizes(self):
        # perfbench's two edge campaigns at its seed 1
        reports = [run_campaign(PerturbationSpec("edge", 2, 50, 11)),
                   run_campaign(PerturbationSpec("edge", 16, 50, 12))]
        assert hashlib.sha256(campaign_csv(reports).encode()).hexdigest() == \
            "89c44247fc654418ec432332aa4e14a2e0f6011e123e4f4d71bceabe6979b2c3"


class TestRandomGenerators:
    @pytest.mark.parametrize("kwargs", [
        dict(n_low=1, n_high=1),  # every u equals v: the scalar loop never ended
        dict(n_low=1, n_high=5),
        dict(n_low=0, n_high=3),
        dict(n_low=5, n_high=4),
        dict(n_low=2**32, n_high=2**32, events_per_node=1e-12),
        dict(events_per_node=float("nan")),
        dict(events_per_node=float("inf")),
    ])
    def test_random_temporal_graph_refuses_sizes_before_drawing(self, kwargs):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(StabilityError):
            random_temporal_graph(rng, **kwargs)
        assert rng.bit_generator.state == before

    def test_random_temporal_graph_ranges(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_temporal_graph(rng)
            assert 10 <= g.num_nodes <= 40
            assert g.num_events >= 1

    def test_draw_er_drops_isolated_nodes(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            nodes, pairs = _draw_er(rng)
            assert np.array_equal(np.unique(pairs), np.arange(len(nodes)))


    @pytest.mark.parametrize("kwargs", [
        dict(n_low=5, n_high=4),
        dict(n_low=-1, n_high=3),
        dict(p=float("nan")),
        dict(p=-0.1),
        dict(p=1.5),
    ])
    def test_draw_er_refuses_inputs_before_drawing(self, kwargs):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(StabilityError):
            _draw_er(rng, **kwargs)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("n_low, n_high, p", [
        (20, 60, 0.2), (1, 9, 0.5), (0, 6, 0.5), (1, 4, 0.3), (0, 1, 1.0), (3, 12, 0.0),
        (2, 9, 1.0),
        # every n from 1 to 60, sparse enough that most draws drop isolated nodes
        (1, 60, 0.03), (1, 60, 0.1), (40, 60, 0.02),
        (60, 70, 0.2)])  # sizes on both sides of the largest cached table (64)
    def test_draw_er_matches_the_scalar_draw(self, n_low, n_high, p):
        # the campaign's draw: the nodes and local pairs of the window that one draw per
        # pair makes, and the generator left in the same state, so later draws line up
        for state in range(120):
            rng, ref = np.random.default_rng(state), np.random.default_rng(state)
            nodes, pairs = _draw_er(rng, n_low, n_high, p)
            win = er_window(ref, n_low, n_high, p)
            assert tuple(nodes.tolist()) == win.nodes and len(nodes) == win.num_nodes
            assert pairs.dtype == np.int64 and pairs.shape == (win.num_edges, 2)
            assert np.array_equal(pairs, win.local_edges())
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_trial_on_drawn_pairs_is_trial_on_window(self):
        # a campaign's trial on its draw gives the bytes of the per-window chain
        # on the window that the scalar draw makes of the same generator state
        rng = np.random.default_rng(30)
        for seed in range(20):
            state = rng.bit_generator.state
            nodes, pairs = _draw_er(rng)
            rng.bit_generator.state = state
            win = er_window(rng)
            for k in (0, 1, 2, 16):
                assert _hex(spectral_stability_trial(len(nodes), pairs, k, seed)) \
                    == _hex(spectral_trial_chain(win, k, seed))

    def test_tables_are_read_only_and_their_caches_bounded(self):
        # the per-size tables of the draw, the edits and the binning: a size up to
        # TABLE_SIZES is built once and shared read-only; a larger one is built per call
        for table in (_pair_table, _upper, spectral._bin_edges):
            for size in range(1, 3 * TABLE_SIZES):
                shared = size <= TABLE_SIZES
                first, second = table(size), table(size)
                assert (first is second) == shared
                assert first.flags.writeable != shared
                if shared:
                    with pytest.raises(ValueError, match="read-only"):
                        first[...] = 0
            assert table.cache_info().currsize <= TABLE_SIZES + 1
            assert table.cache_info().maxsize == TABLE_SIZES + 1
        assert np.array_equal(_pair_table(5), [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 3],
                                               [1, 4], [2, 3], [2, 4], [3, 4]])
        assert np.array_equal(_upper(3), [[False, True, True], [False, False, True],
                                          [False, False, False]])
        assert spectral._bin_edges(4).tolist() == [0.5, 1.0, 1.5]

    def test_draw_er_takes_p_zero_and_one(self):
        nodes, pairs = _draw_er(np.random.default_rng(0), 4, 4, 0.0)
        assert len(nodes) == 0 and pairs.shape == (0, 2)
        nodes, pairs = _draw_er(np.random.default_rng(0), 4, 4, 1.0)
        assert nodes.tolist() == [0, 1, 2, 3] and pairs.tolist() == [
            [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


def _assert_valid_draw(g, n_low, n_high, events_per_node):
    """A random_temporal_graph draw: n in range, exactly m events between distinct ids
    below n, times in [0, 10) in ascending order."""
    n = g.num_nodes
    assert n_low <= n <= n_high
    assert g.num_events == max(1, int(events_per_node * n))
    u, v, t = g.events.T
    assert np.array_equal(u, u.astype(np.int64)) and np.array_equal(v, v.astype(np.int64))
    assert np.all((0 <= u) & (u < n) & (0 <= v) & (v < n) & (u != v))
    assert np.all((0 <= t) & (t < 10)) and np.all(t[1:] >= t[:-1])


class TestRandomTemporalGraph:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_low=st.integers(2, 40), extra=st.integers(0, 40),
           events_per_node=st.floats(-2.0, 8.0))
    @example(seed=0, n_low=2, extra=0, events_per_node=50.0)
    def test_draw_is_valid_and_seeded(self, seed, n_low, extra, events_per_node):
        kwargs = dict(n_low=n_low, n_high=n_low + extra, events_per_node=events_per_node)
        g = random_temporal_graph(np.random.default_rng(seed), **kwargs)
        _assert_valid_draw(g, **kwargs)
        assert graph_key(random_temporal_graph(np.random.default_rng(seed), **kwargs)) == \
            graph_key(g)

    def test_ordered_pairs_are_uniform(self):
        # 2,000 graphs of 3 events on 3 nodes: 1,000 expected per ordered pair u != v
        rng = np.random.default_rng(0)
        pairs = np.concatenate([random_temporal_graph(rng, 3, 3, 1.0).events[:, :2]
                                for _ in range(2000)]).astype(np.int64)
        counts = np.bincount(pairs @ [3, 1], minlength=9).reshape(3, 3)
        assert counts.trace() == 0
        off = counts[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off - 1000) <= 100), off

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
        np.random.MT19937])
    def test_every_bit_generator_draws_a_graph(self, bit_generator):
        for seed in range(10):
            g = random_temporal_graph(np.random.Generator(bit_generator(seed)))
            _assert_valid_draw(g, 10, 40, 3.0)


def membership_change(edges, pair):
    """The pair's common neighbours c in the window ``edges`` without it, and the change of
    the window's row (v, e, beta_0, beta_1) when the pair enters."""
    a, b = sorted(pair)
    without = [e for e in {tuple(sorted(e)) for e in edges} if e != (a, b)]
    near = [{y for e in without for x, y in (e, e[::-1]) if x == end} for end in (a, b)]
    rows = topo_descriptors(stack_windows(as_windows(
        [window_from_edges(without), window_from_edges(without + [(a, b)])])))
    return len(near[0] & near[1]), (rows[1] - rows[0]).tolist()


def beta1_bound(c):  # the proven bound on |d beta_1| (module docstring)
    return max(1, c - 1)


class TestMembershipChange:
    pairs = st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1])

    @given(st.lists(pairs, max_size=24), pairs)
    @example([], (0, 1))  # both ends new: dv = 2, d beta_0 = 1
    @example([(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)], (0, 1))  # a filled 3-clique: beta_2
    @settings(max_examples=300, deadline=None)
    def test_one_pair_moves_the_row_within_the_bounds(self, edges, pair):
        c, (dv, de, d0, d1) = membership_change(edges, pair)
        assert 0 <= dv <= 2 and de == 1 and abs(d0) <= 1
        assert abs(d1) <= beta1_bound(c)

    @pytest.mark.parametrize("m", [3, 6, 10])
    def test_k2m_attains_the_beta1_bound(self, m):
        # hubs 0 and 1, leaves 2..m+1: beta_1 = m - 1, and the hub edge fills every 4-cycle
        c, (dv, de, d0, d1) = membership_change(
            [(hub, leaf) for hub in (0, 1) for leaf in range(2, m + 2)], (0, 1))
        assert (c, dv, de, d0, d1) == (m, 0, 1, 0, 1 - m)
        assert abs(d1) == beta1_bound(c) > max(1, c - 2)  # a bound of c - 2 is refuted
