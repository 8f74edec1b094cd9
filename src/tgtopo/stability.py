"""Empirical stability checks for the descriptor maps.

Two perturbation regimes: shifting every event timestamp by bounded noise
(topological route, degree-0 Betti curves under sublevel filtration) and
inserting/deleting edges in a window (spectral route, Wasserstein distance
between DoS histograms).  Neither bound constant has a closed form, so
campaigns report the observed sup ratio instead of asserting a theoretical
value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InputError
from .spectral import spectral_descriptor, wasserstein1_hist
from .temporal import TemporalGraph, WindowGraph, from_events
from .topology import betti_curve, sublevel_persistence0


class StabilityError(InputError):
    pass


class InfeasibleKError(StabilityError):
    pass


@dataclass(frozen=True)
class PerturbationSpec:
    mode: str  # "timestamp" | "edge"
    magnitude: float  # eps for timestamps, k for edges
    trials: int
    seed: int

    def __post_init__(self):
        if self.mode not in ("timestamp", "edge"):
            raise StabilityError(f"unknown mode {self.mode!r}")
        if self.mode == "timestamp" and not self.magnitude > 0:
            raise StabilityError("timestamp mode needs eps > 0")
        if self.mode == "edge" and self.magnitude < 0:
            raise StabilityError("edge mode needs k >= 0")


@dataclass
class StabilityReport:
    mode: str
    trials: list = field(default_factory=list)  # (magnitude, distance)

    @property
    def empirical_constant(self) -> float:
        ratios = [d / m for m, d in self.trials if m > 0]
        return max(ratios) if ratios else 0.0

    def mean_distance(self) -> float:
        return float(np.mean([d for _, d in self.trials])) if self.trials else 0.0


def perturb_timestamps(graph: TemporalGraph, eps: float, seed: int):
    """Shift every event timestamp by uniform noise in [-eps, eps].

    Returns the perturbed graph (same structure) and the exact L1 distance
    between the two timestamp functions.
    """
    if not eps > 0:
        raise StabilityError(f"eps must be positive, got {eps}")
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(-eps, eps, size=graph.num_events)
    events = [
        (u, v, t + float(dt)) for (u, v, t), dt in zip(graph.events, shifts)
    ]
    l1 = float(np.abs(shifts).sum())
    return from_events(graph.num_nodes, events, graph.label), l1


def perturb_edges(win: WindowGraph, k: int, seed: int) -> WindowGraph:
    """Apply exactly k edge insertions/deletions (uniform mix) to a window.

    Deletions that would isolate a node are re-drawn; raises InfeasibleKError
    when k exceeds the feasible modification count.
    """
    rng = np.random.default_rng(seed)
    edges = set(win.edges)
    non_edges = sorted(p for p in combinations(win.nodes, 2) if p not in edges)
    degree = dict.fromkeys(win.nodes, 0)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    touched = set()  # a pair is modified at most once, so |symmetric diff| == k
    for step in range(k):
        deletable = sorted(
            e for e in edges
            if e not in touched and degree[e[0]] > 1 and degree[e[1]] > 1
        )
        if not non_edges and not deletable:
            raise InfeasibleKError(f"no feasible modification at step {step} of {k}")
        if not deletable:
            choice = "insert"
        elif not non_edges:
            choice = "delete"
        else:
            choice = "insert" if rng.random() < 0.5 else "delete"
        if choice == "insert":
            pick = non_edges.pop(int(rng.integers(len(non_edges))))
            edges.add(pick)
        else:
            pick = deletable[int(rng.integers(len(deletable)))]
            edges.remove(pick)
        for x in pick:
            degree[x] += 1 if choice == "insert" else -1
        touched.add(pick)
    edges = tuple(sorted(edges))
    return WindowGraph(
        window_index=win.window_index,
        t_start=win.t_start,
        delta=win.delta,
        nodes=win.nodes,
        edges=edges,
        edge_multiplicity=(1,) * len(edges),
    )


def topo_stability_trial(graph: TemporalGraph, eps: float, seed: int):
    """One timestamp-perturbation trial.

    Returns (lhs, rhs): the gap-weighted L1 distance between the two
    degree-0 Betti curves, and the L1 distance between the timestamp
    functions.  The threshold grid is the sorted union of both functions'
    values; each |difference| is weighted by the following grid gap to
    approximate the functional L1 norm.
    """
    if graph.num_events == 0:
        raise StabilityError("graph has no events")
    perturbed, l1 = perturb_timestamps(graph, eps, seed)
    pd_a = sublevel_persistence0(graph.events)
    pd_b = sublevel_persistence0(perturbed.events)
    grid = sorted(
        {t for _, _, t in graph.events} | {t for _, _, t in perturbed.events}
    )
    curve_a = betti_curve(pd_a, grid)
    curve_b = betti_curve(pd_b, grid)
    gaps = [grid[i + 1] - grid[i] for i in range(len(grid) - 1)] + [0.0]
    lhs = sum(
        abs(a - b) * w for a, b, w in zip(curve_a.values, curve_b.values, gaps)
    )
    return float(lhs), float(l1)


def spectral_stability_trial(win: WindowGraph, k: int, seed: int, bins: int = 4):
    """One edge-modification trial: returns (W1 distance, k/n)."""
    if win.num_nodes == 0:
        raise StabilityError("window is empty")
    perturbed = perturb_edges(win, k, seed)
    w1 = wasserstein1_hist(
        spectral_descriptor(win, bins), spectral_descriptor(perturbed, bins)
    )
    return float(w1), k / win.num_nodes


def random_temporal_graph(rng, n_low=10, n_high=40, events_per_node=3.0):
    """Random multigraph with uniform timestamps for topo campaigns."""
    n = int(rng.integers(n_low, n_high + 1))
    m = max(1, int(events_per_node * n))
    events = []
    while len(events) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            events.append((int(u), int(v), float(rng.uniform(0.0, 10.0))))
    return from_events(n, events)


def random_er_window(rng, n_low=20, n_high=60, p=0.2) -> WindowGraph:
    """Erdős–Rényi window with isolated vertices dropped."""
    n = int(rng.integers(n_low, n_high + 1))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    nodes = tuple(sorted({x for e in edges for x in e}))
    return WindowGraph(0, 0.0, 1.0, nodes, tuple(sorted(edges)), (1,) * len(edges))


def run_campaign(spec: PerturbationSpec, bins: int = 4) -> StabilityReport:
    """Aggregate independent trials with per-trial derived seeds."""
    if spec.trials < 30:
        raise StabilityError("campaigns need at least 30 trials")
    report = StabilityReport(mode="topo" if spec.mode == "timestamp" else "spectral")
    streams = np.random.SeedSequence(spec.seed).spawn(spec.trials)
    for i in range(spec.trials):
        rng = np.random.default_rng(streams[i])
        trial_seed = int(rng.integers(0, 2**31))
        if spec.mode == "timestamp":
            g = random_temporal_graph(rng)
            lhs, rhs = topo_stability_trial(g, spec.magnitude, trial_seed)
            report.trials.append((rhs, lhs))
        else:
            win = random_er_window(rng)
            k = int(spec.magnitude)
            w1, ratio_base = spectral_stability_trial(win, k, trial_seed, bins)
            report.trials.append((ratio_base, w1))
    return report


def campaign_csv(reports) -> str:
    """CSV rows ``trial,mode,magnitude,distance,ratio`` plus a summary row."""
    lines = ["trial,mode,magnitude,distance,ratio"]
    i = 0
    for report in reports:
        for magnitude, distance in report.trials:
            ratio = distance / magnitude if magnitude > 0 else 0.0
            lines.append(f"{i},{report.mode},{magnitude!r},{distance!r},{ratio!r}")
            i += 1
    for report in reports:
        lines.append(
            f"summary,{report.mode},sup_ratio,{report.empirical_constant!r},"
            f"{report.mean_distance()!r}"
        )
    return "\n".join(lines) + "\n"
