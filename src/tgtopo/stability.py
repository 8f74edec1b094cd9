"""Stability checks for the descriptor maps.

Two perturbation regimes: shifting every event timestamp by bounded noise
(topological route, degree-0 Betti curves under sublevel filtration) and
inserting/deleting edges in a window (spectral route, Wasserstein distance
between DoS histograms).  Campaigns report the observed sup ratio; both bounds
are proven, and tight.
- Timestamp trials: lhs <= rhs, up to the rounding of t + s.  ``betti0_curve`` at
  t counts the components of the events up to t over the vertices they touch; one
  more event changes that count by at most 1.  So moving one event by s changes
  the curve by at most 1 on an interval of length |s|, and (moving the events one
  at a time) the curves' L1 distance is at most the sum of |s|.  lhs is that
  integral: both curves step only at grid points and agree past the grid.  One
  event between two nodes gives equality.
- Edge trials: W1 <= 2(B - 1)/B * k/n for B bins.  An edge added or deleted with
  no vertex isolated interlaces the normalized-Laplacian spectra (Chen et al.,
  SIAM J. Discrete Math. 2004), so each edit moves the eigenvalue counting
  function by at most 1; ``_edit_edges`` never isolates a vertex, and the 1e-9
  snapping is monotone.  Of the B CDF gaps that ``_w1`` sums times the bin width
  2/B, the last is 0 and each other at most k/n.  k = 1 reaches 1.5 at B = 4.
- One pair entering or leaving a window (no campaign runs this) moves the window's
  row (v, e, beta_0, beta_1) by |dv| <= 2, |de| = 1, |d beta_0| <= 1 and
  |d beta_1| <= max(1, c - 1), c the pair's common neighbours in the window.  Deleting
  is adding undone, so take adding uv.  Each end new to the window enters as an
  isolated vertex: dv <= 2, and beta_0 rises by 1 for each.  A simplex whose boundary
  is present raises the Betti number of its own dimension by 1 or lowers the one
  below by 1.  So the edge lowers beta_0 by 1 (ends in two components) or raises
  beta_1 by 1: beta_0 moves by +2 - 1, +1 - 1, -1 or 0.  Then the c triangles uvw
  enter, each lowering beta_1 by 1 or raising beta_2 by 1; the 2-truncated clique
  complex adds no 3-cells.  With c >= 1 the ends share a component, so the edge
  raised beta_1 and d beta_1 lies in [1 - c, 1]; with c = 0 it is 0 or 1.  K_{2,m}
  plus the edge between its hubs attains c - 1: beta_1 falls from m - 1 to 0.
Trials run on numpy arrays with the draws, in order, of the per-pair loops they
replaced, and equal the per-window chains byte for byte: an edge trial takes the
node count and the (E, 2) local pairs of an ER draw, edits the pairs, solves both
Laplacians in one stacked ``eigvalsh`` and bins both spectra at once; a timestamp
trial ranks the node ids once and reads each Betti-0 curve off the event array in
one pass (``topology.betti0_curve``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import InputError, check_int, is_real
from .temporal import TemporalGraph, TemporalGraphError, WindowGraph
from .topology import betti0_curve

_BOTH = np.array([[0], [1]])  # an edge trial's owner column: graph 0 before the edits, 1 after
SPAWN_CHUNK = 1 << 12  # trial seeds spawned at a time: about 1.5 MB at any trial count


class StabilityError(InputError):
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
        check_int(self.seed, 0, "seed", StabilityError)
        check_int(self.trials, 30, "trials", StabilityError)  # campaigns need at least 30
        if not is_real(self.magnitude):
            raise StabilityError(f"magnitude must be a real number, got {self.magnitude!r}")
        if self.mode == "timestamp":
            _check_eps(self.magnitude)
        if self.mode == "edge" and not (self.magnitude >= 0 and self.magnitude % 1 == 0):
            raise StabilityError(f"edge mode needs an integer k >= 0, got {self.magnitude}")


@dataclass
class StabilityReport:
    mode: str
    trials: list = field(default_factory=list)  # (magnitude, distance)

    @property
    def empirical_constant(self) -> float:
        ratios = [d / m for m, d in self.trials if m > 0]
        return max(ratios) if ratios else 0.0

    @property
    def bound(self) -> float:  # the proven C of distance <= C * magnitude: 2(B - 1)/B at B = 4
        return 1.0 if self.mode == "topo" else 1.5

    def over_bound(self) -> int:
        """Trials over the bound by more than 2**-40 * (1 + magnitude).  That covers the rounding
        derived in the tests, u = 2**-53: 4(B + 2)u(1 + bound) for an edge trial, and
        u(4m * rhs + 2(10m + rhs)) + m * 2**-1074 for a timestamp trial of ``run_campaign``,
        whose m <= 120 events lie in [0, 10)."""
        return sum(not d <= self.bound * m + 2**-40 * (1 + m) for m, d in self.trials)

    def mean_distance(self) -> float:
        return float(np.mean([d for _, d in self.trials])) if self.trials else 0.0


def perturb_timestamps(graph: TemporalGraph, eps: float, seed: int):
    """Shift every event timestamp by uniform noise in [-eps, eps].

    Returns the perturbed graph (same structure) and the exact L1 distance
    between the two timestamp functions.
    """
    _check_eps(eps)
    check_int(seed, 0, "seed", StabilityError)
    shifts = np.random.default_rng(seed).uniform(-eps, eps, size=graph.num_events)
    ev = graph.events.copy()
    with np.errstate(over="ignore"):
        ev[:, 2] += shifts
    shifted = TemporalGraph(graph.num_nodes, ev, graph.label)
    bad = np.flatnonzero(~np.isfinite(shifted.events[:, 2]))
    if bad.size:  # a time that overflowed
        u, v, t = shifted.events[bad[0]].tolist()
        raise TemporalGraphError(f"event ({int(u)},{int(v)}) has timestamp {t}")
    return shifted, float(np.abs(shifts).sum())


def _check_eps(eps):  # larger noise overflows the trials' L1 sums (or uniform's range) to inf
    if not is_real(eps) or not 0 < eps <= 1e300:
        raise StabilityError(f"eps must be a real number in (0, 1e300], got {eps!r}")


def _edit_edges(n, pairs, k: int, seed: int):
    """``perturb_edges``' k edits to a window on n nodes with the (E, 2) lexicographic local
    pairs a < b: its pairs after them (the kept ones in order, then the insertions).  The
    deletable edges are an ascending list, rebuilt only after an edit moves a degree across
    1 <-> 2."""
    check_int(k, 0, "k", StabilityError)
    check_int(seed, 0, "seed", StabilityError)
    rng = np.random.default_rng(seed)
    eu, ev = pairs.T  # ``live`` marks the original edges not deleted
    live = np.ones(len(eu), bool)
    absent = _upper(n).copy()
    absent[eu, ev] = False
    degree = np.bincount(pairs.ravel(), minlength=n).tolist()  # Python ints: read every edit
    # the absent pairs (a, b), a < b, as a * n + b: ascending is lexicographic
    non_edges, added, crossed = np.flatnonzero(absent).tolist(), [], True
    for step in range(k):
        if crossed:  # the first step, or an edit moved a degree across 1 <-> 2
            deg = np.array(degree)
            deletable = np.flatnonzero(live & (deg[eu] > 1) & (deg[ev] > 1)).tolist()
        if not non_edges and not deletable:
            raise StabilityError(f"no feasible modification at step {step} of {k}")
        # a coin is drawn only when both moves are possible
        insert = not deletable or (bool(non_edges) and rng.random() < 0.5)
        if insert:
            a, b = divmod(non_edges.pop(int(rng.integers(len(non_edges)))), n)
            added.append((a, b))
        else:
            pick = deletable.pop(int(rng.integers(len(deletable))))
            live[pick] = False
            a, b = eu[pick], ev[pick]
        degree[a] += 1 if insert else -1
        degree[b] += 1 if insert else -1
        crossed = (2 if insert else 1) in (degree[a], degree[b])  # rose to 2 or fell to 1
    return np.concatenate([pairs.compress(live, axis=0), np.array(added, np.int64).reshape(-1, 2)])


def perturb_edges(win: WindowGraph, k: int, seed: int) -> WindowGraph:
    """Apply exactly k edge insertions/deletions (uniform mix) to a window.

    A pair is modified at most once, so the symmetric difference has exactly
    k pairs.  Deletions are drawn only from original edges whose endpoints
    both keep another edge, so no node is isolated; raises StabilityError
    when k exceeds the feasible modification count.
    """
    n, nodes = win.num_nodes, np.array(win.nodes, dtype=np.int64)
    i, j = np.divmod(np.sort(_edit_edges(n, win.local_edges(), k, seed) @ [n, 1]), n)
    edges = tuple(zip(nodes[i].tolist(), nodes[j].tolist()))
    return WindowGraph(win.window_index, win.t_start, win.delta, win.nodes, edges,
                       (1,) * len(edges))


def topo_stability_trial(graph: TemporalGraph, eps: float, seed: int):
    """One timestamp-perturbation trial.

    Returns (lhs, rhs): the gap-weighted L1 distance between the two
    degree-0 Betti curves, and the L1 distance between the timestamp
    functions.  The threshold grid is the sorted union of both functions'
    values; each |difference| is weighted by the following grid gap to
    approximate the functional L1 norm.
    """
    perturbed, l1 = perturb_timestamps(graph, eps, seed)
    grid, gaps = _grid(graph.events[:, 2], perturbed.events[:, 2])
    ids = np.unique(graph.events[:, :2])  # both graphs have the same nodes: ranked once
    curve_a, curve_b = (betti0_curve(g.events, grid, ids) for g in (graph, perturbed))
    # summed in order, as Python floats, so the total does not depend on numpy's pairwise sum
    return sum((np.abs(curve_a - curve_b) * gaps).tolist()), l1


def _grid(a, b):
    """``np.union1d(a, b)`` and its gaps ``np.diff(grid, append=grid[-1])``, byte for byte."""
    grid = np.union1d(a, b)
    gaps = np.zeros(len(grid))  # no ``append`` copy
    np.subtract(grid[1:], grid[:-1], out=gaps[:-1])
    return grid, gaps


def spectral_stability_trial(n, pairs, k: int, seed: int, bins: int = 4):
    """One edge-modification trial on a window of n nodes with the (E, 2) lexicographic
    local pairs ``pairs``: returns (W1 distance, k/n)."""
    check_int(bins, 1, "bins", StabilityError)
    if not n:
        raise StabilityError("window is empty")
    i, j = np.concatenate([pairs, _edit_edges(n, pairs, k, seed)]).T  # graph 0 before, 1 after
    lap = spectral._laplacians(2, n, np.arange(len(i)) >= len(pairs), i, j)
    eigs = spectral.eigenvalues_sym(spectral.SymMatrix(n, lap))
    return spectral._w1(*spectral._masses(eigs, _BOTH, np.array([n, n]), bins)), k / n


def random_temporal_graph(rng, n_low=10, n_high=40, events_per_node=3.0):
    """Random multigraph with uniform timestamps for topo campaigns.

    Draws n in [n_low, n_high], then m = max(1, int(events_per_node * n)) events as three
    vectors: ``u`` uniform over [0, n), ``v = (u + offset) % n`` with the offset uniform over
    [1, n), so each pair is uniform over the ordered pairs with u != v, and ``t = 10.0 *
    rng.random(m)``; ``TemporalGraph`` stable-sorts them by t.
    """
    if not (2 <= n_low <= n_high < 2**32 and math.isfinite(events_per_node)):
        raise StabilityError(f"sizes {n_low}, {n_high}, {events_per_node}: need 2 <= n_low <= "
                             "n_high < 2**32 and a finite events_per_node")
    n = int(rng.integers(n_low, n_high + 1))
    m = max(1, int(events_per_node * n))
    u = rng.integers(0, n, m)
    v = (u + rng.integers(1, n, m)) % n
    t = 10.0 * rng.random(m)
    return TemporalGraph(n, np.column_stack([u, v, t]))  # valid as drawn: no checks


def _draw_er(rng, n_low=20, n_high=60, p=0.2):
    """An ER draw's non-isolated nodes and its (E, 2) lexicographic pairs over their ranks."""
    if not (0 <= n_low <= n_high and 0 <= p <= 1):
        raise StabilityError(f"sizes {n_low}, {n_high}, p={p}: need 0 <= n_low <= n_high "
                             "and 0 <= p <= 1")
    n = int(rng.integers(n_low, n_high + 1))
    # one draw per pair, in row-major order (the order the campaign fingerprint pins)
    pairs = _pair_table(n)[rng.random(n * (n - 1) // 2) < p].astype(np.intp)
    kept = np.bincount(pairs.ravel(), minlength=n) > 0
    return np.flatnonzero(kept), (np.cumsum(kept) - 1)[pairs]


@spectral._size_cached
def _upper(n):  # True at the pairs a < b of n nodes
    return ~np.tri(n, dtype=bool)


@spectral._size_cached
def _pair_table(n):  # (P, 2) pairs a < b, row-major; the least dtype that holds n: 2 B a pair
    return np.argwhere(_upper(n)).astype(np.min_scalar_type(n))


def run_campaign(spec: PerturbationSpec) -> StabilityReport:
    """Aggregate independent trials: trial i draws from child i of ``SeedSequence(spec.seed)``,
    spawned ``SPAWN_CHUNK`` at a time (``spawn`` goes on from the children spawned so far)."""
    report = StabilityReport(mode="topo" if spec.mode == "timestamp" else "spectral")
    root = np.random.SeedSequence(spec.seed)
    for i in range(spec.trials):
        if i % SPAWN_CHUNK == 0:
            streams = root.spawn(min(SPAWN_CHUNK, spec.trials - i))
        rng = np.random.default_rng(streams[i % SPAWN_CHUNK])
        trial_seed = int(rng.integers(0, 2**31))
        if spec.mode == "timestamp":
            g = random_temporal_graph(rng)
            lhs, rhs = topo_stability_trial(g, spec.magnitude, trial_seed)
            report.trials.append((rhs, lhs))
        else:
            nodes, pairs = _draw_er(rng)
            w1, ratio_base = spectral_stability_trial(len(nodes), pairs, int(spec.magnitude),
                                                      trial_seed)
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
