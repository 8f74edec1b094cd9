"""Temporal graph data model and sliding-window extraction.

A temporal graph is a fixed node set plus a list of timestamped undirected
edge events; the same pair may interact repeatedly.  A graph holds its events
once, as a read-only, time-sorted (E, 3) float64 array.  Sliding windows of
length ``delta`` advanced by stride ``sigma`` induce a sequence of small
subgraphs from which downstream descriptors are computed.  A graph's windows
are cut from its events into arrays (a ``Windows`` sequence), and
``stack_windows`` groups them by node count for descriptors computed on stacks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import InputError, is_int, is_real


class TemporalGraphError(InputError):
    pass


@dataclass(frozen=True)
class WindowSpec:
    """Window length and stride, reals with 0 < sigma < delta < inf.  Window i is the closed
    [t_min + i*sigma, t_min + i*sigma + delta], up to the first to reach t_max, decided
    exactly on the float inputs: in floats where every edge is one, else in Fractions."""

    delta: float
    sigma: float

    def __post_init__(self):
        if not is_real(self.delta) or not 0 < self.delta < np.inf:
            raise TemporalGraphError(f"delta must be finite and > 0, got {self.delta!r}")
        if not is_real(self.sigma) or not 0 < self.sigma < self.delta:
            raise TemporalGraphError(
                f"sigma must lie in (0, delta), got sigma={self.sigma!r} delta={self.delta!r}"
            )


@dataclass(frozen=True, eq=False)  # == on an array field would raise
class TemporalGraph:
    """Immutable events, at least one, sorted by timestamp; every builder comes through here.

    ``events`` is a read-only (E, 3) float64 array of rows ``(u, v, t)``, E >= 1,
    stable-sorted here by ``t``; node ids below 2**53 are exact, repeated pairs
    are kept.  It is a copy held over immutable ``bytes``, so no view can be
    made writeable.  The rows are not validated: ``from_events`` does that.
    """

    num_nodes: int
    events: np.ndarray
    label: int | None = None

    def __post_init__(self):
        ev = np.asarray(self.events, np.float64)
        if not len(ev):
            raise TemporalGraphError("empty event list")
        ev = ev[np.argsort(ev[:, 2], kind="stable")]
        object.__setattr__(self, "events", np.ndarray(ev.shape, np.float64, ev.tobytes()))

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def t_min(self) -> float:
        return float(self.events[0, 2])

    @property
    def t_max(self) -> float:
        return float(self.events[-1, 2])


STACK_LIMIT = 1 << 17  # matrix entries per group of stacked windows: 1 MB of float64
WINDOW_LIMIT = 1 << 20  # windows per graph
ENTRY_LIMIT = 1 << 26  # entries of a graph's n x n or n x T feature matrix: 512 MB of float64
DENSE = 8  # ``_unique`` counts over key spaces up to this many times the keys
EVENT = np.dtype([("u", np.int64), ("v", np.int64), ("t", np.float64)])  # one event record


def _array(events) -> np.ndarray:
    """(E, 3) float64 array of (int, int, float) triples."""
    try:
        return np.fromiter(chain.from_iterable(events), np.float64, 3 * len(events)).reshape(-1, 3)
    except OverflowError:  # an id beyond float64 is out of range, as -1 or 2**53 is
        return np.array([(min(max(u, -1), 2**53), min(max(v, -1), 2**53), t)
                         for u, v, t in events])


def _check_events(num_nodes, ev, events):
    """Raise for the first of ``events`` (as ``ev``, their float64 array, holds
    them) with a node outside [0, num_nodes), a self-loop or a non-finite time."""
    # windows read node ids through float64, which is exact only up to 2**53
    if not is_int(num_nodes) or not 0 < num_nodes <= 2**53:
        raise TemporalGraphError(f"num_nodes must be an integer in [1, 2**53], got {num_nodes}")
    u, v, t = ev.T
    out = (np.minimum(u, v) < 0) | (np.maximum(u, v) >= num_nodes)
    bad = np.flatnonzero(out | (u == v) | ~np.isfinite(t))
    if bad.size:
        u, v, t = events[bad[0]]
        if out[bad[0]]:
            raise TemporalGraphError(f"event ({u},{v},{float(t)}) outside [0,{num_nodes})")
        if u == v:
            raise TemporalGraphError(f"self-loop at node {u}, t={float(t)}")
        raise TemporalGraphError(f"event ({u},{v}) has timestamp {float(t)}")


def from_events(num_nodes, events, label=None) -> TemporalGraph:
    """Build a TemporalGraph, validating integer endpoints and times, then nonemptiness."""
    events, checked = list(events), []
    for u, v, t in events:
        try:
            iu, iv, t = int(u), int(v), float(t)
            if (type(u) is not int or type(v) is not int) and (  # a plain int needs no test
                    (iu, iv) != (u, v) or any(isinstance(x, (bool, np.bool_)) for x in (u, v))):
                raise ValueError("node ids must be integers")
        except (OverflowError, TypeError, ValueError) as exc:
            _check_events(num_nodes, _array(checked), events)  # the first bad event first
            raise TemporalGraphError(f"event ({u},{v},{t}): {exc}") from exc
        checked.append((iu, iv, t))
    ev = _array(checked)
    _check_events(num_nodes, ev, events)
    return TemporalGraph(num_nodes, ev, label)


def from_records(num_nodes, records, label=None) -> TemporalGraph:
    """``from_events`` for an ``EVENT`` array."""
    ev = np.column_stack((records["u"], records["v"], records["t"]))
    _check_events(num_nodes, ev, records)
    return TemporalGraph(num_nodes, ev, label)


@dataclass(frozen=True)
class WindowGraph:
    """Subgraph induced by events with timestamps in [t_start, t_start+delta].

    Nodes are the edge endpoints only (global ids, sorted); ``edges`` holds
    each unordered pair once with its event multiplicity.
    """

    window_index: int
    t_start: float
    delta: float
    nodes: tuple  # sorted global node ids
    edges: tuple  # sorted (u, v) pairs, u < v, global ids
    edge_multiplicity: tuple  # aligned with edges, counts >= 1

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def local_edges(self) -> np.ndarray:
        """(E, 2) endpoints of ``edges`` as indices into ``nodes``."""
        ends = np.fromiter(chain.from_iterable(self.edges), np.int64, 2 * len(self.edges))
        return np.searchsorted(self.nodes, ends).reshape(-1, 2)


@dataclass(frozen=True)
class StaticGraph:
    """Timestamp-free projection: deduplicated simple undirected graph."""

    num_nodes: int
    edges: tuple  # sorted (u, v), u < v


class Windows(Sequence):
    """A graph's windows as the arrays ``stack_windows`` reads: ``counts``,
    every window's sorted global ``nodes`` in turn, and per pair (in window, then
    lexicographic order) its window ``owner``, ``local`` endpoint indices and
    event count ``mult``.  Only indexing or iterating builds ``WindowGraph``s."""

    def __init__(self, starts, delta, counts, nodes, owner, local, mult):
        self.starts, self.delta, self.counts, self.nodes = starts, delta, counts, nodes
        self.owner, self.local, self.mult = owner, local, mult

    first = cached_property(lambda self: np.vstack([[0, 0], np.cumsum(self.counts[:, :2], 0)]))

    def __len__(self):
        return len(self.counts)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        i = range(len(self))[k]  # negative indices, IndexError
        (a, c), (b, d) = self.first[i:i + 2].tolist()
        u, v = self.nodes[a + self.local[c:d]].T.tolist()
        return WindowGraph(i, float(self.starts[i]), self.delta, tuple(self.nodes[a:b].tolist()),
                           tuple(zip(u, v)), tuple(self.mult[c:d].tolist()))


def _unique(keys, size):
    """``np.unique(keys, return_inverse=True, return_counts=True)`` for int64 ``keys`` in
    [0, size): a ``bincount`` if ``size`` is at most ``DENSE`` x ``keys.size``, else a sort."""
    if size > DENSE * keys.size:
        values, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        return values, inverse.reshape(keys.shape), counts  # numpy < 2 returns it flat
    counts = np.bincount(keys.ravel(), minlength=size)
    values = counts.nonzero()[0]
    rank = np.empty(size, np.intp)  # read only at the keys, each one of ``values``
    rank[values] = np.arange(values.size)
    return values, rank[keys], counts[values]


def _windows(graph: TemporalGraph, starts, delta, exact=None) -> Windows:
    """Windows [t, t + delta] for the ascending float64 array ``starts``, or for the
    Fractions ``exact`` that it rounds, edges decided exactly.  One ``_unique`` over
    (window, pair) keys of all windows gives their pairs and multiplicities, one over
    (window, node) keys their nodes.  Node ids and pairs are ranked first, so no key
    exceeds events**2 or windows x pairs.  Dense key spaces (all four on synthetic
    data) are counted, sparse node ids sorted."""
    ev, times = graph.events, graph.events[:, 2]
    ids, (u, v), _ = _unique(ev[:, :2].T.astype(np.int64), graph.num_nodes)
    pairs, pair, _ = _unique(np.minimum(u, v) * len(ids) + np.maximum(u, v), len(ids) ** 2)
    if exact is None:
        lo, ends = np.searchsorted(times, starts, "left"), starts + delta
        hi, part = np.searchsorted(times, ends, "right"), ends - starts
        # a negative two-sum residual: the float end is above the exact one
        if (below := (starts - (ends - part)) + (delta - part) < 0).any():
            hi[below] = np.searchsorted(times, ends[below], "left")
    else:
        from fractions import Fraction  # only here: the float path never loads it
        points, end = times.tolist(), Fraction(delta)
        lo = np.array([bisect_left(points, s) for s in exact], np.intp)
        hi = np.array([bisect_right(points, s + end) for s in exact], np.intp)
    size = hi - lo
    at = np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)
    keys, _, mult = _unique(np.repeat(np.arange(len(starts)) * len(pairs), size) + pair[at],
                            len(starts) * len(pairs))
    owner, ends = np.divmod(keys, len(pairs))
    nodes, local, _ = _unique(owner * len(ids) + np.divmod(pairs[ends], len(ids)),
                              len(starts) * len(ids))  # (2, pairs): every u key, then every v key
    sizes = np.bincount(nodes // len(ids), minlength=len(starts))
    local = (local - (np.cumsum(sizes) - sizes)[owner]).T
    counts = np.stack([sizes, np.bincount(owner, minlength=len(starts)), size], axis=1)
    return Windows(starts, delta, counts, ids[nodes % len(ids)], owner, local, mult)


def _scaled(*values) -> list:
    """The float ``values`` times the least power of two that makes all of them whole."""
    ratios = [float(x).as_integer_ratio() for x in values]
    scale = max(q for _, q in ratios)
    return [n * (scale // q) for n, q in ratios]


def window_count(graph: TemporalGraph, spec: WindowSpec) -> int:
    """Number of sliding windows: ceil((t_max - t_min - delta)/sigma) + 1, min 1, exactly;
    a count above ``WINDOW_LIMIT`` raises before anything is allocated."""
    t1, t0, delta, sigma = _scaled(graph.t_max, graph.t_min, spec.delta, spec.sigma)
    if (count := 1 + max(0, -((t0 + delta - t1) // sigma))) > WINDOW_LIMIT:
        raise TemporalGraphError(f"delta={spec.delta}, sigma={spec.sigma} cut over "
                                 f"{WINDOW_LIMIT} windows")
    return count


def window_sequence(graph: TemporalGraph, spec: WindowSpec) -> Windows:
    """Windows anchored at t_min: window i covers [t_min + i*sigma, ... + delta]."""
    count, (t0, sigma) = window_count(graph, spec), _scaled(graph.t_min, spec.sigma)
    if (count - 1) * (abs(t0) + sigma) < 2**53:  # every start is a float
        return _windows(graph, graph.t_min + np.arange(count) * spec.sigma, spec.delta)
    from fractions import Fraction
    exact = [Fraction(graph.t_min) + i * Fraction(spec.sigma) for i in range(count)]
    return _windows(graph, np.array([float(s) for s in exact]), spec.delta, exact)


def stack_windows(windows: Windows) -> tuple:
    """A ``Windows``' arrays grouped for stacked per-window work.

    Returns ``(counts, groups)``: a (W, 3) int array of each window's node,
    pair and event counts, and per run of at most ``STACK_LIMIT // n**2``
    windows with the same node count n >= 1, a group ``(n, ids, owner, i, j)``
    of their indices and of all their pairs in window then lexicographic order,
    as the position of the pair's window in ``ids`` and local indices i < j.
    """
    counts, owner, local = windows.counts, windows.owner, windows.local
    sizes = counts[:, 0]
    size_of, groups = sizes[owner], []
    for n in (np.bincount(sizes)[1:].nonzero()[0] + 1).tolist():
        ids = np.flatnonzero(sizes == n)
        run = max(1, STACK_LIMIT // n**2)
        for part in (ids[s:s + run] for s in range(0, len(ids), run)):
            e = np.flatnonzero((size_of == n) & (owner >= part[0]) & (owner <= part[-1]))
            groups.append((n, part, np.searchsorted(part, owner[e]), local[e, 0], local[e, 1]))
    return counts, groups


def temporal_degree(graph: TemporalGraph, timesteps, binary=False) -> np.ndarray:
    """Per-node activity matrix over a timestep grid.

    Entry (v, j) counts events incident to node v whose timestamp equals
    ``timesteps[j]`` exactly; with ``binary=True`` entries are clipped to
    {0, 1} (active / inactive).
    """
    steps = np.array(list(timesteps), dtype=np.float64)
    if not steps.size:
        raise TemporalGraphError("timesteps grid is empty")
    order = np.argsort(steps, kind="stable")
    ev = graph.events
    # an event's column is the last timestep equal to its time, if any
    grid = steps[order]
    pos = np.searchsorted(grid, ev[:, 2], "right") - 1
    hit = (pos >= 0) & (grid[pos] == ev[:, 2])
    cells = ev[hit, :2].astype(np.int64) * len(steps) + order[pos[hit], None]
    out = np.bincount(cells.ravel(), minlength=graph.num_nodes * len(steps))
    return (out > 0 if binary else out).astype(np.float64).reshape(graph.num_nodes, -1)


def static_projection(graph: TemporalGraph) -> StaticGraph:
    """Union of all event pairs with timestamps discarded."""
    ends = np.unique(np.sort(graph.events[:, :2], axis=1), axis=0).astype(np.int64).tolist()
    return StaticGraph(graph.num_nodes, tuple(map(tuple, ends)))
