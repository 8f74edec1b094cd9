"""Temporal graph data model and sliding-window extraction.

A temporal graph is a fixed node set plus a list of timestamped undirected
edge events; the same pair may interact repeatedly.  Sliding windows of
length ``delta`` advanced by stride ``sigma`` induce a sequence of small
subgraphs from which downstream descriptors are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class TemporalGraphError(ValueError):
    pass


class OutOfRangeNodeError(TemporalGraphError):
    pass


class SelfLoopError(TemporalGraphError):
    pass


class EmptyEventListError(TemporalGraphError):
    pass


class EmptyGraphError(TemporalGraphError):
    pass


class EmptyTimestepsError(TemporalGraphError):
    pass


@dataclass(frozen=True)
class WindowSpec:
    """Window length and stride; requires 0 < sigma < delta."""

    delta: float
    sigma: float

    def __post_init__(self):
        if not self.delta > 0:
            raise TemporalGraphError(f"delta must be > 0, got {self.delta}")
        if not (0 < self.sigma < self.delta):
            raise TemporalGraphError(
                f"sigma must lie in (0, delta), got sigma={self.sigma} delta={self.delta}"
            )


@dataclass(frozen=True)
class TemporalGraph:
    """Immutable event list sorted by timestamp.

    ``events`` is a tuple of ``(u, v, t)`` with real-valued ``t``; duplicate
    ``(u, v)`` pairs at different (or equal) times are preserved.
    """

    num_nodes: int
    events: tuple  # ((u, v, t), ...) sorted ascending by t
    label: int | None = None
    t_min: float = field(default=math.nan)
    t_max: float = field(default=math.nan)

    @property
    def num_events(self) -> int:
        return len(self.events)


def from_events(num_nodes, events, label=None, allow_empty=False) -> TemporalGraph:
    """Build a TemporalGraph, validating endpoints and sorting by time."""
    if num_nodes <= 0:
        raise TemporalGraphError(f"num_nodes must be positive, got {num_nodes}")
    checked = []
    for u, v, t in events:
        u, v, t = int(u), int(v), float(t)
        if not (0 <= u < num_nodes) or not (0 <= v < num_nodes):
            raise OutOfRangeNodeError(f"event ({u},{v},{t}) outside [0,{num_nodes})")
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}, t={t}")
        checked.append((u, v, t))
    if not checked:
        if not allow_empty:
            raise EmptyEventListError("empty event list (pass allow_empty=True to permit)")
        return TemporalGraph(num_nodes, (), label, math.nan, math.nan)
    checked.sort(key=lambda e: e[2])
    ts = [t for _, _, t in checked]
    return TemporalGraph(num_nodes, tuple(checked), label, min(ts), max(ts))


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

    @property
    def num_event_edges(self) -> int:
        return sum(self.edge_multiplicity)

    def local_index(self) -> dict:
        """Map from global node id to a dense local index."""
        return {v: i for i, v in enumerate(self.nodes)}

    def local_edges(self) -> list:
        idx = self.local_index()
        return [(idx[u], idx[v]) for u, v in self.edges]


@dataclass(frozen=True)
class StaticGraph:
    """Timestamp-free projection: deduplicated simple undirected graph."""

    num_nodes: int
    edges: tuple  # sorted (u, v), u < v
    neighbors: tuple  # per-node sorted neighbor tuples


def window(graph: TemporalGraph, t: float, delta: float, window_index=0) -> WindowGraph:
    """Extract the subgraph of events with timestamp in the closed [t, t+delta]."""
    if not delta > 0:
        raise TemporalGraphError(f"delta must be > 0, got {delta}")
    hi = t + delta
    mult = {}
    for u, v, te in graph.events:
        if t <= te <= hi:
            pair = (u, v) if u < v else (v, u)
            mult[pair] = mult.get(pair, 0) + 1
    edges = tuple(sorted(mult))
    nodes = tuple(sorted({x for pair in edges for x in pair}))
    return WindowGraph(
        window_index=window_index,
        t_start=t,
        delta=delta,
        nodes=nodes,
        edges=edges,
        edge_multiplicity=tuple(mult[e] for e in edges),
    )


def window_count(graph: TemporalGraph, spec: WindowSpec) -> int:
    """Number of sliding windows: ceil((t_max - t_min - delta)/sigma) + 1, min 1."""
    if graph.num_events == 0:
        raise EmptyGraphError("window_count requires a nonempty graph")
    span = graph.t_max - graph.t_min
    if span <= spec.delta:
        return 1
    return int(math.ceil((span - spec.delta) / spec.sigma)) + 1


def window_sequence(graph: TemporalGraph, spec: WindowSpec) -> list:
    """Windows anchored at t_min: window i covers [t_min + i*sigma, ... + delta]."""
    n = window_count(graph, spec)
    return [
        window(graph, graph.t_min + i * spec.sigma, spec.delta, window_index=i)
        for i in range(n)
    ]


def temporal_degree(graph: TemporalGraph, timesteps, binary=False) -> np.ndarray:
    """Per-node activity matrix over a timestep grid.

    Entry (v, j) counts events incident to node v whose timestamp equals
    ``timesteps[j]`` exactly; with ``binary=True`` entries are clipped to
    {0, 1} (active / inactive).
    """
    timesteps = list(timesteps)
    if not timesteps:
        raise EmptyTimestepsError("timesteps grid is empty")
    col = {float(t): j for j, t in enumerate(timesteps)}
    out = np.zeros((graph.num_nodes, len(timesteps)), dtype=np.float64)
    for u, v, t in graph.events:
        j = col.get(t)
        if j is None:
            continue
        out[u, j] += 1.0
        out[v, j] += 1.0
    if binary:
        out = (out > 0).astype(np.float64)
    return out


def static_projection(graph: TemporalGraph) -> StaticGraph:
    """Union of all event pairs with timestamps discarded."""
    pairs = sorted({(u, v) if u < v else (v, u) for u, v, _ in graph.events})
    nbrs = [[] for _ in range(graph.num_nodes)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return StaticGraph(
        num_nodes=graph.num_nodes,
        edges=tuple(pairs),
        neighbors=tuple(tuple(sorted(ns)) for ns in nbrs),
    )
