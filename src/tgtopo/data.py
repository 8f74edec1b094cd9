"""Dataset ingestion, serialization, and synthetic data generation.

On-disk format: a directory with a ``manifest.txt`` listing one graph file
per line.  Each graph file starts with ``n <num_nodes> label <class-id>``
followed by one ``u v t`` line per event.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .temporal import TemporalGraph, TemporalGraphError, from_events

MANIFEST = "manifest.txt"


class DataError(ValueError):
    pass


class ParseError(DataError):
    def __init__(self, path, line_no, message):
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line_no = line_no


class LabelOutOfRangeError(DataError):
    pass


class MissingManifestError(DataError):
    pass


class InvalidSpecError(DataError):
    pass


@dataclass(frozen=True)
class Dataset:
    name: str
    graphs: tuple  # of TemporalGraph
    num_classes: int

    def __len__(self):
        return len(self.graphs)

    @property
    def labels(self):
        return [g.label for g in self.graphs]


def write_graph(graph: TemporalGraph, path):
    with open(path, "w") as fh:
        fh.write(f"n {graph.num_nodes} label {graph.label}\n")
        for u, v, t in graph.events:
            fh.write(f"{u} {v} {t!r}\n")


def load_graph(path) -> TemporalGraph:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "n" or header[2] != "label":
        raise ParseError(path, 1, f"bad header {lines[0]!r}")
    try:
        num_nodes = int(header[1])
        label = int(header[3])
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from exc
    events = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(path, i, f"expected 'u v t', got {line!r}")
        try:
            events.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ParseError(path, i, str(exc)) from exc
    try:
        return from_events(num_nodes, events, label=label)
    except TemporalGraphError as exc:
        raise ParseError(path, None, str(exc)) from exc


def save_dataset(dataset: Dataset, directory):
    os.makedirs(directory, exist_ok=True)
    names = []
    width = len(str(len(dataset.graphs)))
    for i, g in enumerate(dataset.graphs):
        name = f"graph_{i:0{width}d}.txt"
        write_graph(g, os.path.join(directory, name))
        names.append(name)
    with open(os.path.join(directory, MANIFEST), "w") as fh:
        fh.write(f"# classes {dataset.num_classes}\n")
        fh.write("\n".join(names) + "\n")


def load_dataset(directory, name=None) -> Dataset:
    manifest = os.path.join(directory, MANIFEST)
    if not os.path.exists(manifest):
        raise MissingManifestError(f"no {MANIFEST} in {directory}")
    with open(manifest) as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    num_classes = None
    files = []
    for ln in lines:
        if ln.startswith("# classes"):
            num_classes = int(ln.split()[-1])
        elif not ln.startswith("#"):
            files.append(ln)
    graphs = tuple(load_graph(os.path.join(directory, f)) for f in files)
    if not graphs:
        raise DataError(f"manifest in {directory} lists no graphs")
    labels = {g.label for g in graphs}
    if num_classes is None:
        num_classes = max(labels) + 1
    for g in graphs:
        if g.label is None or not 0 <= g.label < num_classes:
            raise LabelOutOfRangeError(
                f"label {g.label} outside [0,{num_classes})"
            )
    return Dataset(name or os.path.basename(os.path.normpath(directory)),
                   graphs, num_classes)


def _random_tree_edges(nodes, rng):
    """Uniform random attachment tree over the given node ids."""
    order = list(nodes)
    rng.shuffle(order)
    edges = []
    for i in range(1, len(order)):
        j = int(rng.integers(0, i))
        edges.append((order[j], order[i]))
    return edges


def synth_generate(spec: dict, seed: int) -> Dataset:
    """Planted-cycle synthetic dataset.

    ``spec`` keys: num_graphs, nodes, timesteps, classes, cycle_density
    (one chord count per class), optional anchor_stride (default 4).
    Spanning trees plus ``cycle_density[label]`` extra chords are planted at
    anchor timesteps spaced ``anchor_stride`` apart, so each sliding window
    sees a small number of trees and higher-density classes carry
    systematically larger per-window beta_1 and denser spectra.  Planting a
    tree at every timestep makes windows dense enough that the clique
    complex fills the extra cycles; the anchor spacing keeps windows sparse
    so the planted signal survives.  Deterministic per seed.
    """
    required = {"num_graphs", "nodes", "timesteps", "classes", "cycle_density"}
    missing = required - spec.keys()
    if missing:
        raise InvalidSpecError(f"missing spec keys: {sorted(missing)}")
    num_graphs = int(spec["num_graphs"])
    nodes = int(spec["nodes"])
    timesteps = int(spec["timesteps"])
    classes = int(spec["classes"])
    density = [int(c) for c in spec["cycle_density"]]
    if classes < 2:
        raise InvalidSpecError("need at least 2 classes")
    if len(density) != classes:
        raise InvalidSpecError("cycle_density must list one value per class")
    if len(set(density)) != classes:
        raise InvalidSpecError("cycle_density values must be distinct across classes")
    if nodes < 3:
        raise InvalidSpecError("need at least 3 nodes")

    anchor_stride = int(spec.get("anchor_stride", 4))
    streams = np.random.SeedSequence(seed).spawn(num_graphs)
    graphs = []
    for i in range(num_graphs):
        rng = np.random.default_rng(streams[i])
        label = i % classes
        events = []
        for t in range(1, timesteps + 1, anchor_stride):
            tree = _random_tree_edges(range(nodes), rng)
            present = {(min(u, v), max(u, v)) for u, v in tree}
            events.extend((u, v, float(t)) for u, v in tree)
            chords = 0
            while chords < density[label]:
                u, v = rng.integers(0, nodes, size=2)
                u, v = int(u), int(v)
                if u == v:
                    continue
                pair = (min(u, v), max(u, v))
                if pair in present:
                    continue
                present.add(pair)
                events.append((u, v, float(t)))
                chords += 1
        graphs.append(from_events(nodes, events, label=label))
    return Dataset("synthetic", tuple(graphs), classes)
