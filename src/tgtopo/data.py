"""Dataset ingestion, serialization, and synthetic data generation.

On-disk format: a directory with a ``manifest.txt`` listing one graph file
per line.  Each graph file starts with ``n <num_nodes> label <class-id>``
followed by one ``u v t`` line per event: ids as ``int`` reads them, times as
``float`` does, lines as ``str.splitlines`` cuts them, blank ones skipped.
Events are parsed into, and written losslessly from, the graph's event array.
"""

from __future__ import annotations

import io
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_int
from .temporal import EVENT, TemporalGraph, TemporalGraphError, from_events, from_records

MANIFEST = "manifest.txt"


class DataError(InputError):
    pass


class ParseError(DataError):
    def __init__(self, path, line_no, message):
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line_no = line_no


@dataclass(frozen=True)
class Dataset:
    name: str
    graphs: tuple  # of TemporalGraph
    num_classes: int

    def __len__(self):
        return len(self.graphs)


def write_graph(graph: TemporalGraph, path):
    if graph.label is None:
        raise DataError(f"{path}: an unlabeled graph cannot be written")
    with open(path, "w") as fh:
        fh.write(f"n {graph.num_nodes} label {graph.label}\n")
        for u, v, t in graph.events.tolist():
            fh.write(f"{int(u)} {int(v)} {t!r}\n")


def load_graph(path) -> TemporalGraph:
    with open(path, encoding="utf-8", errors="replace") as fh:  # a bad byte fails to parse
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
    records = _loadtxt(lines[1:])
    try:
        if records is not None:
            return from_records(num_nodes, records, label=label)
        return from_events(num_nodes, _read_lines(path, lines), label=label)
    except TemporalGraphError as exc:
        raise ParseError(path, None, str(exc)) from exc


def _loadtxt(lines):
    """The event lines as one ``EVENT`` array in one numpy call, or None where numpy
    refuses them (an empty body warns).  Joined by newlines, they split as
    ``splitlines`` cut them; numpy splits fields on the whitespace ``str.split``
    does, and what its parsers accept ``int`` and ``float`` read alike."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(io.StringIO("\n".join(lines)), EVENT, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None


def _read_lines(path, lines) -> list:
    """A graph file's events, line by line, naming the first bad line."""
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
    return events


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


def load_dataset(directory) -> Dataset:
    manifest = os.path.join(directory, MANIFEST)
    if not os.path.exists(manifest):
        raise DataError(f"no {MANIFEST} in {directory}")
    try:
        with open(manifest, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh.read().splitlines()]
        counts = [int(ln.split()[-1]) for ln in lines if ln.startswith("# classes")]
    except ValueError as exc:  # not UTF-8, or a class count that is no integer
        raise ParseError(manifest, None, str(exc)) from exc
    files = [ln for ln in lines if ln and not ln.startswith("#")]
    if any("\0" in f for f in files):
        raise ParseError(manifest, None, "a file name holds a NUL byte")
    num_classes = counts[-1] if counts else None
    graphs = tuple(load_graph(os.path.join(directory, f)) for f in files)
    if not graphs:
        raise DataError(f"manifest in {directory} lists no graphs")
    labels = {g.label for g in graphs}
    if num_classes is None:
        num_classes = max(labels) + 1
    for g in graphs:
        if g.label is None or not 0 <= g.label < num_classes:
            raise DataError(f"label {g.label} outside [0,{num_classes})")
    if num_classes < 2:
        raise DataError(f"{manifest}: need at least 2 classes, got {num_classes}")
    return Dataset(os.path.basename(os.path.normpath(directory)), graphs, num_classes)


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
    if not isinstance(spec, dict):
        raise DataError(f"spec must be a JSON object, got {type(spec).__name__}")
    required = {"num_graphs", "nodes", "timesteps", "classes", "cycle_density"}
    missing = required - spec.keys()
    if missing:
        raise DataError(f"missing spec keys: {sorted(missing)}")
    num_graphs = check_int(spec["num_graphs"], 1, "spec num_graphs", DataError)
    nodes = check_int(spec["nodes"], 3, "spec nodes", DataError)
    timesteps = check_int(spec["timesteps"], 1, "spec timesteps", DataError)
    classes = check_int(spec["classes"], 2, "spec classes", DataError)
    anchor_stride = check_int(spec.get("anchor_stride", 4), 1, "spec anchor_stride", DataError)
    if not isinstance(spec["cycle_density"], (list, tuple)):
        raise DataError("cycle_density must be a list")
    density = [check_int(c, 0, "spec cycle_density", DataError) for c in spec["cycle_density"]]
    if len(density) != classes:
        raise DataError("cycle_density must list one value per class")
    if len(set(density)) != classes:
        raise DataError("cycle_density values must be distinct across classes")
    # a spanning tree leaves this many free node pairs for chords
    free_pairs = (nodes - 1) * (nodes - 2) // 2
    if max(density) > free_pairs:
        raise DataError(f"cycle_density values must be <= {free_pairs} for {nodes} nodes")

    streams = np.random.SeedSequence(check_int(seed, 0, "seed", DataError)).spawn(num_graphs)
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
