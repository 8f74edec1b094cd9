import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import graph_key
from tgtopo.data import (
    DataError,
    Dataset,
    ParseError,
    load_dataset,
    load_graph,
    save_dataset,
    synth_generate,
    write_graph,
)
from tgtopo.errors import InputError
from tgtopo.temporal import TemporalGraphError, from_events, window_sequence, WindowSpec
from tgtopo import topology


SPEC = dict(num_graphs=20, nodes=30, timesteps=24, classes=2, cycle_density=[0, 3])


class TestGraphIO:
    def test_roundtrip(self, tmp_path):
        g = from_events(4, [(0, 1, 1.0), (2, 3, 2.5), (1, 2, 0.125)], label=1)
        path = tmp_path / "g.txt"
        write_graph(g, path)
        back = load_graph(path)
        assert graph_key(back) == graph_key(g)
        assert back.num_nodes == 4 and back.label == 1

    def test_roundtrip_preserves_float_bits(self, tmp_path):
        t = float(np.nextafter(1.0, 2.0))
        g = from_events(2, [(0, 1, t)], label=0)
        path = tmp_path / "g.txt"
        write_graph(g, path)
        assert load_graph(path).t_min == t

    def test_unlabeled_graph_refused_before_writing(self, tmp_path):
        # load_graph reads the label as int, so "label None" would be unreadable
        path = tmp_path / "g.txt"
        with pytest.raises(DataError, match="unlabeled"):
            write_graph(from_events(2, [(0, 1, 1.0)]), path)
        assert not path.exists()

    def test_empty_graph_refused_before_writing(self, tmp_path):
        # load_graph refuses a header-only file, so save_dataset could write a
        # dataset that load_dataset cannot read: no such graph can be built
        with pytest.raises(TemporalGraphError, match="^empty event list$"):
            from_events(3, [], label=0)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("nodes 4\n0 1 1.0\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == 1

    def test_bad_event_line_reports_location(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 4 label 0\n0 1 1.0\n0 x 2.0\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == 3
        assert str(path) in str(exc.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            load_graph(path)


    def test_parsed_graph_holds_its_event_array(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 4 label 0\n2 3 2.5\n0 1 1.0\n1 2 2.5\n")
        with mock.patch("tgtopo.data.from_events", side_effect=AssertionError):
            g = load_graph(path)  # numpy read every line
        assert g.events.tolist() == [[0, 1, 1.0], [2, 3, 2.5], [1, 2, 2.5]]


ID_TEXT = st.sampled_from(["0", "1", "2", "4", "5", "-1", "+1", "1_0", "3.0", "00", " 2",
                           "#1", "1#", str(2**63), str(2**63 - 1), str(2**53), "\u0661",
                           "\uff12", "0x1", "nan"]) | st.integers(-2, 6).map(str)
TIME_TEXT = st.sampled_from(["1.0", "2", "-0.0", "0.0", ".5", "5.", "1e5", "inf", "-inf", "nan",
                             "NaN", "1e400", "1e-400", "1_0.5", "0x10", "#", "2#x", "1d5",
                             "infinity", "\uff11"]) | st.floats().map(repr)
FIELD_SEP = st.sampled_from([" ", "  ", "\t", "\xa0", "\x1f", "\u3000", "\x00", ","])
LINE_SEP = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                            "\x85", "\u2028", "\u2029"])
HEADER = st.sampled_from(["n 5 label 1", "n 3 label 0", "n 5  label\t1 ", "nodes 5",
                          "n 5 label", "n x label 0", "n 0 label 0", "n 2 label -1"])


@st.composite
def graph_texts(draw):
    """Graph files whose event lines mix well-formed events with every line
    and field separator, number spelling and blank line the two parsers
    might read differently."""
    lines = [draw(HEADER)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["event", "event", "event", "blank", "fields"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
        elif kind == "fields":
            lines.append(draw(FIELD_SEP).join(draw(st.lists(ID_TEXT, min_size=1, max_size=4))))
        else:
            sep = draw(FIELD_SEP)
            lines.append(sep.join([draw(ID_TEXT), draw(ID_TEXT), draw(TIME_TEXT)]))
    text = lines[0]
    for line in lines[1:]:
        text += draw(LINE_SEP) + line
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


def _load(path):
    """What ``load_graph`` gives: the graph's fields and the bytes of its events,
    or the error's class and message."""
    try:
        g = load_graph(path)
    except InputError as exc:
        return type(exc), str(exc)
    return graph_key(g)


@given(graph_texts())
@example("n 5 label 1\n0 1 2.0\n\n1 2 1.0\n")
@example("n 5 label 1\r\n0 1 2.0\r\n1 2 1.0\r\n")
@example("n 5 label 1\n0 1\x0c2.0\n")  # splitlines cuts at \x0c, numpy would not
@example("n 5 label 1\n0\u20281 2.0\n")
@example("n 5 label 1\n3.0 1 2.0\n")
@example("n 5 label 1\n1_0 1 2.0\n")
@example("n 20 label 1\n1_0 1 2.0\n")
@example("n 5 label 1\n0 1 1_0.5\n")
@example(f"n 5 label 1\n{2**63} 1 2.0\n")
@example("n 5 label 1\n0 1 inf\n1 2 nan\n")
@example("n 5 label 1\n0 1 nan\n3 3 1.0\n9 1 1.0\n")
@example("n 5 label 1\n")
@example("n 5 label 1\n \n\t\n")
@example("n 5 label 1\n0 1 2.0 # note\n")
@example("nodes 5\n0 1 2.0\n")
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_numpy_parse_reads_as_the_line_loop(tmp_path_factory, text):
    # the same file, once as load_graph reads it and once with numpy's parse
    # refused, so that the line-by-line parser reads it
    path = tmp_path_factory.mktemp("graph") / "graph.txt"
    path.write_bytes(text.encode("utf-8"))
    fast = _load(path)
    with mock.patch("tgtopo.data._loadtxt", return_value=None):
        assert _load(path) == fast


class TestDatasetIO:
    def _dataset(self):
        graphs = tuple(
            from_events(3, [(0, 1, float(i + 1)), (1, 2, float(i + 2))], label=i % 2)
            for i in range(4)
        )
        return Dataset("toy", graphs, 2)

    def test_roundtrip(self, tmp_path):
        ds = self._dataset()
        save_dataset(ds, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert len(back) == 4 and back.num_classes == 2
        assert [g.label for g in back.graphs] == [0, 1, 0, 1]
        assert graph_key(back.graphs[2]) == graph_key(ds.graphs[2])

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match=f"^{re.escape(f'no manifest.txt in {tmp_path}')}$"):
            load_dataset(tmp_path)

    def test_label_out_of_range(self, tmp_path):
        ds = self._dataset()
        save_dataset(ds, tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.txt"
        text = manifest.read_text().replace("# classes 2", "# classes 1")
        manifest.write_text(text)
        with pytest.raises(DataError, match=r"^label 1 outside \[0,1\)$"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("header", ["# classes 1\n", ""])
    def test_one_class_rejected(self, tmp_path, header):
        # a one-logit classifier cannot be wrong, so one class is no task
        ds = tmp_path / "ds"
        save_dataset(Dataset("one", self._dataset().graphs[::2], 2), ds)
        manifest = ds / "manifest.txt"
        manifest.write_text(header + manifest.read_text().split("\n", 1)[1])
        with pytest.raises(DataError, match="at least 2 classes"):
            load_dataset(ds)

    def test_name_defaults_to_directory(self, tmp_path):
        save_dataset(self._dataset(), tmp_path / "mystuff")
        assert load_dataset(tmp_path / "mystuff").name == "mystuff"


class TestSynthGenerate:
    def test_deterministic(self):
        a = synth_generate(SPEC, 3)
        b = synth_generate(SPEC, 3)
        assert list(map(graph_key, a.graphs)) == list(map(graph_key, b.graphs))

    def test_seed_changes_data(self):
        a = synth_generate(SPEC, 3)
        b = synth_generate(SPEC, 4)
        assert list(map(graph_key, a.graphs)) != list(map(graph_key, b.graphs))

    def test_label_split_balanced(self):
        ds = synth_generate(SPEC, 0)
        labels = [g.label for g in ds.graphs]
        assert labels.count(0) == labels.count(1) == 10

    def test_timestamps_within_range(self):
        ds = synth_generate(SPEC, 1)
        for g in ds.graphs:
            assert g.t_min >= 1.0 and g.t_max <= 24.0

    def test_missing_keys_rejected(self):
        with pytest.raises(DataError, match=r"^missing spec keys: \['classes', 'cycle_density', "):
            synth_generate({"num_graphs": 5}, 0)

    def test_density_must_be_distinct(self):
        bad = dict(SPEC, cycle_density=[2, 2])
        with pytest.raises(DataError, match="^cycle_density values must be distinct across"):
            synth_generate(bad, 0)

    @pytest.mark.parametrize("spec, message", [
        pytest.param([1, 2], "spec must be a JSON object, got list", id="not_an_object"),
        pytest.param(dict(SPEC, nodes="abc"), "spec nodes must be an integer >= 3, got 'abc'",
                     id="string_value"),
        pytest.param(dict(SPEC, nodes=12.5), "spec nodes must be an integer >= 3, got 12.5",
                     id="float_value"),
        pytest.param(dict(SPEC, num_graphs=True),
                     "spec num_graphs must be an integer >= 1, got True", id="bool_value"),
        pytest.param(dict(SPEC, num_graphs=0), "spec num_graphs must be an integer >= 1, got 0",
                     id="no_graphs"),
        pytest.param(dict(SPEC, anchor_stride=0),
                     "spec anchor_stride must be an integer >= 1, got 0", id="zero_anchor_stride"),
        pytest.param(dict(SPEC, cycle_density="03"), "cycle_density must be a list",
                     id="density_not_list"),
        pytest.param(dict(SPEC, cycle_density=[-1, 3]),
                     "spec cycle_density must be an integer >= 0, got -1", id="negative_density"),
        pytest.param(dict(SPEC, nodes=4, cycle_density=[0, 4]),
                     "cycle_density values must be <= 3 for 4 nodes", id="more_chords_than_pairs"),
    ])
    def test_invalid_spec_rejected(self, spec, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            synth_generate(spec, 0)

    @pytest.mark.parametrize("seed, message", [
        pytest.param(-1, "seed must be an integer >= 0, got -1", id="negative"),
        pytest.param(1.5, "seed must be an integer >= 0, got 1.5", id="float"),
        pytest.param(True, "seed must be an integer >= 0, got True", id="bool"),
    ])
    def test_invalid_seed_rejected(self, seed, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            synth_generate(SPEC, seed)

    def test_betti1_separation(self):
        # planted chords must push mean per-window beta_1 of the dense class
        # at least 2 above the sparse class
        ds = synth_generate(dict(SPEC, num_graphs=40), 7)
        means = {0: [], 1: []}
        spec = WindowSpec(6.0, 4.0)
        for g in ds.graphs:
            b1 = [
                topology.betti1(topology.clique_complex(w))
                for w in window_sequence(g, spec)
            ]
            means[g.label].append(np.mean(b1))
        gap = np.mean(means[1]) - np.mean(means[0])
        assert gap >= 2.0, f"class beta_1 gap {gap}"

    def test_roundtrip_through_disk(self, tmp_path):
        ds = synth_generate(dict(SPEC, num_graphs=6), 5)
        save_dataset(ds, tmp_path / "synth")
        back = load_dataset(tmp_path / "synth")
        assert list(map(graph_key, back.graphs)) == list(map(graph_key, ds.graphs))
