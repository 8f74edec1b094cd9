"""The verdict of tools/benchpairs.py on a recorded comparison."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "benchpairs", Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)


def _report(match=True, failed=0, within_bound=True):
    metric = {"parent": {"median": 20.0}, "change": {"median": 31.0}, "pairs": 5,
              "change_wins": 5, "within_bound": True}
    slower = {"parent": {"median": 50.0}, "change": {"median": 60.0}, "pairs": 5,
              "change_wins": 0, "within_bound": within_bound}
    return {"workloads": {"long-stream": {
        "fingerprints_match": match, "failed": {"parent": 0, "change": failed},
        "metrics": {"extract_graphs_per_s": metric, "peak_rss_mb": slower}}}}


@pytest.mark.parametrize("match, failed, within_bound, ok", [
    (True, 0, True, True), (False, 0, True, False), (True, 2, True, False),
    (True, 0, False, False)])
def test_verdict_fails_on_fingerprint_mismatch_or_failed_runs(match, failed, within_bound, ok):
    lines, verdict = benchpairs.verdict(_report(match, failed, within_bound))
    assert verdict is ok and len(lines) == 1


def test_verdict_line_names_medians_wins_and_metrics_outside_bound():
    (line,), _ = benchpairs.verdict(_report(within_bound=False))
    assert line.startswith("long-stream: extract_graphs_per_s 20->31 (5/5)")
    assert "outside bound: peak_rss_mb;" in line


def _fingerprint_runs(*pairs):
    return {side: [{"fingerprint": pair[i], "failed": 0, "metrics": {}} for pair in pairs]
            for i, side in enumerate(("parent", "change"))}


def test_summary_and_verdict_name_the_fingerprint_keys_that_differ():
    same = {"descriptors": "a", "metrics_csv": "b", "campaign_csv": "c"}
    runs = _fingerprint_runs((same, same), (same, {**same, "metrics_csv": "x"}),
                             (same, same), (same, {**same, "campaign_csv": "y"}))
    summary = benchpairs.summarize(runs, {})
    assert summary["fingerprints_match"] is False
    assert summary["fingerprints_differ"] == ["campaign_csv", "metrics_csv"]
    (line,), ok = benchpairs.verdict({"workloads": {"desk": summary}})
    assert "fingerprints match: False (differ: campaign_csv, metrics_csv);" in line
    assert not ok
    summary = benchpairs.summarize(_fingerprint_runs((same, dict(same))), {})
    assert summary["fingerprints_match"] and summary["fingerprints_differ"] == []
    (line,), ok = benchpairs.verdict({"workloads": {"desk": summary}})
    assert "fingerprints match: True;" in line and ok


def _runs(parent, change):
    return {side: [{"metrics": {"rate": v}} for v in values]
            for side, values in (("parent", parent), ("change", change))}


@pytest.mark.parametrize("better, parent, change, shown", [
    # 10/10 wins, and the median gap of 6 exceeds the parent's IQR of 2
    ("higher", [10, 11, 12, 13, 14, 10, 11, 12, 13, 14],
     [16, 17, 18, 19, 20, 16, 17, 18, 19, 20], True),
    # 10/10 wins by a gap of 1, inside the IQR
    ("higher", [10, 11, 12, 13, 14, 10, 11, 12, 13, 14],
     [11, 12, 13, 14, 15, 11, 12, 13, 14, 15], False),
    # a wide gap, but only 8/10 wins
    ("higher", [10, 11, 12, 13, 14, 10, 11, 12, 13, 14],
     [16, 17, 18, 19, 20, 16, 17, 18, 5, 5], False),
    # lower is better: 9/10 wins and the gap beats the IQR
    ("lower", [10, 11, 12, 13, 14, 10, 11, 12, 13, 14],
     [4, 5, 6, 7, 8, 4, 5, 6, 7, 20], True),
    # a clear loss is never a gain shown
    ("higher", [16, 17, 18, 19, 20, 16, 17, 18, 19, 20],
     [10, 11, 12, 13, 14, 10, 11, 12, 13, 14], False),
])
def test_gain_shown_needs_nine_in_ten_wins_and_a_gap_beyond_the_parent_iqr(
        better, parent, change, shown):
    m = benchpairs.compare("rate", _runs(parent, change), {"better": better})
    assert m["gain_shown"] is shown


def test_pair_ratios_are_recorded_and_printed():
    # each pair's change/parent: pairs 12/10, 11/10, 10/10, 9/10, then a zero
    # parent, which has no ratio; pairs 0 and 2 ran the parent first, 1 and 3 the change
    m = benchpairs.compare("rate", _runs([10, 10, 10, 10, 0], [12, 11, 10, 9, 3]),
                           {"better": "higher"})
    assert m["pair_ratio"] == pytest.approx({"median": 1.05, "q1": 0.975, "q3": 1.125})
    assert m["pair_ratio_by_order"] == pytest.approx({"parent_first": 1.1, "change_first": 1.0})
    report = _report()
    metric = report["workloads"]["long-stream"]["metrics"]["extract_graphs_per_s"]
    metric["pair_ratio"] = m["pair_ratio"]
    (line,), _ = benchpairs.verdict(report)
    assert line.startswith("long-stream: extract_graphs_per_s 20->31 (5/5) x1.050 "
                           "[0.975, 1.125], peak_rss_mb 50->60 (0/5);")
    metric["pair_ratio_by_order"] = m["pair_ratio_by_order"]
    (line,), _ = benchpairs.verdict(report)
    assert line.startswith("long-stream: extract_graphs_per_s 20->31 (5/5) x1.050 "
                           "[0.975, 1.125] (parent first x1.100, change first x1.000), "
                           "peak_rss_mb 50->60 (0/5);")
    # one pair ran only parent first
    one = benchpairs.compare("rate", _runs([10], [12]), {})
    assert one["pair_ratio_by_order"] == pytest.approx({"parent_first": 1.2})
    zero = benchpairs.compare("rate", _runs([0, 0], [1, 2]), {})
    assert not {"pair_ratio", "pair_ratio_by_order"} & set(zero)


def test_verdict_fails_when_src_changed_while_the_runs_went_on():
    # a change side whose src/ was edited mid-run measured two programs
    report = {**_report(), "change": {"src_sha256": "a" * 64}}
    lines, ok = benchpairs.verdict(report)
    assert ok and len(lines) == 1
    report["change"]["src_sha256_after"] = "b" * 64
    lines, ok = benchpairs.verdict(report)
    assert not ok and len(lines) == 2
    assert lines[0] == ("change src/ changed while the runs went on: sha256 "
                        "aaaaaaaaaaaa -> bbbbbbbbbbbb")


@pytest.mark.parametrize("parent, unresolved", [
    ([400, 450, 500, 550, 600, 630, 407, 520, 480, 560], True),  # IQR/median 0.20 > 0.1
    ([500, 505, 510, 495, 490, 500, 502, 498, 507, 493], False),
])
def test_unresolved_when_parent_iqr_over_median_exceeds_bound(parent, unresolved):
    m = benchpairs.compare("rate", _runs(parent, parent), {"better": "higher", "bound": 0.1})
    assert m["unresolved"] is unresolved and m["within_bound"]


def test_verdict_line_names_gains_shown_and_unresolved_metrics():
    report = _report()
    metrics = report["workloads"]["long-stream"]["metrics"]
    metrics["extract_graphs_per_s"]["gain_shown"] = True
    metrics["peak_rss_mb"]["unresolved"] = True
    (line,), ok = benchpairs.verdict(report)
    assert "gain shown: extract_graphs_per_s;" in line
    assert "unresolved: peak_rss_mb;" in line
    assert ok
    (line,), _ = benchpairs.verdict(_report())
    assert "gain shown: none; unresolved: none;" in line


@pytest.mark.parametrize("parent, change, line", [
    (2754, 2665, "src/ lines: 2754 -> 2665 (-89)"),
    (2714, 2754, "src/ lines: 2714 -> 2754 (+40)"),
    (2754, 2754, "src/ lines: 2754 -> 2754 (+0)")])
def test_src_lines_line_reports_the_delta(parent, change, line):
    report = {"parent": {"src_lines": parent}, "change": {"src_lines": change}}
    assert benchpairs.src_lines_line(report) == line


def test_run_once_keeps_bytecode_in_the_given_directory(tmp_path, monkeypatch):
    # a working tree with compiled modules must not start warmer than a fresh export
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(kwargs)
        info = {"fingerprint": {"descriptors": "d"}, "environment": {"src_lines": 1}}
        result = {"correct": 1, "attempted": 1, "failed": 0, "metrics": {"m": {"value": 2.0}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{json.dumps(info)}\n"
                                                          f"{json.dumps(result)}\n")

    monkeypatch.setattr(benchpairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/elsewhere")
    # a run that may not write bytecode would compile numpy in every fresh interpreter
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    run = benchpairs.run_once(tmp_path / "tree", "desk", 3, 40, tmp_path / "pycache-change")
    (kwargs,) = calls
    assert kwargs["cwd"] == tmp_path / "tree"
    assert kwargs["env"]["PYTHONPYCACHEPREFIX"] == str(tmp_path / "pycache-change")
    assert "PYTHONDONTWRITEBYTECODE" not in kwargs["env"]
    dropped = ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")
    assert {k: v for k, v in kwargs["env"].items() if k not in dropped} == {
        k: v for k, v in os.environ.items() if k not in dropped}
    assert run["seed"] == 3 and run["metrics"] == {"m": 2.0}


def test_environment_records_the_openblas_kernel():
    # the metrics-CSV fingerprints hold per OpenBLAS kernel, so a BENCH file names it
    from test_pipeline import openblas_kernel

    env = benchpairs.environment({"src_lines": 1, "numpy": "x"})
    assert env["openblas_kernel"] == openblas_kernel()
    # extraction overlaps two kernels on two threads, so a BENCH file says how many
    # CPUs the runs could use (their affinity, which os.cpu_count() ignores)
    assert env["cpus_usable"] == len(os.sched_getaffinity(0)) >= 1
    assert {"src_lines", "numpy", "machine", "system", "dont_write_bytecode"} <= set(env)
