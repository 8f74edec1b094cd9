"""The verdict of tools/benchpairs.py on a recorded comparison."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "benchpairs", Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)


def _report(match=True, failed=0):
    metric = {"parent": {"median": 20.0}, "change": {"median": 31.0}, "pairs": 5,
              "change_wins": 5, "within_bound": True}
    slower = {"parent": {"median": 50.0}, "change": {"median": 60.0}, "pairs": 5,
              "change_wins": 0, "within_bound": False}
    return {"workloads": {"long-stream": {
        "fingerprints_match": match, "failed": {"parent": 0, "change": failed},
        "metrics": {"extract_graphs_per_s": metric, "peak_rss_mb": slower}}}}


@pytest.mark.parametrize("match, failed, ok", [
    (True, 0, True), (False, 0, False), (True, 2, False)])
def test_verdict_fails_on_fingerprint_mismatch_or_failed_runs(match, failed, ok):
    lines, verdict = benchpairs.verdict(_report(match, failed))
    assert verdict is ok and len(lines) == 1


def test_verdict_line_names_medians_wins_and_metrics_outside_bound():
    (line,), _ = benchpairs.verdict(_report())
    assert line.startswith("long-stream: extract_graphs_per_s 20->31 (5/5)")
    assert "outside bound: peak_rss_mb;" in line
