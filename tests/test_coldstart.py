"""tools/coldstart.py runs every case on both sides and records each time."""

import json
import shutil
from pathlib import Path

import pytest


@pytest.fixture
def coldstart(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    import coldstart

    return coldstart


def test_every_case_runs_on_both_sides(coldstart, tmp_path, monkeypatch, capsys):
    # the parent side is a copy of this tree's src/, so no git repository is needed
    monkeypatch.setattr(coldstart, "git", lambda *args: "")
    monkeypatch.setattr(coldstart, "export", lambda rev, dest: shutil.copytree(
        coldstart.ROOT / "src", Path(dest) / "src"))
    out = tmp_path / "cold.json"
    assert coldstart.main(["--parent", "HEAD", "--out", str(out), "--pairs", "1"]) == 0
    report = json.loads(out.read_text())
    assert sorted(report["cases"]) == sorted(coldstart.cases(tmp_path))
    for case in report["cases"].values():
        assert case["unit"] == "ms" and case["better"] == "lower" and case["pairs"] == 1
        assert all(len(t) == 1 and t[0] > 0 for t in case["runs"].values())
    assert len(capsys.readouterr().err.splitlines()) == len(report["cases"])
