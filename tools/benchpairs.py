"""Run alternating parent/change benchmark pairs and write a BENCH file.

    python3 tools/benchpairs.py --parent <rev> --out BENCH_<n>.json --seeds 1 2 3 4 5

The change side is this checkout's working tree.  The parent side is the
committed files of ``--parent``, extracted with ``git archive`` into a
temporary directory (under ``$TMPDIR``), so no worktree is registered in the
repository and an interrupted run leaves nothing behind in it.  For each
workload, pair i runs one seed on both sides, the parent first when i is even
and the change first when it is odd.  Every run is
``perfbench/run.py --trace 0`` in its own tree, for every workload and with the
``run_seconds`` that ``BENCHMARK.json`` declares; this script only reads the two
JSON lines a run prints and changes none of the benchmark's metrics or bounds.
Each side keeps its bytecode in its own directory, empty when the script starts
(``PYTHONPYCACHEPREFIX``), so both sides start from the same bytecode state;
the runs may write bytecode there even where ``PYTHONDONTWRITEBYTECODE`` is set.

The BENCH file records every run, each metric's median and interquartile
range per side, the median and quartiles of its per-pair change/parent ratio
(``pair_ratio``, over the pairs whose parent value is not 0), how many pairs
the change won, how far its median is from the parent's against the bound in
``BENCHMARK.json``, whether a gain is shown (the change won at least 9 in 10
pairs and its median beats the parent's by more than the parent's
interquartile range), whether the metric is unresolved (the parent's
interquartile range over its median exceeds the bound, so the pairs cannot
tell a regression of that size from noise), both sides' fingerprints and the
fingerprint keys that differ on any pair, the ``src/`` line counts, a sha256
of each side's ``src/`` files (so the file can be tied to the code it measured
even when the change was not yet committed) and the environment, including
whether ``PYTHONDONTWRITEBYTECODE`` is set and the core name of numpy's
bundled OpenBLAS (``openblas_kernel``, which ``OPENBLAS_CORETYPE`` can force;
the metrics-CSV fingerprints hold per kernel).  After writing it, the script
prints the ``src/`` line counts (``src/ lines: <parent> -> <change>
(<delta>)``) and one stderr line per workload (each metric's median parent ->
change, the pairs won and the pair ratio's median [q1, q3], the metrics
outside their bound, with a gain shown, and unresolved, and the fingerprint
keys that differ) and exits 1 if any pair's fingerprints differ or any run
failed an operation.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Write the committed files of ``rev`` into the directory ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def src_digest(tree):
    """sha256 over the relative paths and bytes of the ``src/*.py`` files in ``tree``."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(tree, workload, seed, seconds, pycache):
    """One untraced benchmark run in ``tree``; its stderr passes through.

    Bytecode is read from and written to ``pycache`` only, never to the
    ``__pycache__`` directories of ``tree``, so a working tree with compiled
    modules starts no warmer than a fresh export.  ``PYTHONDONTWRITEBYTECODE``
    is dropped, or no run could fill ``pycache`` and each fresh interpreter
    would compile numpy."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    lines = subprocess.run(cmd, cwd=tree, env=env, check=True, stdout=subprocess.PIPE,
                           text=True).stdout.splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fingerprint": info["fingerprint"],
        "environment": info["environment"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def openblas_kernel():
    """The kernel name of numpy's bundled OpenBLAS in this process, or None when it
    cannot be read; the runs inherit this process's environment, so they load the same."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def environment(run_environment):
    """A run's environment, with this machine's and this process's settings."""
    return {**run_environment, "machine": platform.machine(), "system": platform.platform(),
            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "openblas_kernel": openblas_kernel()}


def spread(values):
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(name, runs, spec):
    """Both sides of one metric; ``spec`` is its BENCHMARK.json entry, if any."""
    parent, change = ([r["metrics"][name] for r in runs[s]] for s in SIDES)
    higher = spec.get("better", "higher") == "higher"
    out = {"unit": spec.get("unit"), "better": "higher" if higher else "lower",
           "parent": spread(parent), "change": spread(change), "pairs": len(parent),
           "change_wins": sum((c > p) if higher else (c < p) for p, c in zip(parent, change))}
    if ratios := [c / p for p, c in zip(parent, change) if p]:  # each pair's own change
        out["pair_ratio"] = {k: spread(ratios)[k] for k in ("median", "q1", "q3")}
    p, c, iqr = out["parent"]["median"], out["change"]["median"], out["parent"]["iqr"]
    out["gain_shown"] = (10 * out["change_wins"] >= 9 * out["pairs"]
                         and ((c - p) if higher else (p - c)) > iqr)
    if "bound" in spec and p:
        worse = (p - c) / p if higher else (c - p) / p
        out.update(bound=spec["bound"], worse_by=worse, within_bound=worse <= spec["bound"],
                   unresolved=iqr / abs(p) > spec["bound"])
    return out


def differing_fingerprints(runs):
    """The fingerprint keys whose digests differ on at least one pair, sorted."""
    return sorted({key for p, c in zip(runs["parent"], runs["change"])
                   for key in p["fingerprint"].keys() | c["fingerprint"].keys()
                   if p["fingerprint"].get(key) != c["fingerprint"].get(key)})


def summarize(runs, specs):
    names = sorted(set.intersection(*(set(r["metrics"]) for s in SIDES for r in runs[s])))
    differ = differing_fingerprints(runs)
    return {
        "fingerprints_match": not differ,
        "fingerprints_differ": differ,
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "metrics": {n: compare(n, runs, specs.get(n, {})) for n in names},
        "runs": runs,
    }


def _ratio(m):
    r = m.get("pair_ratio")
    return f" x{r['median']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}]" if r else ""


def _names(metrics, test):
    return ", ".join(name for name, m in metrics.items() if test(m)) or "none"


def verdict(report):
    """One summary line per workload, and whether every pair's fingerprints
    matched and no run failed an operation."""
    lines, ok = [], True
    for workload, summary in report["workloads"].items():
        metrics, differ = summary["metrics"], summary.get("fingerprints_differ", [])
        moves = ", ".join(f"{name} {m['parent']['median']:.4g}->{m['change']['median']:.4g}"
                          f" ({m['change_wins']}/{m['pairs']}){_ratio(m)}"
                          for name, m in metrics.items())
        lines.append(f"{workload}: {moves}; "
                     f"outside bound: {_names(metrics, lambda m: not m.get('within_bound', True))}; "
                     f"gain shown: {_names(metrics, lambda m: m.get('gain_shown'))}; "
                     f"unresolved: {_names(metrics, lambda m: m.get('unresolved'))}; "
                     f"fingerprints match: {summary['fingerprints_match']}"
                     f"{' (differ: ' + ', '.join(differ) + ')' if differ else ''}; "
                     f"failed: {summary['failed']}")
        ok &= summary["fingerprints_match"] and not any(summary["failed"].values())
    return lines, ok


def src_lines_line(report):
    parent, change = report["parent"]["src_lines"], report["change"]["src_lines"]
    return f"src/ lines: {parent} -> {change} ({change - parent:+d})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seconds, workloads = bench["run_seconds"], [w["name"] for w in bench["workloads"]]
    report = {
        "parent": {"rev": git("rev-parse", args.parent)},
        "change": {"rev": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "settings": {"seeds": args.seeds, "seconds": seconds, "trace": 0},
        "workloads": {},
    }
    with (tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp,
          tempfile.TemporaryDirectory(prefix="benchpairs-pycache-") as pycache):
        export(args.parent, tmp)
        trees = {"parent": Path(tmp), "change": ROOT}
        caches = {side: Path(pycache, side) for side in SIDES}  # each side's own, empty
        for side in SIDES:
            report[side]["src_sha256"] = src_digest(trees[side])
        for workload in workloads:
            runs = {s: [] for s in SIDES}
            for i, seed in enumerate(args.seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    run = run_once(trees[side], workload, seed, seconds, caches[side])
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side}: failed {run['failed']}, "
                          f"descriptors {run['fingerprint']['descriptors'][:8]}",
                          file=sys.stderr)
            report["workloads"][workload] = summarize(runs, specs)
    first = {s: dict(report["workloads"][workloads[0]]["runs"][s][0]["environment"])
             for s in SIDES}
    for side in SIDES:
        report[side]["src_lines"] = first[side].pop("src_lines")
    report["environment"] = environment(first["change"])
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    lines, ok = verdict(report)
    for line in [src_lines_line(report), *lines]:
        print(line, file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
