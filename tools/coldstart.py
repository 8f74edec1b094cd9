"""Time cold starts of the tgtopo package and CLI: a parent commit against the working tree.

    python3 tools/coldstart.py --parent <rev> --out COLD_<n>.json --pairs 30

Each case runs one command in a fresh interpreter (``PYTHONPATH=src``, from the
side's tree) and is timed from the spawn to the exit, as a user waits for it:

- ``import``: ``import tgtopo``;
- ``load_dataset``: ``import tgtopo; tgtopo.load_dataset(<dir>)`` on a dataset
  of the desk workload's shape, as perfbench's ``setup_s`` probe does;
- ``cli_help``: ``tgtopo --help``;
- ``cli_synth``: ``tgtopo synth`` of a 2-graph dataset;
- ``cli_stability``: ``tgtopo stability --mode topo --trials 30``;
- ``cli_extract``: ``tgtopo extract`` of the desk-shaped dataset, which loads the
  whole package on either side.

The parent side is the committed files of ``--parent`` (``git archive`` into a
temporary directory), the change side this checkout's working tree.  Pair i runs
every case on both sides, the parent first when i is even.  By default the runs
set ``PYTHONDONTWRITEBYTECODE=1`` and no bytecode cache, so every import compiles,
as in a fresh checkout; ``--cache-bytecode`` gives each side its own
``PYTHONPYCACHEPREFIX``, warmed by one unrecorded run of every case, as
``tools/benchpairs.py`` runs do.  The file records every time (ms) and, per case,
what ``benchpairs.compare`` records for a metric: each side's median and
interquartile range, the pair ratio, the pairs won and whether a gain is shown
(at least 9 in 10 pairs won and the medians apart by more than the parent's
interquartile range).  One stderr line per case gives the medians, the pairs won,
the pair ratio and whether a gain is shown.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchpairs import ROOT, SIDES, compare, export, git

DESK = {"num_graphs": 60, "nodes": 30, "timesteps": 24, "classes": 2, "cycle_density": [0, 3]}
TINY = {"num_graphs": 2, "nodes": 8, "timesteps": 8, "classes": 2, "cycle_density": [0, 3]}


def cases(work):
    """Each case's arguments to ``python3``, given the scratch directory ``work``."""
    cli = ["-m", "tgtopo.cli"]
    return {
        "import": ["-c", "import tgtopo"],
        "load_dataset": ["-c", f"import tgtopo; tgtopo.load_dataset({str(work / 'desk')!r})"],
        "cli_help": [*cli, "--help"],
        "cli_synth": [*cli, "synth", "--spec", str(work / "tiny.json"),
                      "--out", str(work / "out-synth"), "--seed", "1"],
        "cli_stability": [*cli, "stability", "--mode", "topo", "--trials", "30"],
        "cli_extract": [*cli, "extract", "--data", str(work / "desk"),
                        "--out", str(work / "out-extract")],
    }


def run_once(tree, args, env):
    """Seconds from spawning ``python3 args`` in ``tree`` to its exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=tree, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--cache-bytecode", action="store_true",
                        help="each side caches its bytecode in its own directory")
    args = parser.parse_args(argv)

    report = {"parent": {"rev": git("rev-parse", args.parent)},
              "change": {"rev": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
              "settings": {"pairs": args.pairs, "cache_bytecode": args.cache_bytecode},
              "cases": {}}
    with tempfile.TemporaryDirectory(prefix="coldstart-") as tmp:
        tmp = Path(tmp)
        trees, work = {"parent": tmp / "parent", "change": ROOT}, tmp / "work"
        trees["parent"].mkdir()
        work.mkdir()
        export(args.parent, trees["parent"])
        env = dict(os.environ, PYTHONPATH="src")
        envs = {side: dict(env, PYTHONDONTWRITEBYTECODE="1") for side in SIDES}
        if args.cache_bytecode:
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            envs = {side: dict(env, PYTHONPYCACHEPREFIX=str(tmp / f"pycache-{side}"))
                    for side in SIDES}
        for name, spec in (("desk", DESK), ("tiny", TINY)):
            (work / f"{name}.json").write_text(json.dumps(spec))
        subprocess.run([sys.executable, "-m", "tgtopo.cli", "synth", "--spec",
                        str(work / "desk.json"), "--out", str(work / "desk"), "--seed", "1"],
                       cwd=ROOT, env=envs["change"], check=True, stdout=subprocess.DEVNULL)
        commands = cases(work)
        if args.cache_bytecode:
            for side in SIDES:
                for command in commands.values():
                    run_once(trees[side], command, envs[side])
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append({"metrics": {name: 1e3 * run_once(trees[side], command, envs[side])
                                               for name, command in commands.items()}})
    for name in commands:
        m = report["cases"][name] = compare(name, runs, {"unit": "ms", "better": "lower"})
        m["runs"] = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        r = m["pair_ratio"]
        print(f"{name}: {m['parent']['median']:.1f} -> {m['change']['median']:.1f} ms "
              f"({m['change_wins']}/{m['pairs']}) x{r['median']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}]"
              f"; gain shown: {m['gain_shown']}", file=sys.stderr)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
