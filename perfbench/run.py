"""Run one tgtopo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment and the behaviour fingerprint.
"""

import argparse
import json
import os
import sys

# One BLAS thread, set before numpy is imported, so that a 2-core machine
# measures the program rather than the thread scheduler.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import bench  # noqa: E402  (after the thread pinning above)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, info = bench.run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
