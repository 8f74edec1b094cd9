"""Self-test of the benchmark:  python3 perfbench/selftest.py

Runs every workload at its smallest size, untraced and traced, and checks
that each metric named in BENCHMARK.json is reported with its unit and that
no operation fails.  Then corrupts one extracted descriptor row and checks
that exactly that graph is counted as a failed operation.
"""

import json
import sys

import run  # noqa: F401  (pins BLAS threads before bench imports numpy)
import bench


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    return ok


def metrics_match(result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    return got == want and all(isinstance(m["value"], (int, float))
                               for m in result["metrics"].values())


def corrupted_row_fails():
    prog = bench.Program()
    run_ = bench.Run(prog, "desk", seed=3, seconds=1)
    run_.make_inputs()
    original = prog.pipeline.extract_descriptors

    def corrupt(dataset, config):
        feats = original(dataset, config)
        row = feats[0].phi[0]
        row[3] = row[1] - row[0] + row[2] + 1  # beta_1 above e - v + beta_0
        return feats

    prog.pipeline.extract_descriptors = corrupt
    try:
        run_.pipeline_pass()
    finally:
        prog.pipeline.extract_descriptors = original
        run_.cleanup()
    return run_.failed == 1 and run_.attempted > 1


def main():
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in sorted(bench.WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = bench.run_workload(workload, seed=1, seconds=1, trace=trace)
            ok &= expect(metrics_match(result, declared[key]),
                         f"{workload} trace={trace}: every {key} metric with its unit")
            ok &= expect(result["correct"] and result["failed"] == 0
                         and result["attempted"] > 0,
                         f"{workload} trace={trace}: {result['attempted']} operations, "
                         f"{result['failed']} failed")
    ok &= expect(corrupted_row_fails(), "a corrupted descriptor row is a failed operation")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
