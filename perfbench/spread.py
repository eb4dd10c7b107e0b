"""Run one workload with several seeds and report how steady each metric is.

    python3 perfbench/spread.py --workload train-sbm --seeds 1-10

Runs the benchmark command from BENCHMARK.json, untraced and for its
``run_seconds``, once per seed, one run at a time, from the current
directory (the root of a checkout).  For every end-to-end metric it prints
the median, the quartiles and the spread (quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles), next
to the metric's bound, plus each run's wall time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {wall:.1f} s wall, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
        for name, v in result["metrics"].items():
            values.setdefault(name, []).append(v["value"])

    if len(args.seeds) < 2:
        return 0
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
