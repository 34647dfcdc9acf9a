"""Run-to-run spread of the end-to-end metrics, as the gate judges it.

    python3 perfbench/spread.py --workload leader-sweep --runs 10 \
        [--first-seed 100]

Runs the benchmark ``--runs`` times on one workload, each with another
seed, and prints for every end-to-end metric its median and its
interquartile range (``statistics.quantiles(n=4)``) as a share of the
median, next to the metric's bound, plus the wall time of each run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spec import END_TO_END, WORKLOAD_NAMES, benchmark_json

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    seconds = benchmark_json()["run_seconds"]
    values = {m.name: [] for m in END_TO_END}
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True,
        )
        walls.append(time.monotonic() - start)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print("seed {}: run failed (exit {})".format(
                seed, proc.returncode))
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print("seed {}: {:.1f} s  {}".format(seed, walls[-1], " ".join(
            "{}={:.4g}".format(k, v[-1]) for k, v in values.items())))
        sys.stdout.flush()
    print("{} runs of {}, wall per run median {:.1f} s, max {:.1f} s".format(
        args.runs, args.workload, statistics.median(walls), max(walls)))
    for m in END_TO_END:
        print("  {:<20} median {:<12.6g} iqr/median {:.4f}  bound {:.2f} "
              "(a third: {:.4f})".format(m.name, *iqr(values[m.name]),
                                         m.bound, m.bound / 3))
    return 0


def iqr(values):
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / mid if mid else 0.0


if __name__ == "__main__":
    sys.exit(main())
