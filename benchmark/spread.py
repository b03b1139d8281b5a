#!/usr/bin/env python3
"""Seed-to-seed spread of every end-to-end metric, the way the driver takes it.

Runs each workload of BENCHMARK.json ten times, each with another --seed, and
prints for every end-to-end metric the distance between the first and third
quartile of its ten values as a share of their median, beside the metric's
bound. Exits non-zero if a spread (setup_s aside) exceeds its bound.

    python3 benchmark/spread.py [first_seed] [workload ...]
"""
import json
import statistics
import subprocess
import sys

RUNS = 10


def main():
    bench = json.load(open("BENCHMARK.json"))
    first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    wanted = sys.argv[2:] or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    over = []
    for workload in wanted:
        values = {name: [] for name in bounds}
        for seed in range(first, first + RUNS):
            out = subprocess.run(
                bench["command"]
                + ["--workload", workload, "--seed", str(seed)]
                + ["--seconds", str(bench["run_seconds"]), "--trace", "0"],
                check=True, capture_output=True, text=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (workload, seed)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            flag = ""
            if spread > bound and name != "setup_s":
                flag = "  OVER BOUND"
                over.append((workload, name))
            elif spread > bound / 3:
                flag = "  above a third of the bound"
            print(f"{workload:<16} {name:<14} median {median:>12.4f}  "
                  f"spread {spread:>7.2%}  bound {bound:>4.0%}{flag}", flush=True)
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
