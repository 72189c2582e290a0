#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread against its bounds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1] [--trace 0]

Runs BENCHMARK.json's command once per seed and workload, then prints for
every metric its median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, beside the
metric's bound. A spread is flagged when it exceeds a third of the bound
(setup_s is exempt: only its median is held to the bound). Raw results are
appended as JSON lines to --log when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--log")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit("run failed: %s\n%s" % (" ".join(cmd), out.stderr[-2000:]))
            result = json.loads(lines[-1])
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "result": result}) + "\n")
            flag = "" if result["correct"] else "  correct=false"
            print("%s seed %d: attempted %d failed %d%s" % (
                workload, seed, result["attempted"], result["failed"], flag), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%-16s %-36s %14s %8s %8s" % ("workload", "metric", "median", "spread", "bound"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and not spread <= bound / 3:
                mark = "  <-- above a third of the bound"
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print("%-16s %-36s %14.6g %8.4f %8s%s" % (
                workload, name, med, spread, "-" if bound is None else bound, mark),
                flush=True)
    print("largest spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()
