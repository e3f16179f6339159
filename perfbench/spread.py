#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1,2,...] [--workloads check,...]
        [--seconds S] [--trace 0|1] [--out FILE]

Run from the repository root. For every workload, runs
perfbench/run.py once per seed and prints, per metric, the median and
the interquartile range as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them), next to the metric's
bound from BENCHMARK.json. With --out, every run's JSON result is
appended to FILE, one line per run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    out = open(args.out, "a") if args.out else None
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        for seed in args.seeds.split(","):
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", seed,
                 "--seconds", str(args.seconds), "--trace", args.trace],
                capture_output=True, text=True)
            last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
            if run.returncode != 0 or not last.startswith("{"):
                print(f"{wl} seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}")
                ok = False
                continue
            result = json.loads(last)
            if out:
                out.write(json.dumps({"workload": wl, "seed": seed, "result": result}) + "\n")
                out.flush()
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {wl} ({len(args.seeds.split(','))} seeds, {args.seconds} s)")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / med if med else float("nan")
            else:
                spread = float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and not spread <= bound / 3:
                flag = "  > bound/3" if spread <= bound else "  > BOUND"
            print(f"  {name:28s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
