"""Repeat benchmark runs over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0|1]

Runs run.py once per workload of BENCHMARK.json and seed, one run at a
time, as the benchmark's own command does.  Prints every metric of every
run by name with its unit and whether the run's verdicts all checked out,
then per workload and metric the median and quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json.  Exits 1 if any run failed or had a failed decision, or
if any spread is over its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None, None
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    ok = True
    runs = {}
    for w in names:
        for seed in args.seeds:
            started = time.monotonic()
            info, result = one_run(w, seed, bench["run_seconds"], args.trace)
            wall = time.monotonic() - started
            if result is None:
                print(f"{w} seed={seed}: run failed")
                ok = False
                continue
            ok &= result["correct"]
            runs.setdefault(w, []).append({"seed": seed, "info": info,
                                           "result": result})
            print(f"{w} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"decisions={info['decisions']} "
                  f"tail=p{info['tail_percentile']} "
                  f"beyond={info['decisions_beyond_tail']} wall={wall:.1f}s")
            for name, m in result["metrics"].items():
                print(f"    {name:42s} {m['value']:<14.6g} {m['unit']}")
            for why in info["failures"]:
                print(f"    FAILED {why}")
            sys.stdout.flush()

    print("\nworkload          metric                                   "
          "median        Q1            Q3            spread  bound")
    for w, rs in runs.items():
        metric_names = rs[0]["result"]["metrics"]
        for name in metric_names:
            values = [r["result"]["metrics"][name]["value"] for r in rs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "OVER" if spread > bound else (
                    "ok" if spread < bound / 3 else "wide")
                ok &= spread <= bound
            print(f"{w:17s} {name:40s} {med:<13.6g} {q1:<13.6g} {q3:<13.6g} "
                  f"{spread:6.3f}  {'' if bound is None else bound} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
