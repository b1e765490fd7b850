"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; treeamb is imported from its src/
directory, never from an installed copy.  Each workload runs in fresh
interpreters (worker.py): an untimed one that picks the random draws,
then the main one, which times decisions for S seconds and checks every
verdict.  Without --trace, set-up-only interpreters run before and after
the main one, and setup_s is the median of all their set-up times.  With
--trace 1 the main worker reports per-layer metrics from traced copies of
its decisions instead of the end-to-end ones and writes its spans to
.perfbench_out/.
See README.md for the workloads and the metrics.

The last line of standard output is the result object; the line before it
records the environment, the tail percentile used and any failures.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("classify-witness", "member-large", "k-ambiguity")
# Set-up-only interpreters before and after the measuring one.  Their
# set-up times join the measuring worker's in the setup_s median.  Load
# from other processes on a shared machine comes in stretches of several
# seconds; set-ups at both ends of the run keep one slow stretch from
# setting the median.
SETUPS_BEFORE = SETUPS_AFTER = 3
AFTER_S = 30          # time kept for the set-ups after the measuring worker
DEADLINE_S = 170      # the whole run, set-ups included

UNITS = {"setup_s": "s", "decisions_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", ".overhead")):
        return "ratio"
    return "count"


def run_worker(args, workdir, extra, timeout):
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir] + extra
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "treeamb", "__init__.py")):
        print(f"no treeamb sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    trace_out = os.path.join(ROOT, ".perfbench_out", f"spans-{tag}.jsonl")
    picks = ["--picks", os.path.join(work, "picks.json")]

    def left():
        return DEADLINE_S - (time.monotonic() - started)

    def setups(first, count):
        if args.trace:
            return []
        return [run_worker(args, os.path.join(work, f"setup{i}"),
                           picks + ["--setup-only"], left())["setup_s"]
                for i in range(first, first + count)]

    try:
        run_worker(args, os.path.join(work, "pick"), picks + ["--pick-only"],
                   left())
        before = setups(0, SETUPS_BEFORE)
        extra = picks
        if args.trace:
            os.makedirs(os.path.dirname(trace_out), exist_ok=True)
            extra = picks + ["--trace-out", trace_out]
        main_run = run_worker(args, os.path.join(work, "main"), extra,
                              left() - AFTER_S)
        setup_runs = before + [main_run["setup_s"]] + setups(SETUPS_BEFORE,
                                                             SETUPS_AFTER)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(main_run["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_runs)
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "closed_loop_callers": 1,
        "decisions": main_run["decisions"],
        "tail_percentile": main_run["tail_percentile"],
        "decisions_beyond_tail": main_run["beyond_tail"],
        "setup_runs_s": setup_runs,
        "failures": main_run["failures"],
    }
    if args.trace:
        info["spans_file"] = os.path.relpath(trace_out, ROOT)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
