"""One workload in one fresh interpreter: set up, time, check, report.

Started by run.py, never by hand.  First, with --pick-only, an untimed
worker picks the random draw of every slot (workloads.Draws) and writes
the picks to a file.  In every other worker the clock for setup_s starts
before treeamb is imported, so set-up covers the import, the generation
of the picked instances and the input files, but not the picking.  The
timed loop is a closed loop with one caller: each decision starts when the
previous one has returned, in this one thread.  Every decision of the
schedule runs twice: in a second pass over the schedule, or with --trace 1
right next to a traced copy of itself.

Prints one JSON object on its last line of standard output.
"""

import time

SETUP_START = time.perf_counter()

import argparse          # noqa: E402
import gc                # noqa: E402
import itertools         # noqa: E402
import json              # noqa: E402
import os                # noqa: E402
import resource          # noqa: E402
import statistics        # noqa: E402
import sys               # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import treeamb           # noqa: E402
from treeamb import (ambiguity, automata, cli, formats, games,  # noqa: E402
                     membership, trees)

import workloads         # noqa: E402
from tracing import Tracer  # noqa: E402

WARM_UP_S = 1.0
# The tail percentile is fixed rather than recomputed from each run's
# decision count, so that it stays at the same place in the slot ladder
# when a run holds more or fewer whole blocks (a faster program runs more).
# At this commit a run holds 52-99 decisions, 8-15 of them beyond p85, and
# p85 is the highest percentile that stays inside every workload's repeated
# top slot.
TAIL_PERCENTILE = 85

MODULES = {"formats": formats, "trees": trees, "automata": automata,
           "membership": membership, "games": games,
           "ambiguity": ambiguity, "cli": cli}


def warm_up(blocks):
    """Untimed decisions on the first block, so that timing starts with the
    allocator, file cache and processor clock in their steady state."""
    spent = 0.0
    for inst in itertools.cycle(blocks[0]):
        spent += decide(inst).latency
        if spent >= WARM_UP_S:
            return


def whole_blocks(blocks, budget, run):
    """Call run(inst, index) -> (untraced Outcome, ...) on whole blocks until
    the untraced decisions have taken budget seconds.  Returns the
    (block, slot) schedule and run's results."""
    schedule, results = [], []
    spent = 0.0
    b = 0
    while spent < budget:
        block = b % len(blocks)
        for j, inst in enumerate(blocks[block]):
            results.append(run(inst, len(schedule)))
            schedule.append((block, j))
            spent += results[-1][0].latency
        b += 1
    return schedule, results


def two_passes(blocks, budget):
    """The timed loop: whole blocks for half the budget, then the same
    schedule once more.

    A decision's latency is the lesser of its two timings.  The passes lie
    seconds apart, so a burst of load from other processes on the machine
    rarely slows both, while every decision is still timed end to end.
    """
    schedule, first = whole_blocks(blocks, budget / 2,
                                   lambda inst, i: (decide(inst),))
    second = [decide(blocks[b][j]) for b, j in schedule]
    return schedule, [out for out, in first], second


def traced_pass(blocks, budget, tracer):
    """Each decision untraced and traced, the traced copy first on every
    other decision so that neither side is always the warmer one."""
    def run(inst, i):
        if i % 2:
            traced = decide_traced(inst, tracer, i)
            return decide(inst), traced
        plain = decide(inst)
        return plain, decide_traced(inst, tracer, i)

    schedule, pairs = whole_blocks(blocks, budget, run)
    return (schedule, [plain for plain, _ in pairs],
            [traced for _, traced in pairs])


class Outcome:
    """A decision's latency and verdict; the raw result is dropped once its
    certificate has been checked, so results do not pile up in memory."""

    __slots__ = ("latency", "verdict", "error", "certified")

    def __init__(self, inst, latency, raw, error):
        self.latency = latency
        self.error = error
        self.verdict = self.certified = None
        if error is None:
            try:
                self.verdict = inst.verdict(raw)
                self.certified = (inst.certificate is None
                                  or bool(inst.certificate(raw)))
            except Exception as err:     # reading the answer failed
                self.error = f"{type(err).__name__}: {err}"


def decide(inst):
    t = time.perf_counter()
    try:
        raw = workloads.call(inst, MODULES)
        error = None
    except Exception as err:     # a raising decision is a failed one
        raw, error = None, f"{type(err).__name__}: {err}"
    return Outcome(inst, time.perf_counter() - t, raw, error)


def decide_traced(inst, tracer, decision):
    tracer.decision = decision
    tracer.install(MODULES)
    try:
        return decide(inst)
    finally:
        tracer.uninstall()


def check(blocks, schedule, *passes):
    """(decision index, reason) for every run of a decision that fails
    against its reference or its certificate check."""
    expected = {}
    failures = []
    for outcomes in passes:
        for i, (pair, out) in enumerate(zip(schedule, outcomes)):
            if out.error is not None:
                failures.append((i, out.error))
                continue
            if pair not in expected:
                expected[pair] = blocks[pair[0]][pair[1]].expected()
            if expected[pair] is None:
                failures.append((i, "no certificate backs either answer"))
            elif out.verdict != expected[pair]:
                failures.append(
                    (i, f"verdict {out.verdict!r}, reference {expected[pair]!r}"))
            elif not out.certified:
                failures.append((i, "certificate check failed"))
    return failures


def tail(latencies):
    """The TAIL_PERCENTILE latency and how many decisions lie beyond it."""
    value = statistics.quantiles(latencies, n=100,
                                 method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(1 for lat in latencies if lat > value)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--picks", required=True,
                   help="file of slot -> draw picks; written by --pick-only")
    p.add_argument("--pick-only", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if not os.path.abspath(treeamb.__file__).startswith(SRC + os.sep):
        sys.exit(f"treeamb was imported from {treeamb.__file__}, not {SRC}")

    if args.pick_only:
        _, picks = workloads.build(args.workload, args.seed, args.workdir)
        with open(args.picks, "w") as fh:
            json.dump(picks, fh)
        print(json.dumps({"picks": len(picks)}))
        return
    with open(args.picks) as fh:
        picks = json.load(fh)
    blocks, _ = workloads.build(args.workload, args.seed, args.workdir, picks)
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    # Set-up objects are the benchmark's, not a user's: keep them out of
    # the collector's way so they do not tax the timed decisions.
    gc.collect()
    gc.freeze()
    warm_up(blocks)
    if args.trace:
        tracer = Tracer()
        schedule, first, second = traced_pass(blocks, args.seconds / 2, tracer)
    else:
        schedule, first, second = two_passes(blocks, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # both runs of every decision, traced or not, meet the same reference
    failures = check(blocks, schedule, first, second)
    if args.trace:
        latencies = [out.latency for out in first]
        traced_lat = [out.latency for out in second]
        metrics = tracer.layer_report(traced_lat)
        metrics["trace.overhead"] = (statistics.median(traced_lat)
                                     / statistics.median(latencies) - 1)
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        latencies = [min(a.latency, b.latency) for a, b in zip(first, second)]
    tail_s, beyond = tail(latencies)
    if not args.trace:
        metrics = {"decisions_per_s": len(latencies) / sum(latencies),
                   "latency_p50_ms": statistics.median(latencies) * 1e3,
                   "latency_tail_ms": tail_s * 1e3,
                   "peak_rss_mb": peak_rss_mb}
    report = {"setup_s": setup_s, "decisions": len(schedule),
              "attempted": 2 * len(schedule),
              "tail_percentile": TAIL_PERCENTILE,
              "beyond_tail": beyond, "failed": len(failures),
              "failures": [f"{blocks[schedule[i][0]][schedule[i][1]].family} "
                           f"{blocks[schedule[i][0]][schedule[i][1]].key}: {why}"
                           for i, why in failures][:50],
              "metrics": metrics}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
