"""One workload in its own process: set-up, timed rounds, checks.

Started by run.py with src/ on the path and BLAS/OpenMP pinned to one
thread.  Imports sclab (and with it numpy and scipy), builds the
workload's inputs, and stamps the end of set-up on the system-wide
monotonic clock, so run.py can time set-up from before the process
started.  Then it runs whole rounds until --seconds have passed.

With --trace 1, rounds alternate: even rounds run bare, odd rounds run
under the tracer, so the overhead is the difference of their medians
with drift in the machine's load spread over both.  The result goes to
result.json in the run directory; the spans of the traced rounds go to
the --trace-file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--trace-file", required=True)
    args = parser.parse_args()

    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.build()
    setup_end = time.monotonic()

    import sclab
    import tracer
    recorder = tracer.Tracer(sclab) if args.trace else None
    times = {False: [], True: []}
    layer_rounds, traced_spans, errors = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    rounds = 0
    while rounds < 1 + args.trace or time.monotonic() - start < args.seconds:
        traced = bool(args.trace) and rounds % 2 == 1
        outdir = os.path.join(args.run_dir, f"round-{rounds}")
        os.mkdir(outdir)
        if traced:
            recorder.install()
        t0 = time.perf_counter()
        failures, outputs = workload.run_round(outdir)
        elapsed = time.perf_counter() - t0
        if traced:
            recorder.uninstall()
            spans = recorder.reset()
            layer_rounds.append(tracer.layer_metrics(spans))
            traced_spans.append((rounds, spans))
        times[traced].append(elapsed)
        attempted += workload.operations
        failed += failures
        errors += [f"round {rounds}: {e}"
                   for e in workload.check(outdir, outputs)]
        shutil.rmtree(outdir)
        rounds += 1

    result = {
        "workload": workload.name, "seed": args.seed,
        "params": workload.params(), "rounds": rounds,
        "attempted": attempted, "failed": failed, "errors": errors,
        "setup_end": setup_end,
        "run_s": statistics.median(times[False]),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["layers"] = {
            name: statistics.median(r[name] for r in layer_rounds)
            for name in layer_rounds[0]}
        result["layers"]["trace.overhead_s"] = (
            statistics.median(times[True]) - result["run_s"])
        tracer.write(args.trace_file, traced_spans)
    with open(os.path.join(args.run_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
