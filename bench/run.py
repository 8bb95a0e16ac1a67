"""Benchmark command: run one workload in a fresh child process.

    python3 bench/run.py --workload flow-torus --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; sclab is imported from src/,
nothing is installed.  The child (job.py) gets BLAS and OpenMP pinned
to one thread, writes its outputs under bench/_runs/, and is waited
for before this command exits.  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics, which are
the end-to-end metrics with --trace 0 and the per-layer metrics of a
traced run with --trace 1.  Exit status 1 means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracer import DERIVED_METRICS, SPAN_METRICS, metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flow-torus", "systole-aniso", "shell-leaves")
TIMEOUT_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(layers: dict) -> dict:
    units = {f"{span}.{field}": metric_unit(field)
             for span, field in SPAN_METRICS}
    units.update(DERIVED_METRICS)
    units["trace.overhead_s"] = "s"
    return {name: _metric(layers[name], unit) for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "sclab" / "__init__.py").is_file():
        return _fail(f"no sclab sources under {src}; run from the root "
                     "of a source checkout")

    runs = HERE / "_runs"
    run_dir = runs / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True)
    trace_file = runs / f"trace-{args.workload}-seed{args.seed}.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    env.update({name: "1" for name in THREAD_VARIABLES})
    command = [sys.executable, str(HERE / "job.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--run-dir", str(run_dir), "--trace-file", str(trace_file)]

    started = time.monotonic()
    child = subprocess.Popen(command, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        status = child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        shutil.rmtree(run_dir)
        return _fail(f"{args.workload} did not finish in {TIMEOUT_S:g} s")
    result_path = run_dir / "result.json"
    result = (json.loads(result_path.read_text())
              if status == 0 and result_path.is_file() else None)
    shutil.rmtree(run_dir)
    if result is None:
        return _fail(f"{args.workload} exited with status {status} and "
                     "no result")

    for error in result["errors"]:
        print(f"bench: check failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = _layer_metrics(result["layers"])
    else:
        metrics = {
            "setup_s": _metric(result["setup_end"] - started, "s"),
            "run_s": _metric(result["run_s"], "s"),
            "peak_rss_mib": _metric(result["peak_rss_mib"], "MiB"),
        }
    print(f"workload {args.workload} seed {args.seed} "
          f"params {json.dumps(result['params'])} rounds {result['rounds']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not result["errors"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
