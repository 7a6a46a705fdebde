"""Census benchmark for twistedcubic.

Run from the repository root:

    python3 perfbench/run.py --workload verify_small --seed 1 --seconds 10 --trace 0

Every workload runs in a fresh single-threaded process that imports the
package from ``src/`` of the checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload untraced and, side by side, with the span
recorder (spans.py) installed, and prints the per-layer metrics plus the
tracing overhead.  A human-readable table goes to stderr; the last stdout
line is one JSON object with the keys correct, attempted, failed and metrics.
Every operation's output is checked; see README.md for the metric and
workload definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = {
    "verify_small": {"kind": "verify", "qs": [7, 8]},
    "verify_q64": {"kind": "verify", "qs": [64]},
    "line_queries_q49": {"kind": "queries", "qs": [49]},
}

# end-to-end metric -> unit; the names and units BENCHMARK.json declares
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_SAMPLES = 3
RUN_BUDGET_S = 170  # a run must end within 180 s

# workload-specific names of the operation metrics, printed on stderr
VIEW = {
    "verify": {"op_p50_ms": ("verify_s", 1e-3, "s")},
    "queries": {"op_p50_ms": ("query_p50_ms", 1.0, "ms"),
                "op_tail_ms": ("query_tail_ms", 1.0, "ms"),
                "ops_per_s": ("queries_per_s", 1.0, "1/s")},
}


class BenchError(RuntimeError):
    pass


def _start(job):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    job = dict(job, root=ROOT, out_dir=OUT_DIR)
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def _workers(jobs, deadline):
    """Run the jobs side by side, one fresh process each; return their outputs."""
    procs = [_start(job) for job in jobs]
    try:
        outs = []
        for proc in procs:
            timeout = max(deadline - time.monotonic(), 0.001)
            try:
                stdout, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError("a benchmark process exceeded the run budget")
            if proc.returncode != 0:
                raise BenchError(f"a benchmark process exited with code {proc.returncode}")
            outs.append(json.loads(stdout.strip().splitlines()[-1]))
        return outs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_workload(name, spec, seed, seconds, trace):
    """Run one workload and return the result object run.py prints."""
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    job = {"role": "workload", "workload": name, "spec": spec, "seed": seed,
           "seconds": seconds, "traced": False}
    if trace:
        # traced and untraced side by side: both see the same machine state
        runs = _workers([job, dict(job, traced=True)], deadline)
        traced = runs[1]
    else:
        setups = [_workers([{"role": "setup", "spec": spec}], deadline)[0]["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        runs = _workers([job], deadline)
    res = runs[0]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lat = res["latencies_s"]
    tail_s, tail_pct = tail(lat)
    if trace:
        metrics = dict(traced["trace"])
        metrics["trace.overhead_ratio"] = _overhead(traced, res)
        values = {k: metrics[k] for k in spans.PER_LAYER}
        units = {k: _layer_unit(k) for k in spans.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "ops_per_s": (res["attempted"] - res["failed"]) / res["loop_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}", file=sys.stderr)
    for key, value in values.items():
        print(f"  {key:<36} {value:>14.6g} {units[key]}", file=sys.stderr)
    print(f"  operations {len(lat)}; tail is p{tail_pct:.1f} of {len(lat)}; "
          f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted})", file=sys.stderr)
    if not trace:
        print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}", file=sys.stderr)
        for key, (alias, scale, unit) in VIEW[spec["kind"]].items():
            print(f"  {alias} = {values[key] * scale:.6g} {unit}", file=sys.stderr)
    else:
        print(f"  overhead over the first {_common(traced, res)} operations of both "
              f"runs; spans in {traced['spans_path']}", file=sys.stderr)
    if "class_mix" in res:
        mix = res["class_mix"]
        total = sum(mix.values())
        print("  class mix: " + ", ".join(
            f"{cls} {n} ({100 * n / total:.1f}%)" for cls, n in mix.items()), file=sys.stderr)
    for r in runs:
        for err in r["errors"]:
            print(f"  FAILED: {err}", file=sys.stderr)

    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def _common(traced, untraced):
    return min(len(traced["latencies_s"]), len(untraced["latencies_s"]))


def _overhead(traced, untraced):
    """Traced over untraced time of the operations both runs completed.

    Both runs draw the same seeded operations in the same order, so their
    first n operations are the same work.
    """
    n = _common(traced, untraced)
    return sum(traced["latencies_s"][:n]) / sum(untraced["latencies_s"][:n])


def _layer_unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "twistedcubic", "__init__.py")):
        print(f"error: no twistedcubic sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
