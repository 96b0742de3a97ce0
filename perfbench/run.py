"""The hgdl benchmark: four pipeline workloads, end-to-end timings and a
traced per-layer breakdown.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds T] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's src/. Every measurement happens in a fresh
child process (worker.py), one at a time, so peak RSS and set-up time are
the workload's own and no load runs beside it. With --trace 0 the run is
split over several processes, because one process's timings sit at a
level of their own (its memory layout); the result holds the end-to-end
metrics. With --trace 1 one process gives the per-layer metrics. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with the environment and
every call, goes to perfbench/out/. README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("fit-inductive", "fit-transductive", "fit-beta0",
             "laplacian-export")
END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "accuracy": "fraction", "setup_s": "s"}
# An untraced run is split over this many fresh processes.
PROCESSES = 3
# One workload must finish within this many seconds, children included.
BUDGET_S = 170.0


class BenchError(Exception):
    """A child process failed to produce a result."""


def _child(workload, seed, workdir, deadline, *extra):
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", ROOT, "--workload", workload, "--seed", str(seed),
               "--workdir", workdir, *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time")
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: took over {BUDGET_S:.0f} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise BenchError(f"{workload}: worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def count_failures(calls, problems, floor):
    """Record why each call failed: it raised, scored below the floor, or
    gave an output unlike the first call's (in any process). A failed
    run-level check fails every call. Returns the number of failed calls."""
    ok = [c for c in calls if "error" not in c]
    reference = ok[0]["signature"] if ok else None
    for c in calls:
        reasons = []
        if "error" in c:
            reasons.append(c["error"].strip().splitlines()[-1])
        else:
            if c["accuracy"] < floor:
                reasons.append(f"accuracy {c['accuracy']} below {floor}")
            if c["signature"] != reference:
                reasons.append("output differs from the first call's")
        c["failures"] = reasons
    return sum(1 for c in calls if c["failures"] or problems)


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (result record, metrics)."""
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    processes = 1 if trace else PROCESSES
    try:
        children = []
        for i in range(processes):
            child_dir = os.path.join(workdir, str(i))
            os.mkdir(child_dir)
            children.append(_child(
                workload, seed, child_dir, deadline,
                "--window", str(seconds / processes),
                "--reference", str(int(i == 0)),
                "--trace", str(trace), "--spans", spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calls = [c for child in children for c in child["calls"]]
    problems = [p for child in children for p in child["problems"]]
    record = {
        "workload": workload, "seconds": seconds, "trace": trace,
        "env": children[0]["env"], "calls": calls, "problems": problems,
        "failed": count_failures(calls, problems,
                                 children[0]["accuracy_floor"]),
        "setup_samples": [child["setup_s"] for child in children],
        "peak_rss_samples": [child["peak_rss_mb"] for child in children],
    }
    ok = [c for c in calls if "error" not in c]
    if not ok or (trace and not children[0]["per_layer"]):
        raise BenchError(f"{workload}: no call succeeded: "
                         f"{calls[0].get('error')}")
    if trace:
        return record, children[0]["per_layer"]
    metrics = {
        "run_s": statistics.median(c["wall_s"] for c in ok),
        "cpu_s": statistics.median(c["cpu_s"] for c in ok),
        "peak_rss_mb": statistics.median(record["peak_rss_samples"]),
        "accuracy": statistics.median(c["accuracy"] for c in ok),
        "setup_s": statistics.median(record["setup_samples"]),
    }
    return record, metrics


def report(record, metrics, units, computed):
    """Human-readable lines: environment, every metric with its unit,
    the failure count and the reason for each failure. Metrics named in
    ``computed`` are marked as computed from array sizes."""
    env = record["env"]
    calls = record["calls"]
    timed = [c for c in calls if "wall_s" in c and not c["traced"]]
    print(f"# workload {record['workload']}  seed {env['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    print(f"# env: nproc {env['nproc']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  "
          f"git {env['git_revision']}")
    print(f"# blas: numpy {env['numpy_blas']} ({env['numpy_blas_threads']} "
          f"threads), scipy {env['scipy_blas']} "
          f"({env['scipy_blas_threads']} threads), OPENBLAS_NUM_THREADS="
          f"{env['OPENBLAS_NUM_THREADS']}")
    walls = sorted(c["wall_s"] for c in timed)
    print(f"# untraced calls {len(timed)}: wall min {walls[0]:.4f} s, "
          f"max {walls[-1]:.4f} s; measuring processes "
          f"{len(record['setup_samples'])}")
    for name, value in metrics.items():
        note = "  (computed from array sizes)" if name in computed else ""
        print(f"{name:28s} {value:>16.6g} {units[name]}{note}")
    print(f"{'failed_ratio':28s} {record['failed']:>9d}/{len(calls):<6d} "
          "failed/attempted")
    for problem in record["problems"]:
        print(f"# check failed: {problem}")
    for c in calls:
        for reason in c["failures"]:
            print(f"# call failed: {reason}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=21.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hgdl", "__init__.py")):
        print(f"error: no hgdl sources under {ROOT}/src", file=sys.stderr)
        return 2
    computed = ()
    if args.trace:
        sys.path.insert(0, HERE)
        from tracing import COMPUTED as computed
        from tracing import PER_LAYER as units
    else:
        units = END_TO_END

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    combined = {}
    for workload in selected:
        try:
            record, metrics = run_workload(workload, args.seed,
                                           args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w") as fh:
            json.dump({**record, "metrics": metrics}, fh, indent=1)
        report(record, metrics, units, computed)
        attempted += len(record["calls"])
        failed += record["failed"]
        prefix = "" if len(selected) == 1 else f"{workload}."
        combined.update({f"{prefix}{k}": {"value": v, "unit": units[k]}
                         for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
