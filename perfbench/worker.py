"""One fresh measuring process of the benchmark; run.py starts it.

    worker.py --root R --workload W --seed S --workdir D --window T
              [--reference 0|1] [--trace 0|1 --spans FILE]

It times its own set-up (importing hgdl and making the inputs), runs a
small warm-up case, then repeats the workload's call for about T seconds:
it starts another call while at least half of it, at the average pace so
far, fits in T.
With --reference 1 it also runs the workload's run-level checks. With
--trace 1 it alternates untraced and traced calls (at least two of each)
and reports the per-layer metrics. The result is the last line of
standard output, as JSON. Only the standard library is imported before
the set-up clock starts.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback


def _import_program(root):
    """Import hgdl from the checkout's src/, never from site-packages."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hgdl

    if not os.path.abspath(hgdl.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"hgdl imported from {hgdl.__file__}, not {src}")


def git_revision(root):
    """HEAD of the checkout, read from .git; 'unknown' outside git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas(module):
    """(configuration, default thread count) of the OpenBLAS a package
    ships, asked from the already loaded library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                        f"{module.__name__}.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), get_threads()
    return "unknown", None


def environment(root, seed):
    import numpy
    import scipy

    numpy_blas, numpy_threads = _blas(numpy)
    scipy_blas, scipy_threads = _blas(scipy)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy_blas,
        "numpy_blas_threads": numpy_threads,
        "scipy_blas": scipy_blas,
        "scipy_blas_threads": scipy_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_revision": git_revision(root),
        "seed": seed,
    }


def _call(spec, state):
    """Run one timed call and observe its output; errors are recorded."""
    record = {"traced": False}
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        output = spec.call(state)
        record["wall_s"] = time.perf_counter() - wall
        record["cpu_s"] = time.process_time() - cpu
        record["signature"], record["accuracy"] = spec.observe(state, output)
    except Exception:
        record["error"] = traceback.format_exc()
    return record


def measure(args):
    started = time.perf_counter()
    _import_program(args.root)
    import tracing
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    with tracer.recording("setup") if tracer else contextlib.nullcontext():
        state = spec.prepare(args.seed, args.workdir)
    setup_s = time.perf_counter() - started
    env = environment(args.root, args.seed)
    warm = workloads.WARM_UP[args.workload]
    warm_dir = os.path.join(args.workdir, "warm-up")
    os.mkdir(warm_dir)
    warm.call(warm.prepare(0, warm_dir))

    calls = []
    rounds = 0
    started = time.perf_counter()
    while True:
        calls.append(_call(spec, state))
        if tracer:
            run_id = f"call-{len(calls)}"
            with tracer.recording(run_id):
                calls.append(_call(spec, state))
            calls[-1]["traced"] = run_id
        rounds += 1
        elapsed = time.perf_counter() - started
        if (rounds >= (2 if tracer else 1)
                and elapsed * (rounds + 0.5) / rounds >= args.window):
            break

    problems = []
    if args.reference and any("error" not in c for c in calls):
        problems = spec.problems(state)
    result = {"env": env, "setup_s": setup_s, "calls": calls,
              "problems": problems,
              "accuracy_floor": workloads.ACCURACY_FLOOR}
    if tracer:
        result["per_layer"], counts_differ = _per_layer(tracing, tracer, calls)
        if counts_differ:
            problems.append("counts differ between traced runs: "
                            + ", ".join(counts_differ))
        with open(args.spans, "w") as fh:
            json.dump(tracer.dump(), fh)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


def _per_layer(tracing, tracer, calls):
    """Median of each time over the traced calls, counts from the first
    traced call, and the names of counts that did not repeat exactly."""
    runs = [c["traced"] for c in calls if c["traced"] and "error" not in c]
    if not runs:
        return {}, []
    per_run = [tracing.layer_metrics(tracer.run_spans(r), tracer.warnings[r])
               for r in runs]
    setup = tracing.layer_metrics(tracer.run_spans("setup"),
                                  tracer.warnings["setup"])
    metrics = {}
    differ = []
    for name in tracing.PER_LAYER:
        values = [m[name] for m in per_run]
        if name in tracing.TIMES:
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                differ.append(name)
    metrics["data.synth_s"] = setup["data.synth_s"]
    traced = [c["wall_s"] for c in calls if c["traced"] and "error" not in c]
    untraced = [c["wall_s"] for c in calls
                if not c["traced"] and "error" not in c]
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    return metrics, differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--window", type=float, required=True)
    parser.add_argument("--reference", type=int, choices=[0, 1], default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = measure(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
