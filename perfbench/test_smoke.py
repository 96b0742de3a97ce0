"""Smoke test of the benchmark itself, on the small warm-up cases.

    python3 -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hgdl import cli, hypergraph  # noqa: E402

COUNTS = [name for name in tracing.PER_LAYER if name not in tracing.TIMES]


def traced_twice(name, tmp_path):
    spec = workloads.WARM_UP[name]
    tmp_path.mkdir(exist_ok=True)
    state = spec.prepare(0, str(tmp_path))
    tracer = tracing.Tracer()
    out = []
    for run in ("first", "second"):
        with tracer.recording(run):
            spec.call(state)
        out.append(tracing.layer_metrics(tracer.run_spans(run),
                                         tracer.warnings[run]))
    return out


def test_workload_names_agree():
    # run.py keeps its own list so that it never imports numpy or hgdl.
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert set(workloads.WARM_UP) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WARM_UP))
def test_every_count_repeats_across_traced_runs(name, tmp_path):
    first, second = traced_twice(name, tmp_path)
    assert set(first) == set(tracing.PER_LAYER)
    assert {n: first[n] for n in COUNTS} == {n: second[n] for n in COUNTS}


def test_workloads_reach_and_bypass_the_right_layers(tmp_path):
    beta0, _ = traced_twice("fit-beta0", tmp_path / "beta0")
    assert beta0["attention.solves"] == 0
    assert beta0["hypergraph.build_s"] == 0
    assert beta0["dictlearn.sweeps_b0"] == beta0["dictlearn.outer_iters"] > 0
    assert beta0["harness.mask_s"] > 0

    export, _ = traced_twice("laplacian-export", tmp_path / "export")
    n = export["hypergraph.vertices"]
    assert n == 40 and export["attention.solves"] == n
    assert export["dictlearn.sweeps_beta"] == 0
    assert export["hypergraph.laplacian_bytes"] == 8 * n * n
    assert export["data.bytes_written"] == tracing.BINMAT_HEADER_BYTES + 8 * n * n
    assert export["cli.self_s"] > 0 and export["data.load_csv_s"] > 0

    fit, _ = traced_twice("fit-inductive", tmp_path / "fit")
    n = fit["hypergraph.vertices"]
    atoms = n  # the dictionary size is capped at the training columns
    assert fit["dictlearn.sweeps_beta"] == fit["dictlearn.outer_iters"]
    assert fit["dictlearn.scalar_steps"] == fit["dictlearn.sweeps_beta"] * n * atoms
    assert fit["dictlearn.encode_sweeps"] > 0


def test_recording_restores_the_program(tmp_path):
    original = hypergraph.build_laplacian
    traced_twice("laplacian-export", tmp_path)
    assert cli.build_laplacian is original
    assert hypergraph.build_laplacian is original


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "fit-beta0", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
