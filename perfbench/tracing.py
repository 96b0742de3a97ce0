"""Spans around the public functions of every hgdl layer, and the
per-layer metrics derived from them.

The program is not changed: ``Tracer.recording`` replaces each public
function of the layer modules with a timing wrapper in every hgdl module
namespace that holds it, because the modules import one another's
functions by name (``hgdl.cli.build_laplacian`` and
``hgdl.hypergraph.build_laplacian`` are two lookups of one function).
Leaving the block restores the originals, so untraced calls run the
pristine program.

A span is (run id, span id, parent span id, name, start, end, info).
Spans stay in memory until the benchmark writes them out. Self time is a
span's duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
import warnings

import numpy as np

LAYERS = ("data", "attention", "hypergraph", "dictlearn", "harness", "cli")
# Called once per ADMM iteration (about 260k times in one export); a span
# each would cost more than the solve it measures. Their time counts as
# the self time of solve_attention.
UNTRACED = {"attention.soft_threshold", "attention.attention_objective"}
BINMAT_HEADER_BYTES = 21


def _layer_modules():
    return {name: importlib.import_module(f"hgdl.{name}") for name in LAYERS}


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Per-call facts a metric needs, read from arguments and results. They
# only read attributes; arrays are kept by reference and counted after
# the call, outside every span.
def _info_attention(fn, args, kwargs, result):
    return {"iterations": result.iterations, "converged": result.converged}


def _info_update_codes(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n_atoms, n = a["S"].shape
    return {"beta": float(a["beta"]), "entries": n_atoms * n}


def _info_train(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"max_outer_iter": a["params"].max_outer_iter,
            "outer_iters": len(result[2]) - 1, "codes": result[1]}


def _info_encode(fn, args, kwargs, result):
    return {"max_sweeps": _bound(fn, args, kwargs)["max_sweeps"]}


def _info_laplacian(fn, args, kwargs, result):
    hg = _bound(fn, args, kwargs)["hg"]
    return {"vertices": hg.n_vertices, "edges": hg.n_edges, "matrix": result}


def _info_save_binmat(fn, args, kwargs, result):
    return {"shape": np.shape(_bound(fn, args, kwargs)["X"])}


INFO = {
    "attention.solve_attention": _info_attention,
    "dictlearn.update_codes": _info_update_codes,
    "dictlearn.train": _info_train,
    "dictlearn.encode_test": _info_encode,
    "hypergraph.laplacian": _info_laplacian,
    "data.save_binmat": _info_save_binmat,
}


class Tracer:
    """Collects spans of the calls made inside ``recording`` blocks."""

    def __init__(self):
        self.spans = []
        self.warnings = {}
        self._stack = []
        self._run = None

    def _wrap(self, name, fn):
        get_info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id in call order
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (self._run, span_id, parent, name,
                                       start, end, None)
            if get_info is not None:
                info = get_info(fn, args, kwargs, result)
                self.spans[span_id] = self.spans[span_id][:6] + (info,)
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, run_id):
        """Trace every layer call made inside the block as run ``run_id``.

        Warnings raised inside are recorded (not printed) so that counts
        such as dead atoms can be read from them.
        """
        modules = _layer_modules()
        originals = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and name not in UNTRACED):
                    originals[value] = self._wrap(name, value)
        namespaces = [importlib.import_module("hgdl"), *modules.values()]
        patched = []
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in originals:
                    setattr(namespace, attr, originals[value])
                    patched.append((namespace, attr, value))
        self._run = run_id
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield
            self.warnings[run_id] = [str(w.message) for w in caught]
        finally:
            for namespace, attr, value in patched:
                setattr(namespace, attr, value)
            self._run = None

    def run_spans(self, run_id):
        return [s for s in self.spans if s is not None and s[0] == run_id]

    def dump(self):
        """Spans as JSON-ready dicts; array-valued info is left out."""
        out = []
        for run, span_id, parent, name, start, end, info in self.spans:
            record = {"run": run, "id": span_id, "parent": parent,
                      "name": name, "start": start, "end": end}
            if info:
                record.update({k: v for k, v in info.items()
                               if isinstance(v, (int, float, bool))})
            out.append(record)
        return out


# Every per-layer metric with its unit. All but the times (unit "s") are
# counts or ratios of counts, which must repeat exactly between traced
# runs of one seed. COMPUTED ones come from array sizes, not measurement.
PER_LAYER = {
    "attention.solve_s": "s",
    "attention.solves": "count",
    "attention.iters_total": "count",
    "attention.iters_max": "count",
    "attention.capped": "count",
    "attention.converged_ratio": "fraction",
    "hypergraph.knn_s": "s",
    "hypergraph.saf_self_s": "s",
    "hypergraph.lb_s": "s",
    "hypergraph.degrees_s": "s",
    "hypergraph.laplacian_s": "s",
    "hypergraph.build_s": "s",
    "hypergraph.vertices": "count",
    "hypergraph.edges": "count",
    "hypergraph.laplacian_nnz": "count",
    "hypergraph.laplacian_bytes": "bytes",
    "dictlearn.train_s": "s",
    "dictlearn.outer_iters": "count",
    "dictlearn.outer_capped": "count",
    "dictlearn.sweep_beta_s": "s",
    "dictlearn.sweeps_beta": "count",
    "dictlearn.sweep_beta_p50_s": "s",
    "dictlearn.scalar_steps": "count",
    "dictlearn.sweep_b0_s": "s",
    "dictlearn.sweeps_b0": "count",
    "dictlearn.dict_sweep_s": "s",
    "dictlearn.objective_s": "s",
    "dictlearn.objective_calls": "count",
    "dictlearn.encode_s": "s",
    "dictlearn.encode_sweeps": "count",
    "dictlearn.encode_capped": "count",
    "dictlearn.classifier_s": "s",
    "dictlearn.dead_atoms": "count",
    "dictlearn.code_density": "fraction",
    "harness.self_s": "s",
    "harness.mask_s": "s",
    "data.synth_s": "s",
    "data.load_csv_s": "s",
    "data.save_binmat_s": "s",
    "data.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
COMPUTED = ("dictlearn.scalar_steps", "hypergraph.laplacian_bytes",
            "data.bytes_written")
TIMES = {name for name, unit in PER_LAYER.items() if unit == "s"}

# Self time of these spans goes to one metric each.
SELF_TIME = {
    "attention.solve_attention": "attention.solve_s",
    "hypergraph.knn_neighbors": "hypergraph.knn_s",
    "hypergraph.build_saf_hypergraph": "hypergraph.saf_self_s",
    "hypergraph.build_lb_hypergraph": "hypergraph.lb_s",
    "hypergraph.fuse": "hypergraph.lb_s",
    "hypergraph.degrees": "hypergraph.degrees_s",
    "hypergraph.laplacian": "hypergraph.laplacian_s",
    "dictlearn.update_dictionary": "dictlearn.dict_sweep_s",
    "dictlearn.fit_classifier": "dictlearn.classifier_s",
    "dictlearn.predict": "dictlearn.classifier_s",
    "data.apply_mask": "harness.mask_s",
    "data.make_synthetic": "data.synth_s",
    "data.load_features": "data.load_csv_s",
    "data.load_csv": "data.load_csv_s",
    "data.save_binmat": "data.save_binmat_s",
}
# Self time of every other span of these layers goes to the layer's one
# self-time metric (cli.main, cli.build_parser, harness.run, ...).
LAYER_SELF_TIME = {"cli": "cli.self_s", "harness": "harness.self_s"}
# Total (inclusive) time of these spans goes to one metric each.
TOTAL_TIME = {
    "hypergraph.build_laplacian": "hypergraph.build_s",
    "dictlearn.train": "dictlearn.train_s",
    "dictlearn.encode_test": "dictlearn.encode_s",
}


def layer_metrics(spans, warning_messages):
    """Per-layer metrics of one traced run; layers not reached read 0."""
    m = dict.fromkeys(PER_LAYER, 0)
    m["attention.converged_ratio"] = 0.0
    m["dictlearn.code_density"] = 0.0
    by_id = {s[1]: s for s in spans}
    child_time = dict.fromkeys(by_id, 0.0)
    for s in spans:
        if s[2] in child_time:
            child_time[s[2]] += s[5] - s[4]
    beta_sweeps = []
    codes = None
    for run, span_id, parent, name, start, end, info in spans:
        duration = end - start
        self_time = duration - child_time[span_id]
        parent_name = by_id[parent][3] if parent in by_id else None
        self_metric = (SELF_TIME.get(name)
                       or LAYER_SELF_TIME.get(name.split(".")[0]))
        if self_metric:
            m[self_metric] += self_time
        if name in TOTAL_TIME:
            m[TOTAL_TIME[name]] += duration
        if name == "attention.solve_attention":
            m["attention.solves"] += 1
            m["attention.iters_total"] += info["iterations"]
            m["attention.iters_max"] = max(m["attention.iters_max"],
                                           info["iterations"])
            m["attention.capped"] += not info["converged"]
        elif name == "hypergraph.laplacian":
            m["hypergraph.vertices"] += info["vertices"]
            m["hypergraph.edges"] += info["edges"]
            lap = info["matrix"]
            m["hypergraph.laplacian_nnz"] += int(np.count_nonzero(lap))
            m["hypergraph.laplacian_bytes"] += lap.size * lap.itemsize
        elif name == "dictlearn.train":
            m["dictlearn.outer_iters"] += info["outer_iters"]
            m["dictlearn.outer_capped"] += (
                info["outer_iters"] == info["max_outer_iter"])
            codes = info["codes"]
        elif name == "dictlearn.update_codes":
            if parent_name == "dictlearn.encode_test":
                m["dictlearn.encode_sweeps"] += 1
            elif info["beta"] != 0.0:
                beta_sweeps.append(self_time)
                m["dictlearn.sweep_beta_s"] += self_time
                m["dictlearn.scalar_steps"] += info["entries"]
            else:
                m["dictlearn.sweep_b0_s"] += self_time
                m["dictlearn.sweeps_b0"] += 1
        elif name == "dictlearn.objective":
            if parent_name == "dictlearn.train":
                m["dictlearn.objective_s"] += self_time
                m["dictlearn.objective_calls"] += 1
        elif name == "dictlearn.encode_test":
            sweeps = sum(1 for c in spans if c[2] == span_id
                         and c[3] == "dictlearn.update_codes")
            m["dictlearn.encode_capped"] += sweeps == info["max_sweeps"]
        elif name == "data.save_binmat":
            rows, cols = info["shape"]
            m["data.bytes_written"] += BINMAT_HEADER_BYTES + 8 * rows * cols
    if m["attention.solves"]:
        m["attention.converged_ratio"] = (
            1.0 - m["attention.capped"] / m["attention.solves"])
    m["dictlearn.sweeps_beta"] = len(beta_sweeps)
    if beta_sweeps:
        m["dictlearn.sweep_beta_p50_s"] = statistics.median(beta_sweeps)
    if codes is not None:
        m["dictlearn.code_density"] = (
            int(np.count_nonzero(codes)) / codes.size)
    m["dictlearn.dead_atoms"] = sum("went dead" in msg
                                    for msg in warning_messages)
    return m
