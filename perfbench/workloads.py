"""The benchmark's workloads: inputs made from a seed, the user-facing
call that is timed, and the checks on its output.

Every workload draws from ``make_synthetic`` with 10 classes, dimension
100 and noise 0.3. Why each one exists is in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from hgdl import cli, data, harness
from hgdl.attention import AdmmParams
from hgdl.data import load_binmat
from hgdl.harness import ExperimentConfig
from hgdl.hypergraph import UNLABELED, HypergraphConfig, build_laplacian

CLASSES = 10
DIM = 100
NOISE = 0.3
# Every probe of every workload scored 1.0; a run below this floor fails.
ACCURACY_FLOOR = 0.95
# Label propagation on the exported Laplacian: F = ((1 - a) I + a L)^-1 Y,
# the closed form of Zhou et al. (2004) with Theta = I - L.
PROPAGATION_ALPHA = 0.99


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class Fit:
    """``harness.run`` on one synthetic split under one configuration."""

    per_class_train: int
    per_class_test: int
    config: dict = field(default_factory=dict)

    def prepare(self, seed, workdir):
        bundle = data.make_synthetic(CLASSES, self.per_class_train,
                                self.per_class_test, DIM, NOISE, seed)
        return bundle, ExperimentConfig(seed=seed, **self.config)

    def call(self, state):
        bundle, config = state
        return harness.run(config, bundle)

    def observe(self, state, report):
        """(signature, accuracy) of one call; equal calls give equal
        signatures, since predictions and the objective trace are
        bit-for-bit deterministic."""
        trace = np.asarray(report.objective_trace)
        return digest(report.predictions, trace), report.accuracy

    def problems(self, state):
        return []


@dataclass
class Export:
    """``hgdl export-laplacian --mode transductive`` on CSV inputs, in
    process. Accuracy is that of label propagation over the written
    Laplacian, scored on the test vertices."""

    per_class_train: int
    per_class_test: int

    def prepare(self, seed, workdir):
        bundle = data.make_synthetic(CLASSES, self.per_class_train,
                                self.per_class_test, DIM, NOISE, seed)
        paths = {part: os.path.join(workdir, f"{part}.csv")
                 for part in ("train", "test")}
        data.save_csv(paths["train"], bundle.train_features, bundle.train_labels)
        data.save_csv(paths["test"], bundle.test_features, bundle.test_labels)
        out = os.path.join(workdir, "laplacian.binmat")
        argv = ["export-laplacian", "--train", paths["train"],
                "--test", paths["test"], "--mode", "transductive",
                "--out", out, "--seed", str(seed)]
        return {"bundle": bundle, "argv": argv, "out": out}

    def call(self, state):
        code = cli.main(state["argv"])
        if code != 0:
            raise RuntimeError(f"export-laplacian exited with code {code}")
        return code

    def observe(self, state, code):
        lap = load_binmat(state["out"])
        state.setdefault("written", lap)
        return digest(lap), self._propagation_accuracy(state["bundle"], lap)

    def problems(self, state):
        """The written matrix must equal build_laplacian of the in-memory
        inputs bit for bit, and be exactly symmetric."""
        bundle = state["bundle"]
        X = np.hstack([bundle.train_features, bundle.test_features])
        labels = np.concatenate([bundle.train_labels,
                                 np.full(bundle.test_features.shape[1],
                                         UNLABELED)])
        defaults = ExperimentConfig()
        reference = build_laplacian(X, labels, HypergraphConfig(
            admm=AdmmParams(epsilon=defaults.epsilon), k_nn=defaults.k_nn))
        written = state["written"]
        found = []
        if written.shape != reference.shape or not np.array_equal(
                written.view(np.uint64), reference.view(np.uint64)):
            found.append("written Laplacian differs from build_laplacian")
        if not np.array_equal(written, written.T):
            found.append("written Laplacian is not symmetric")
        return found

    @staticmethod
    def _propagation_accuracy(bundle, lap):
        n_train = bundle.train_labels.size
        seeds = np.zeros((lap.shape[0], CLASSES))
        seeds[np.arange(n_train), bundle.train_labels] = 1.0
        system = ((1.0 - PROPAGATION_ALPHA) * np.eye(lap.shape[0])
                  + PROPAGATION_ALPHA * lap)
        scores = np.linalg.solve(system, seeds)
        predicted = np.argmax(scores[n_train:], axis=1)
        return float(np.mean(predicted == bundle.test_labels))


# Sizes are per class; the reasons for each are in README.md.
WORKLOADS = {
    "fit-inductive": Fit(6, 12),
    "fit-transductive": Fit(2, 8, {"mode": "transductive", "dict_size": 20}),
    "fit-beta0": Fit(40, 40, {"beta": 0.0, "mask_fraction": 0.4}),
    "laplacian-export": Export(8, 24),
}
# A small case of the same kind, run once before timing so that lazy
# imports and first-touch allocations are not timed.
WARM_UP = {
    "fit-inductive": Fit(2, 2),
    "fit-transductive": Fit(2, 2, {"mode": "transductive", "dict_size": 10}),
    "fit-beta0": Fit(2, 2, {"beta": 0.0, "mask_fraction": 0.4}),
    "laplacian-export": Export(2, 2),
}
