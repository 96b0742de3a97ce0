"""Experiment configuration, execution and JSON reporting.

One run = optional masking, hypergraph + dictionary training, coding of
the held-out samples and scoring. Reports serialize to JSON with a fixed
key order so identical inputs and seeds reproduce identical bytes; only
wall_time_seconds varies between repeats.

Each stage draws from its own generator seeded at config.seed plus a
fixed offset, so stages stay independently reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass

import numpy as np

from ._native import one_blas_thread
from .attention import AdmmParams
from .data import DatasetBundle, apply_mask
from .dictlearn import (
    INDUCTIVE,
    TRANSDUCTIVE,
    DictLearnParams,
    predict,
    train_pipeline,
)
from .errors import ParameterError, _integer
from .hypergraph import UNLABELED, HypergraphConfig

FULL = "full"
SAF_OFF = "saf-off"
LB_OFF = "lb-off"
ABLATIONS = (FULL, SAF_OFF, LB_OFF)

SEED_OFFSET_DICT_INIT = 1
SEED_OFFSET_MASK_TRAIN = 2
SEED_OFFSET_MASK_TEST = 3


@dataclass
class ExperimentConfig:
    """All knobs of one run, their defaults, and their mapping onto the
    hypergraph and dictionary-learning configs. gamma defaults to alpha."""

    epsilon: float = 2.0 ** -6
    alpha: float = 2.0 ** -6
    beta: float = 2.0 ** 3
    gamma: float | None = None
    k_nn: int = 10
    dict_size: int = 200
    mode: str = INDUCTIVE
    ablation: str = FULL
    mask_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.gamma is None:
            self.gamma = self.alpha
        if self.mode not in (INDUCTIVE, TRANSDUCTIVE):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.ablation not in ABLATIONS:
            raise ParameterError(f"unknown ablation {self.ablation!r}")
        if not (0.0 <= self.mask_fraction < 1.0):
            raise ParameterError(
                "mask_fraction (--mask-fraction) must lie in [0, 1)")
        # DictLearnParams sees seed + 1, so its own checks would name the
        # wrong value and let -1 through
        self.seed = _integer(self.seed, "seed (--seed)")
        if self.seed < 0:
            raise ParameterError("seed (--seed) must be nonnegative")
        # the component configs check every other field, naming its flag
        self.hypergraph_config()
        self.dictlearn_params()

    def hypergraph_config(self) -> HypergraphConfig:
        return HypergraphConfig(
            admm=AdmmParams(epsilon=self.epsilon),
            k_nn=self.k_nn,
            use_attention=self.ablation != SAF_OFF,
            use_labels=self.ablation != LB_OFF,
        )

    def dictlearn_params(self) -> DictLearnParams:
        return DictLearnParams(
            n_atoms=self.dict_size,
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
            seed=self.seed + SEED_OFFSET_DICT_INIT,
        )


@dataclass
class RunReport:
    """Scores and trace of one run; predictions stay out of the JSON."""

    accuracy: float
    per_class_accuracy: list
    objective_trace: list
    wall_time_seconds: float
    config: ExperimentConfig
    predictions: np.ndarray | None = None

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "per_class_accuracy": list(self.per_class_accuracy),
            "objective_trace": list(self.objective_trace),
            "wall_time_seconds": self.wall_time_seconds,
            "config": dataclasses.asdict(self.config),
        }


def score_predictions(predictions, truth, n_classes):
    """Overall and per-class accuracy over the labeled truth entries.

    Classes absent from the truth get per-class accuracy 0.0 and weight
    0, so the overall value equals the count-weighted mean of the
    per-class values.
    """
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    labeled = truth != UNLABELED
    if not labeled.any():
        raise ParameterError("no labeled samples to score")
    per_class = []
    correct = 0
    total = 0
    for c in range(n_classes):
        members = truth == c
        count = int(members.sum())
        if count == 0:
            per_class.append(0.0)
            continue
        hits = int(np.sum(predictions[members] == c))
        per_class.append(hits / count)
        correct += hits
        total += count
    return correct / total, per_class


@one_blas_thread
def run(config: ExperimentConfig, bundle: DatasetBundle,
        out_path=None) -> RunReport:
    """Execute one configured run on a dataset bundle.

    Masking (if any) hits train and test features with per-stage seeds.
    Test labels are read only at scoring; a bundle without test features
    is scored on its training samples.
    """
    started = time.perf_counter()
    y_train = bundle.train_labels
    X_train, X_test = masked_features(config, bundle.train_features,
                                      bundle.test_features)
    model = train_pipeline(
        X_train,
        y_train,
        X_test,
        hypergraph_config=config.hypergraph_config(),
        params=config.dictlearn_params(),
        mode=config.mode,
    )
    if X_test is not None:
        predictions = predict(model.classifier, model.test_codes)
        truth = bundle.test_labels
    else:
        predictions = predict(model.classifier, model.train_codes)
        truth = y_train
    n_classes = model.classifier.plane.shape[0]
    accuracy, per_class = score_predictions(predictions, truth, n_classes)
    report = RunReport(
        accuracy=accuracy,
        per_class_accuracy=per_class,
        objective_trace=[float(v) for v in model.objective_trace],
        wall_time_seconds=time.perf_counter() - started,
        config=config,
        predictions=predictions,
    )
    if out_path is not None:
        write_json(report.to_dict(), out_path)
    return report


def masked_features(config: ExperimentConfig, X_train, X_test):
    """Train and test features after the run's masking, if any."""
    fraction, seed = config.mask_fraction, config.seed
    if fraction == 0.0:
        return X_train, X_test
    X_train = apply_mask(X_train, fraction, seed + SEED_OFFSET_MASK_TRAIN)
    if X_test is not None:
        X_test = apply_mask(X_test, fraction, seed + SEED_OFFSET_MASK_TEST)
    return X_train, X_test


def write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _mean_accuracy(reports):
    return float(np.mean([r["accuracy"] for r in reports]))


def ablation_suite(config: ExperimentConfig, bundle: DatasetBundle,
                   seeds) -> dict:
    """Run every ablation for every seed; report per-run and mean scores."""
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ParameterError("at least one seed required")
    runs = {name: [] for name in ABLATIONS}
    for seed in seeds:
        for name in ABLATIONS:
            variant = dataclasses.replace(config, ablation=name, seed=seed)
            runs[name].append(run(variant, bundle).to_dict())
    return {
        "seeds": seeds,
        "ablations": runs,
        "mean_accuracy": {
            name: _mean_accuracy(reports) for name, reports in runs.items()
        },
    }


def mask_sweep(config: ExperimentConfig, bundle: DatasetBundle, fractions,
               seeds) -> dict:
    """Regularized runs against the beta = 0 baseline across mask levels.

    beta stays fixed at config.beta for every fraction; the baseline
    repeats each run with beta = 0. The gap is regularized minus
    baseline mean accuracy per fraction.
    """
    fractions = [float(f) for f in fractions]
    seeds = [int(s) for s in seeds]
    if not fractions or not seeds:
        raise ParameterError("need at least one fraction and one seed")
    # every variant is built, and so validated, before the first run
    variants = [
        [(dataclasses.replace(config, mask_fraction=fraction, seed=seed),
          dataclasses.replace(config, mask_fraction=fraction, seed=seed,
                              beta=0.0))
         for seed in seeds]
        for fraction in fractions
    ]
    rows = []
    for fraction, pairs in zip(fractions, variants):
        entry = {"fraction": fraction, "regularized": [], "baseline": []}
        for reg, base in pairs:
            entry["regularized"].append(run(reg, bundle).to_dict())
            entry["baseline"].append(run(base, bundle).to_dict())
        rows.append(entry)
    summary = {
        "fractions": fractions,
        "seeds": seeds,
        "regularized_mean_accuracy": [
            _mean_accuracy(row["regularized"]) for row in rows
        ],
        "baseline_mean_accuracy": [
            _mean_accuracy(row["baseline"]) for row in rows
        ],
        "runs": rows,
    }
    summary["gap"] = [
        reg - base
        for reg, base in zip(
            summary["regularized_mean_accuracy"],
            summary["baseline_mean_accuracy"],
        )
    ]
    return summary
