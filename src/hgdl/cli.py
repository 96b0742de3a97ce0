"""Command line interface.

Exit codes: 0 success, 2 bad arguments, 3 malformed input data,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .data import (
    DatasetBundle,
    load_features,
    make_synthetic,
    save_binmat,
    save_csv,
    save_labels,
)
from .dictlearn import INDUCTIVE, TRANSDUCTIVE, corpus
from .errors import (
    InputError,
    InternalError,
    NumericalError,
    ParameterError,
)
from .harness import (
    ABLATIONS,
    ExperimentConfig,
    ablation_suite,
    mask_sweep,
    masked_features,
    run,
    write_json,
)
from .hypergraph import UNLABELED, build_laplacian


def _add_common(parser):
    """Run flags: each dest is an ExperimentConfig field, and a flag left
    out is absent from args, so the field's default applies."""
    flag = functools.partial(parser.add_argument, default=argparse.SUPPRESS)
    flag("--epsilon", type=float, help="attention l1 weight")
    flag("--alpha", type=float, help="code l1 weight")
    flag("--beta", type=float, help="manifold regularizer weight")
    flag("--gamma", type=float,
         help="test-coding l1 weight (defaults to alpha)")
    flag("--knn", dest="k_nn", type=int,
         help="neighborhood size per hyperedge")
    flag("--dict-size", dest="dict_size", type=int,
         help="number of dictionary atoms (capped at the corpus size)")
    flag("--mode", choices=[INDUCTIVE, TRANSDUCTIVE])
    flag("--ablation", choices=list(ABLATIONS))
    flag("--mask-fraction", type=float)
    flag("--seed", type=int)
    parser.add_argument("--format", choices=["csv", "binmat"], default="csv",
                        help="on-disk format of feature files")


def _run_parser(sub, name, func, help, out_help=None, test_required=False):
    """A subcommand that runs on --train (and --test) files, writes --out
    and takes the run flags."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--train", required=True)
    parser.add_argument("--test", required=test_required)
    parser.add_argument("--out", required=True, help=out_help)
    _add_common(parser)
    parser.set_defaults(func=func)
    return parser


def _config(args) -> ExperimentConfig:
    """The run's config, checked before any data is read."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    config = ExperimentConfig(
        **{k: v for k, v in vars(args).items() if k in fields})
    if config.mode == TRANSDUCTIVE and not args.test:
        raise ParameterError("--mode transductive needs a --test file")
    return config


def _load_labeled(path, fmt, missing):
    """Features and labels of a file with some label other than UNLABELED."""
    X, y = load_features(path, fmt)
    if y is None:
        raise InputError(f"{path}: {missing}")
    if (y == UNLABELED).all():
        raise InputError(f"{path}: every label is {UNLABELED}; {missing}")
    return X, y


def _load_bundle(args) -> DatasetBundle:
    X_train, y_train = _load_labeled(args.train, args.format,
                                     "training labels required")
    X_test = y_test = None
    if args.test:
        X_test, y_test = _load_labeled(args.test, args.format,
                                       "test labels required to score")
    return DatasetBundle(X_train, y_train, X_test, y_test)


def _seeds(args, config):
    """--seeds consecutive seeds, starting at --seed."""
    if args.seeds < 1:
        raise ParameterError("--seeds must be at least 1")
    return range(config.seed, config.seed + args.seeds)


def cmd_train(args):
    config = _config(args)
    bundle = _load_bundle(args)
    report = run(config, bundle, out_path=args.out)
    where = "test" if bundle.test_features is not None else "train"
    print(f"{where} accuracy {report.accuracy:.4f} -> {args.out}")
    return 0


def cmd_ablate(args):
    config = _config(args)
    seeds = _seeds(args, config)
    bundle = _load_bundle(args)
    result = ablation_suite(config, bundle, seeds)
    write_json(result, args.out)
    means = result["mean_accuracy"]
    print(
        "mean accuracy "
        + " ".join(f"{name}={means[name]:.4f}" for name in means)
        + f" -> {args.out}"
    )
    return 0


def cmd_mask_sweep(args):
    config = _config(args)
    try:
        fractions = [float(tok) for tok in args.fractions.split(",") if tok]
    except ValueError:
        raise ParameterError(f"bad --fractions value {args.fractions!r}")
    if not fractions or not all(0.0 <= f < 1.0 for f in fractions):
        raise ParameterError(
            f"--fractions {args.fractions!r}: need one or more values"
            " in [0, 1)")
    seeds = _seeds(args, config)
    bundle = _load_bundle(args)
    result = mask_sweep(config, bundle, fractions, seeds)
    write_json(result, args.out)
    gaps = " ".join(f"{g:+.4f}" for g in result["gap"])
    print(f"accuracy gap per fraction: {gaps} -> {args.out}")
    return 0


def cmd_synth(args):
    bundle = make_synthetic(
        n_classes=args.classes,
        per_class_train=args.per_class_train,
        per_class_test=args.per_class_test,
        dim=args.dim,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    parts = [("train", bundle.train_features, bundle.train_labels)]
    if bundle.test_features is not None:
        parts.append(("test", bundle.test_features, bundle.test_labels))
    for name, X, y in parts:
        if args.format == "csv":
            path = f"{args.out}_{name}.csv"
            save_csv(path, X, y)
        else:
            path = f"{args.out}_{name}.binmat"
            save_binmat(path, X)
            save_labels(f"{path}.labels", y)
        print(f"wrote {path} ({X.shape[1]} samples, dim {X.shape[0]})")
    return 0


def cmd_export_laplacian(args):
    """Write the Laplacian that train regularizes with for the same flags:
    run's masking of run's corpus. An unlabeled training file gives a
    graph without the label modal."""
    config = _config(args)
    X_train, y_train = load_features(args.train, args.format)
    X_test = load_features(args.test, args.format)[0] if args.test else None
    X_train, X_test = masked_features(config, X_train, X_test)
    X, labels = corpus(X_train, y_train, X_test, config.mode)
    delta = build_laplacian(X, labels, config.hypergraph_config())
    save_binmat(args.out, delta)
    print(f"wrote {args.out} ({delta.shape[0]}x{delta.shape[1]})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hgdl",
        description=(
            "Hypergraph-regularized dictionary learning with sparse"
            " attention neighborhood weighting."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _run_parser(sub, "train", cmd_train, "fit a model and report scores",
                "report JSON path")
    # eval is train with --test required
    _run_parser(sub, "eval", cmd_train, "fit on train, score on test",
                "report JSON path", test_required=True)
    p_ablate = _run_parser(sub, "ablate", cmd_ablate,
                           "run full and ablated variants")
    p_mask = _run_parser(sub, "mask-sweep", cmd_mask_sweep,
                         "accuracy vs mask fraction, with baseline")
    p_mask.add_argument("--fractions", default="0,0.2,0.4,0.6")
    for study in (p_ablate, p_mask):
        study.add_argument("--seeds", type=int, default=1,
                           help="number of seeds, starting at --seed")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--out", required=True, help="output path prefix")
    p_synth.add_argument("--classes", type=int, default=4)
    p_synth.add_argument("--per-class-train", type=int, default=5)
    p_synth.add_argument("--per-class-test", type=int, default=10)
    p_synth.add_argument("--dim", type=int, default=50)
    p_synth.add_argument("--noise-sigma", type=float, default=0.3)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--format", choices=["csv", "binmat"], default="csv")
    p_synth.set_defaults(func=cmd_synth)

    _run_parser(sub, "export-laplacian", cmd_export_laplacian,
                "write the hypergraph Laplacian as binmat",
                "binmat output path")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, InternalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
