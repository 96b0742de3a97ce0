"""Experiment harness, report serialization, and the command line."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hgdl import cli, dictlearn, harness
from hgdl.attention import AdmmParams
from hgdl.data import (
    DatasetBundle,
    apply_mask,
    load_binmat,
    load_csv,
    make_synthetic,
    save_binmat,
    save_csv,
    save_labels,
)
from hgdl.errors import NumericalError, ParameterError
from hgdl.harness import (
    ABLATIONS,
    SEED_OFFSET_DICT_INIT,
    SEED_OFFSET_MASK_TEST,
    SEED_OFFSET_MASK_TRAIN,
    ExperimentConfig,
    RunReport,
    ablation_suite,
    mask_sweep,
    run,
    score_predictions,
)
from hgdl.hypergraph import UNLABELED, HypergraphConfig, build_laplacian


def small_bundle(seed=100, sigma=0.2):
    return make_synthetic(
        n_classes=3, per_class_train=4, per_class_test=3, dim=8,
        noise_sigma=sigma, seed=seed,
    )


def small_config(**overrides):
    values = dict(k_nn=3, dict_size=8, beta=2.0, seed=0)
    values.update(overrides)
    return ExperimentConfig(**values)


# ---------------------------------------------------------------- scoring


def test_score_predictions_hand_case():
    predictions = np.asarray([0, 1, 1, 2, 0])
    truth = np.asarray([0, 1, 0, 2, 1])
    overall, per_class = score_predictions(predictions, truth, 3)
    assert overall == pytest.approx(3 / 5)
    assert per_class == [pytest.approx(0.5), pytest.approx(0.5), pytest.approx(1.0)]


def test_score_predictions_weighted_mean_invariant():
    rng = np.random.default_rng(7)
    predictions = rng.integers(0, 4, size=60)
    truth = rng.integers(0, 4, size=60)
    truth[rng.random(60) < 0.2] = UNLABELED
    overall, per_class = score_predictions(predictions, truth, 5)
    counts = [int(np.sum(truth == c)) for c in range(5)]
    assert per_class[4] == 0.0  # class 4 never appears
    weighted = sum(c * p for c, p in zip(counts, per_class)) / sum(counts)
    assert overall == pytest.approx(weighted, abs=1e-12)


def test_score_predictions_ignores_unlabeled_and_requires_some():
    predictions = np.asarray([0, 1])
    overall, _ = score_predictions(predictions, np.asarray([0, UNLABELED]), 2)
    assert overall == 1.0
    with pytest.raises(ParameterError):
        score_predictions(predictions, np.asarray([UNLABELED, UNLABELED]), 2)


# ---------------------------------------------------------------- config


def test_config_defaults_and_validation():
    config = ExperimentConfig()
    assert config.gamma == config.alpha
    assert config.mode == "inductive"
    for kwargs in (
        dict(mode="sideways"),
        dict(ablation="everything-off"),
        dict(mask_fraction=1.0),
        dict(dict_size=0),
        dict(k_nn=0),
        dict(seed=-1),
        dict(seed=-2),
    ):
        with pytest.raises(ParameterError):
            ExperimentConfig(**kwargs)


def test_config_maps_onto_components():
    config = ExperimentConfig(epsilon=0.25, k_nn=4, alpha=0.5, beta=3.0,
                              dict_size=30, seed=7)
    hg = config.hypergraph_config()
    assert (hg.admm.epsilon, hg.k_nn) == (0.25, 4)
    assert (hg.use_attention, hg.use_labels) == (True, True)
    params = config.dictlearn_params()
    assert params.n_atoms == 30
    assert (params.alpha, params.beta, params.gamma) == (0.5, 3.0, 0.5)
    assert params.seed == 7 + SEED_OFFSET_DICT_INIT
    switches = {}
    for name in ABLATIONS:
        hg = ExperimentConfig(ablation=name).hypergraph_config()
        switches[name] = (hg.use_attention, hg.use_labels)
    assert switches == {"full": (True, True), "saf-off": (False, True),
                        "lb-off": (True, False)}


@pytest.mark.parametrize("field, value, flag", [
    ("epsilon", 0.0, "--epsilon"),
    ("alpha", -1.0, "--alpha"),
    ("beta", -1.0, "--beta"),
    ("gamma", float("nan"), "--gamma"),
    ("k_nn", 0, "--knn"),
    ("k_nn", 2.0, "--knn"),
    ("k_nn", np.float64(3.0), "--knn"),
    ("dict_size", 0, "--dict-size"),
    ("mask_fraction", 1.0, "--mask-fraction"),
    ("seed", -1, "--seed"),
])
def test_config_rejects_bad_values_naming_the_flag(field, value, flag):
    with pytest.raises(ParameterError, match=flag):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), "3"])
def test_config_rejects_a_non_integer_seed_as_given(seed):
    """The message names the seed the caller gave, not the dictionary
    stage's seed + 1."""
    with pytest.raises(ParameterError,
                       match=f"seed \\(--seed\\) must be an integer, got "
                             f"{re.escape(repr(seed))}$"):
        ExperimentConfig(seed=seed)


def test_config_keeps_a_numpy_integer_seed_as_an_int():
    config = ExperimentConfig(seed=np.int64(4))
    assert type(config.seed) is int
    assert config.dictlearn_params().seed == 4 + SEED_OFFSET_DICT_INIT


# ---------------------------------------------------------------- run/report


def test_run_report_schema_and_json(tmp_path):
    bundle = small_bundle()
    out = tmp_path / "report.json"
    report = run(small_config(), bundle, out_path=out)
    payload = report.to_dict()
    assert list(payload) == [
        "accuracy",
        "per_class_accuracy",
        "objective_trace",
        "wall_time_seconds",
        "config",
    ]
    assert "predictions" not in payload
    assert payload["config"]["beta"] == 2.0
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert len(payload["per_class_accuracy"]) == 3
    trace = payload["objective_trace"]
    assert len(trace) >= 2
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert json.loads(out.read_text()) == payload


def test_run_is_deterministic_up_to_wall_time():
    bundle = small_bundle()
    a = run(small_config(seed=5), bundle).to_dict()
    b = run(small_config(seed=5), bundle).to_dict()
    a.pop("wall_time_seconds")
    b.pop("wall_time_seconds")
    assert a == b


def test_run_never_reads_test_labels_before_scoring():
    base = small_bundle(seed=31)
    flipped_labels = base.test_labels.copy()
    flipped_labels[0] = (flipped_labels[0] + 1) % 3
    flipped = DatasetBundle(
        base.train_features, base.train_labels,
        base.test_features, flipped_labels,
    )
    r1 = run(small_config(), base)
    r2 = run(small_config(), flipped)
    assert np.array_equal(r1.predictions, r2.predictions)
    overall, _ = score_predictions(r2.predictions, flipped_labels, 3)
    assert r2.accuracy == overall


def test_run_without_test_scores_training_samples():
    bundle = small_bundle()
    train_only = DatasetBundle(bundle.train_features, bundle.train_labels)
    report = run(small_config(), train_only)
    assert report.predictions.shape == (12,)
    overall, _ = score_predictions(report.predictions, bundle.train_labels, 3)
    assert report.accuracy == overall


def test_run_caps_dictionary_at_corpus_columns():
    bundle = small_bundle()
    report = run(small_config(dict_size=500), bundle)  # 12 train columns
    assert 0.0 <= report.accuracy <= 1.0
    transductive = run(small_config(dict_size=500, mode="transductive"), bundle)
    assert 0.0 <= transductive.accuracy <= 1.0


def test_run_with_masking_is_deterministic():
    bundle = small_bundle()
    config = small_config(mask_fraction=0.25, seed=3)
    a = run(config, bundle)
    b = run(config, bundle)
    assert np.array_equal(a.predictions, b.predictions)
    assert a.accuracy == b.accuracy


@pytest.mark.parametrize("fraction, seed", [(0.6, 1), (0.8, 2)])
def test_run_predictions_follow_a_renaming_of_the_labels(fraction, seed):
    """1-based labels give the 0-based predictions plus one: the label 0,
    which has no training sample, is never predicted."""
    bundle = make_synthetic(4, 5, 10, 30, 0.8, seed)
    shifted = DatasetBundle(bundle.train_features, bundle.train_labels + 1,
                            bundle.test_features, bundle.test_labels + 1)
    config = ExperimentConfig(k_nn=4, dict_size=20, mask_fraction=fraction,
                              seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        base = run(config, bundle)
        renamed = run(config, shifted)
    assert np.array_equal(renamed.predictions, base.predictions + 1)
    assert renamed.per_class_accuracy == [0.0] + base.per_class_accuracy
    assert renamed.accuracy == base.accuracy


def test_run_predictions_follow_a_permutation_of_the_labels():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=6, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(seed=st.integers(1, 4),
                      perm=st.permutations(range(4)),
                      mode=st.sampled_from(["inductive", "transductive"]))
    def check(seed, perm, mode):
        perm = np.asarray(perm)
        bundle = make_synthetic(4, 5, 10, 30, 0.8, seed)
        renamed_bundle = DatasetBundle(
            bundle.train_features, perm[bundle.train_labels],
            bundle.test_features, perm[bundle.test_labels])
        config = ExperimentConfig(k_nn=4, dict_size=20, mode=mode, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            base = run(config, bundle)
            renamed = run(config, renamed_bundle)
        assert np.array_equal(renamed.predictions, perm[base.predictions])
        assert renamed.accuracy == base.accuracy
        assert [renamed.per_class_accuracy[p] for p in perm] == (
            base.per_class_accuracy)
        assert renamed.objective_trace == base.objective_trace

    check()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_laplacian_lifts_accuracy_on_noisy_transductive_data(seed):
    """At noise 1.6 the class blobs overlap, and the hypergraph over the
    unlabeled columns is what separates them: the full model beats
    beta = 0 by a margin that noise 0.3, where both score 1.0, hides."""
    bundle = make_synthetic(10, 2, 8, 100, 1.6, seed)
    config = ExperimentConfig(mode="transductive", dict_size=20, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        full = run(config, bundle).accuracy
        flat = run(dataclasses.replace(config, beta=0.0), bundle).accuracy
    assert full - flat >= 0.2


# ---------------------------------------------------------------- suites


def test_ablation_suite_structure():
    bundle = small_bundle()
    result = ablation_suite(small_config(), bundle, seeds=[0, 1])
    assert result["seeds"] == [0, 1]
    assert set(result["ablations"]) == set(ABLATIONS)
    for name in ABLATIONS:
        reports = result["ablations"][name]
        assert len(reports) == 2
        for rep, seed in zip(reports, [0, 1]):
            assert rep["config"]["ablation"] == name
            assert rep["config"]["seed"] == seed
        want = float(np.mean([r["accuracy"] for r in reports]))
        assert result["mean_accuracy"][name] == want
    with pytest.raises(ParameterError):
        ablation_suite(small_config(), bundle, seeds=[])


def test_mask_sweep_structure_and_gap():
    bundle = small_bundle()
    result = mask_sweep(small_config(), bundle, fractions=[0.0, 0.25], seeds=[0])
    assert result["fractions"] == [0.0, 0.25]
    assert len(result["runs"]) == 2
    for row, fraction in zip(result["runs"], [0.0, 0.25]):
        assert row["fraction"] == fraction
        assert row["regularized"][0]["config"]["beta"] == 2.0
        assert row["baseline"][0]["config"]["beta"] == 0.0
        assert row["regularized"][0]["config"]["mask_fraction"] == fraction
    for i in range(2):
        want = (result["regularized_mean_accuracy"][i]
                - result["baseline_mean_accuracy"][i])
        assert result["gap"][i] == pytest.approx(want, abs=1e-12)
    with pytest.raises(ParameterError):
        mask_sweep(small_config(), bundle, fractions=[], seeds=[0])


def test_mask_sweep_validates_every_fraction_before_running(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before the last fraction was checked")

    monkeypatch.setattr(harness, "run", never)
    with pytest.raises(ParameterError, match="mask_fraction"):
        mask_sweep(small_config(), small_bundle(), fractions=[0.0, 0.2, 1.5],
                   seeds=[0])


# ---------------------------------------------------------------- cli


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    prefix = str(root / "toy")
    code = cli.main([
        "synth", "--out", prefix, "--classes", "3",
        "--per-class-train", "4", "--per-class-test", "3",
        "--dim", "8", "--noise-sigma", "0.2", "--seed", "5",
    ])
    assert code == 0
    return root, f"{prefix}_train.csv", f"{prefix}_test.csv"


COMMON = ["--knn", "3", "--dict-size", "8", "--beta", "2.0"]


def test_cli_train_writes_report(cli_data, capsys):
    root, train_csv, _ = cli_data
    out = str(root / "train_report.json")
    code = cli.main(["train", "--train", train_csv, "--out", out] + COMMON)
    assert code == 0
    payload = json.loads(open(out).read())
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert "train accuracy" in capsys.readouterr().out


def test_cli_eval_with_test_set(cli_data, capsys):
    root, train_csv, test_csv = cli_data
    out = str(root / "eval_report.json")
    code = cli.main([
        "eval", "--train", train_csv, "--test", test_csv, "--out", out,
    ] + COMMON)
    assert code == 0
    payload = json.loads(open(out).read())
    assert payload["config"]["mode"] == "inductive"
    assert "test accuracy" in capsys.readouterr().out


def test_cli_eval_is_train_with_a_test_set(cli_data, capsys):
    root, train_csv, test_csv = cli_data
    reports = {}
    for subcommand in ("train", "eval"):
        out = str(root / f"{subcommand}_with_test.json")
        code = cli.main([subcommand, "--train", train_csv, "--test",
                         test_csv, "--out", out] + COMMON)
        assert code == 0
        assert "test accuracy" in capsys.readouterr().out
        reports[subcommand] = json.loads(open(out).read())
        reports[subcommand].pop("wall_time_seconds")
    assert reports["train"] == reports["eval"]


def test_cli_ablate(cli_data):
    root, train_csv, test_csv = cli_data
    out = str(root / "ablate.json")
    code = cli.main([
        "ablate", "--train", train_csv, "--test", test_csv, "--out", out,
        "--seeds", "1",
    ] + COMMON)
    assert code == 0
    payload = json.loads(open(out).read())
    assert set(payload["mean_accuracy"]) == set(ABLATIONS)


def test_cli_mask_sweep(cli_data):
    root, train_csv, test_csv = cli_data
    out = str(root / "sweep.json")
    code = cli.main([
        "mask-sweep", "--train", train_csv, "--test", test_csv,
        "--out", out, "--fractions", "0,0.25", "--seeds", "1",
    ] + COMMON)
    assert code == 0
    payload = json.loads(open(out).read())
    assert len(payload["gap"]) == 2


def test_cli_export_laplacian(cli_data):
    root, train_csv, test_csv = cli_data
    out = str(root / "delta.binmat")
    code = cli.main([
        "export-laplacian", "--train", train_csv, "--test", test_csv,
        "--mode", "transductive", "--out", out,
    ] + COMMON)
    assert code == 0
    delta = load_binmat(out)
    assert delta.shape == (21, 21)  # 12 train + 9 test columns
    assert np.array_equal(delta, delta.T)


def test_cli_synth_binmat_sidecars(tmp_path):
    prefix = str(tmp_path / "bin")
    code = cli.main([
        "synth", "--out", prefix, "--classes", "2", "--per-class-train", "3",
        "--per-class-test", "2", "--dim", "5", "--noise-sigma", "0.1",
        "--format", "binmat",
    ])
    assert code == 0
    X = load_binmat(f"{prefix}_train.binmat")
    assert X.shape == (5, 6)
    labels = open(f"{prefix}_train.binmat.labels").read().split()
    assert labels == ["0", "0", "0", "1", "1", "1"]
    out = str(tmp_path / "report.json")
    code = cli.main([
        "eval", "--train", f"{prefix}_train.binmat",
        "--test", f"{prefix}_test.binmat", "--out", out,
        "--format", "binmat", "--knn", "2", "--dict-size", "6",
    ])
    assert code == 0


def test_cli_exit_code_2_on_bad_parameters(cli_data, capsys):
    root, train_csv, _ = cli_data
    out = str(root / "never.json")
    code = cli.main(["train", "--train", train_csv, "--out", out,
                     "--mask-fraction", "1.5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = cli.main(["train", "--train", train_csv, "--out", out,
                     "--knn", "0"])
    assert code == 2
    capsys.readouterr()
    # checked before the file is read
    code = cli.main(["train", "--train", str(root / "missing.csv"),
                     "--out", out, "--seed", "-2"])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_knn_too_large_names_the_flag(tmp_path, capsys):
    prefix = str(tmp_path / "six")
    assert cli.main([
        "synth", "--out", prefix, "--classes", "2", "--per-class-train", "3",
        "--per-class-test", "2", "--dim", "5", "--seed", "1",
    ]) == 0
    capsys.readouterr()
    code = cli.main(["train", "--train", f"{prefix}_train.csv",
                     "--out", str(tmp_path / "never.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--knn" in err and "hypergraph vertices (6), got 10" in err


@pytest.mark.parametrize("flags, message", [
    (["--classes", "0"], "(--classes) must be at least 2"),
    (["--per-class-train", "0"], "(--per-class-train) must be at least 1"),
    (["--per-class-test", "-1"], "(--per-class-test) must be nonnegative"),
    (["--dim", "0"], "(--dim) must be at least 1"),
    (["--noise-sigma", "-1"], "(--noise-sigma) must be a nonnegative real"),
    (["--classes", "100", "--dim", "2"],
     "in dimension 2; raise --dim or lower --classes"),
])
def test_cli_synth_range_errors_name_the_flag(tmp_path, capsys, flags,
                                              message):
    prefix = tmp_path / "never"
    code = cli.main(["synth", "--out", str(prefix), *flags])
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_exit_code_2_on_unknown_choice(cli_data):
    _, train_csv, _ = cli_data
    with pytest.raises(SystemExit) as err:
        cli.main(["train", "--train", train_csv, "--out", "x.json",
                  "--ablation", "bogus"])
    assert err.value.code == 2


def test_cli_exit_code_3_on_bad_input(cli_data, tmp_path, capsys):
    root, train_csv, _ = cli_data
    out = str(root / "never.json")
    code = cli.main(["train", "--train", str(tmp_path / "missing.csv"),
                     "--out", out])
    assert code == 3

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
    assert cli.main(["train", "--train", str(ragged), "--out", out]) == 3

    # parses as float nan, then fails the finiteness gate
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("f0,f1,label\nnan,2.0,0\n1.0,2.0,1\n")
    assert cli.main(["train", "--train", str(nan_csv), "--out", out]) == 3

    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("f0,f1\n1.0,2.0\n3.0,4.0\n")
    assert cli.main(["train", "--train", str(unlabeled), "--out", out]) == 3
    assert "labels required" in capsys.readouterr().err


@pytest.mark.parametrize("fmt, value", [("csv", np.nan),
                                        ("binmat", -np.inf)])
@pytest.mark.parametrize("subcommand", ["train", "export-laplacian"])
def test_cli_non_finite_features_exit_3_naming_the_file(
        cli_data, tmp_path, capsys, subcommand, fmt, value):
    _, train_csv, _ = cli_data
    X, y = load_csv(train_csv)
    X[2, 5] = value
    path = str(tmp_path / f"bad.{fmt}")
    if fmt == "csv":
        save_csv(path, X, y)
    else:
        save_binmat(path, X)
        save_labels(f"{path}.labels", y)
    code = cli.main([subcommand, "--train", path, "--format", fmt,
                     "--out", str(tmp_path / "never")] + COMMON)
    assert code == 3
    assert f"{path}: feature matrix contains non-finite entries" in (
        capsys.readouterr().err)


def test_cli_exit_code_4_on_numerical_failure(cli_data, monkeypatch, capsys):
    root, train_csv, _ = cli_data

    def blow_up(*args, **kwargs):
        raise NumericalError("manufactured instability")

    monkeypatch.setattr(cli, "run", blow_up)
    code = cli.main(["train", "--train", train_csv,
                     "--out", str(root / "never.json")])
    assert code == 4
    assert "manufactured instability" in capsys.readouterr().err


RUN_SUBCOMMANDS = ("train", "eval", "ablate", "mask-sweep",
                   "export-laplacian")


def parse(subcommand, *flags):
    argv = [subcommand, "--train", "t.csv", "--test", "s.csv",
            "--out", "o"] + list(flags)
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("subcommand", RUN_SUBCOMMANDS)
def test_cli_flags_left_out_keep_config_defaults(subcommand):
    assert cli._config(parse(subcommand)) == ExperimentConfig()


@pytest.mark.parametrize("subcommand", RUN_SUBCOMMANDS)
def test_cli_every_config_field_has_a_flag(subcommand):
    given = {
        "epsilon": ("--epsilon", "0.5", 0.5),
        "alpha": ("--alpha", "0.25", 0.25),
        "beta": ("--beta", "1.5", 1.5),
        "gamma": ("--gamma", "0.125", 0.125),
        "k_nn": ("--knn", "4", 4),
        "dict_size": ("--dict-size", "9", 9),
        "mode": ("--mode", "transductive", "transductive"),
        "ablation": ("--ablation", "lb-off", "lb-off"),
        "mask_fraction": ("--mask-fraction", "0.3", 0.3),
        "seed": ("--seed", "11", 11),
    }
    assert set(given) == {f.name for f in
                          dataclasses.fields(ExperimentConfig)}
    argv = [tok for flag, text, _ in given.values() for tok in (flag, text)]
    config = cli._config(parse(subcommand, *argv))
    defaults = ExperimentConfig()
    for name, (_, _, value) in given.items():
        assert getattr(config, name) == value != getattr(defaults, name)


def bits(matrix):
    return matrix.shape, np.ascontiguousarray(matrix).tobytes()


def test_cli_export_laplacian_is_the_one_train_uses(cli_data, monkeypatch):
    """export-laplacian F writes the Laplacian that train F regularizes
    with: run's masking with its per-stage seeds, on its corpus."""
    root, train_csv, test_csv = cli_data
    flags = COMMON + ["--mode", "transductive", "--mask-fraction", "0.25",
                      "--seed", "3"]
    inputs = ["--train", train_csv, "--test", test_csv]
    out = str(root / "masked.binmat")
    assert cli.main(["export-laplacian", "--out", out] + inputs + flags) == 0
    written = load_binmat(out)

    X_train, y_train = load_csv(train_csv)
    X_test, _ = load_csv(test_csv)
    X = np.hstack([
        apply_mask(X_train, 0.25, 3 + SEED_OFFSET_MASK_TRAIN),
        apply_mask(X_test, 0.25, 3 + SEED_OFFSET_MASK_TEST),
    ])
    labels = np.concatenate([y_train, np.full(X_test.shape[1], UNLABELED)])
    config = HypergraphConfig(
        admm=AdmmParams(epsilon=ExperimentConfig().epsilon), k_nn=3)
    assert bits(written) == bits(build_laplacian(X, labels, config))

    used = []

    def recording(*args, **kwargs):
        used.append(build_laplacian(*args, **kwargs))
        return used[-1]

    monkeypatch.setattr(dictlearn, "build_laplacian", recording)
    report = str(root / "masked.json")
    assert cli.main(["train", "--out", report] + inputs + flags) == 0
    assert len(used) == 1 and bits(used[0]) == bits(written)

    unmasked = str(root / "unmasked.binmat")
    assert cli.main(["export-laplacian", "--out", unmasked] + inputs
                    + COMMON + ["--mode", "transductive"]) == 0
    assert bits(load_binmat(unmasked)) != bits(written)


# any import of scipy, or of a module in it, raises ImportError
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import hgdl
from hgdl import cli
train, test, out = sys.argv[1:]
inputs = ["--train", train, "--test", test, "--knn", "3", "--dict-size", "8"]
codes = [
    cli.main(["export-laplacian", "--out", out, "--mode", "transductive"]
             + inputs),
    cli.main(["eval", "--out", out + ".json"] + inputs),
    cli.main(["eval", "--out", out + "-beta0.json", "--beta", "0"] + inputs),
]
assert codes == [0, 0, 0], codes
"""


def test_cli_runs_without_scipy(cli_data, tmp_path):
    """numpy is the only run-time dependency: with every scipy import
    blocked, hgdl imports, exports the transductive Laplacian and
    evaluates at the default beta and at beta = 0. The export is
    build_laplacian's bit for bit."""
    _, train_csv, test_csv = cli_data
    out = str(tmp_path / "laplacian.binmat")
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, train_csv, test_csv, out],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    for report in (out + ".json", out + "-beta0.json"):
        assert json.loads(open(report).read())["accuracy"] >= 0.0
    X_train, y_train = load_csv(train_csv)
    X_test, _ = load_csv(test_csv)
    labels = np.concatenate([y_train, np.full(X_test.shape[1], UNLABELED)])
    config = HypergraphConfig(
        admm=AdmmParams(epsilon=ExperimentConfig().epsilon), k_nn=3)
    want = build_laplacian(np.hstack([X_train, X_test]), labels, config)
    assert bits(load_binmat(out)) == bits(want)


def test_cli_export_laplacian_without_labels(cli_data, tmp_path):
    _, train_csv, test_csv = cli_data
    X_train, _ = load_csv(train_csv)
    X_test, _ = load_csv(test_csv)
    bare_train = str(tmp_path / "bare_train.csv")
    bare_test = str(tmp_path / "bare_test.csv")
    save_csv(bare_train, X_train)
    save_csv(bare_test, X_test)
    config = HypergraphConfig(
        admm=AdmmParams(epsilon=ExperimentConfig().epsilon), k_nn=3)
    for mode, X in (("inductive", X_train),
                    ("transductive", np.hstack([X_train, X_test]))):
        out = str(tmp_path / f"{mode}.binmat")
        assert cli.main([
            "export-laplacian", "--train", bare_train, "--test", bare_test,
            "--mode", mode, "--out", out] + COMMON) == 0
        assert bits(load_binmat(out)) == bits(build_laplacian(X, None, config))


@pytest.mark.parametrize("flag, value", [("--dict-size", "0"),
                                         ("--alpha", "-1"),
                                         ("--epsilon", "0")])
def test_cli_export_laplacian_validates_before_reading(tmp_path, capsys,
                                                       flag, value):
    out = tmp_path / "never.binmat"
    code = cli.main(["export-laplacian", "--train",
                     str(tmp_path / "missing.csv"), "--out", str(out),
                     flag, value])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["inductive", "transductive"])
def test_cli_export_laplacian_rejects_mismatched_test_dimension(
        cli_data, tmp_path, mode):
    _, train_csv, test_csv = cli_data
    X_test, y_test = load_csv(test_csv)
    narrow = str(tmp_path / "narrow_test.csv")
    save_csv(narrow, X_test[:-1], y_test)
    for subcommand in ("train", "export-laplacian"):
        assert cli.main([
            subcommand, "--train", train_csv, "--test", narrow, "--mode",
            mode, "--out", str(tmp_path / "never")] + COMMON) == 3


def test_cli_unlabeled_test_file_rejected_before_training(
        cli_data, tmp_path, monkeypatch, capsys):
    root, train_csv, test_csv = cli_data
    X_test, _ = load_csv(test_csv)
    bare_test = str(tmp_path / "bare_test.csv")
    save_csv(bare_test, X_test)

    def never(*args, **kwargs):
        raise AssertionError("trained on an unscorable test file")

    monkeypatch.setattr(cli, "run", never)
    code = cli.main(["eval", "--train", train_csv, "--test", bare_test,
                     "--out", str(root / "never.json")] + COMMON)
    assert code == 3
    assert f"{bare_test}: test labels required to score" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("subcommand, which", [("train", "train"),
                                               ("eval", "test")])
def test_cli_label_free_file_rejected_before_training(
        cli_data, tmp_path, monkeypatch, capsys, subcommand, which):
    """A label column that holds only UNLABELED is no label at all."""
    root, train_csv, test_csv = cli_data
    paths = {"train": train_csv, "test": test_csv}
    X, _ = load_csv(paths[which])
    paths[which] = str(tmp_path / f"label_free_{which}.csv")
    save_csv(paths[which], X, np.full(X.shape[1], UNLABELED))

    def never(*args, **kwargs):
        raise AssertionError("trained on a label-free file")

    monkeypatch.setattr(cli, "run", never)
    code = cli.main([subcommand, "--train", paths["train"], "--test",
                     paths["test"], "--out", str(root / "never.json")]
                    + COMMON)
    assert code == 3
    err = capsys.readouterr().err
    assert f"{paths[which]}: every label is {UNLABELED}" in err


def test_cli_eval_without_test_stops_in_the_parser(cli_data, monkeypatch,
                                                   capsys):
    root, train_csv, _ = cli_data

    def never(*args, **kwargs):
        raise AssertionError("eval ran without a test file")

    monkeypatch.setattr(cli, "run", never)
    with pytest.raises(SystemExit) as err:
        cli.main(["eval", "--train", train_csv,
                  "--out", str(root / "never.json")] + COMMON)
    assert err.value.code == 2
    assert "--test" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, flags, named", [
    ("mask-sweep", ["--fractions", "0,0.2,1.5"], "--fractions"),
    ("mask-sweep", ["--fractions", "-0.1"], "--fractions"),
    ("mask-sweep", ["--fractions", ","], "--fractions"),
    ("mask-sweep", ["--seeds", "0"], "--seeds"),
    ("ablate", ["--seeds", "0"], "--seeds"),
])
def test_cli_study_flags_checked_before_any_run(cli_data, monkeypatch, capsys,
                                                subcommand, flags, named):
    root, train_csv, test_csv = cli_data

    def never(*args, **kwargs):
        raise AssertionError(f"{subcommand} ran with a bad {named}")

    monkeypatch.setattr(harness, "run", never)
    code = cli.main([subcommand, "--train", train_csv, "--test", test_csv,
                     "--out", str(root / "never.json")] + flags + COMMON)
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["train", "ablate", "mask-sweep",
                                        "export-laplacian"])
def test_cli_transductive_without_test_exits_2_before_reading(
        tmp_path, monkeypatch, capsys, subcommand):
    def never(*args, **kwargs):
        raise AssertionError(f"{subcommand} ran without a test file")

    monkeypatch.setattr(harness, "run", never)
    monkeypatch.setattr(cli, "run", never)
    out = tmp_path / "never"
    code = cli.main([subcommand, "--train", str(tmp_path / "missing.csv"),
                     "--out", str(out), "--mode", "transductive"])
    assert code == 2
    assert "--test" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, shape", [
    ("train", (0, 6)),
    ("export-laplacian", (0, 6)),
    ("export-laplacian", (5, 0)),
])
def test_cli_binmat_without_features_or_samples_exits_3(tmp_path, capsys,
                                                       subcommand, shape):
    """A binmat matrix with no feature rows or no sample columns is
    malformed input, as the same shapes are in CSV."""
    rows, cols = shape
    train_path = str(tmp_path / "train.binmat")
    save_binmat(train_path, np.zeros(shape))
    if cols:
        save_labels(f"{train_path}.labels", np.arange(cols) % 2)
    test_path = str(tmp_path / "test.binmat")
    save_binmat(test_path, np.zeros((rows, 4)))
    save_labels(f"{test_path}.labels", np.arange(4) % 2)
    out = tmp_path / "never"
    code = cli.main([subcommand, "--train", train_path, "--test", test_path,
                     "--out", str(out), "--format", "binmat", "--knn", "2"])
    assert code == 3
    assert f"error: {train_path}: matrix has no" in capsys.readouterr().err
    assert not out.exists()
