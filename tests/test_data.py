"""CSV and binmat serialization, synthetic data, masking, bundles."""

import struct

import numpy as np
import pytest

from hgdl.data import (
    BINMAT_MAGIC,
    DatasetBundle,
    apply_mask,
    load_binmat,
    load_csv,
    load_features,
    load_labels,
    make_synthetic,
    save_binmat,
    save_csv,
    save_labels,
)
from hgdl.errors import FormatError, InputError, ParameterError
from hgdl.hypergraph import UNLABELED


# ---------------------------------------------------------------- csv


def test_csv_round_trip_with_labels(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(4, 9))
    labels = np.asarray([0, 1, 2, 0, 1, 2, 0, 1, 2])
    path = tmp_path / "data.csv"
    save_csv(path, X, labels)
    X2, labels2 = load_csv(path)
    assert np.array_equal(X, X2)  # repr() round-trips float64 exactly
    assert np.array_equal(labels, labels2)


def test_csv_round_trip_without_labels(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(3, 5))
    path = tmp_path / "feat.csv"
    save_csv(path, X)
    X2, labels = load_csv(path)
    assert np.array_equal(X, X2)
    assert labels is None


def test_csv_headerless(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.5,2.0\n-3.25,4.0\n\n")
    X, labels = load_csv(path)
    assert np.array_equal(X, np.asarray([[1.5, -3.25], [2.0, 4.0]]))
    assert labels is None


def test_csv_ragged_row_reports_line_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(FormatError, match="line 3"):
        load_csv(path)


def test_csv_non_numeric_value_reports_line_and_token(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1\n1.0,2.0\n1.0,oops\n")
    with pytest.raises(FormatError, match=r"line 3.*'oops'"):
        load_csv(path)


def test_csv_non_integer_label(tmp_path):
    path = tmp_path / "badlabel.csv"
    path.write_text("f0,label\n1.0,zero\n")
    with pytest.raises(FormatError, match="label"):
        load_csv(path)


def test_csv_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError, match="no data"):
        load_csv(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("f0,f1,label\n")
    with pytest.raises(FormatError, match="no data"):
        load_csv(header_only)


def test_csv_blank_lines_and_whitespace(tmp_path):
    path = tmp_path / "spaced.csv"
    path.write_text("f0, f1 ,label\n 1.0 ,2.0, 1 \n\n   \n3.0,4.0,0\n")
    X, labels = load_csv(path)
    assert np.array_equal(X, np.asarray([[1.0, 3.0], [2.0, 4.0]]))
    assert labels.tolist() == [1, 0]


# ---------------------------------------------------------------- binmat


def test_binmat_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(5, 8))
    path = tmp_path / "m.binmat"
    save_binmat(path, X)
    X2 = load_binmat(path)
    assert X2.dtype == np.float64
    assert np.array_equal(X, X2)


def test_binmat_single_cell_is_29_bytes(tmp_path):
    path = tmp_path / "one.binmat"
    save_binmat(path, np.asarray([[1.25]]))
    raw = path.read_bytes()
    assert len(raw) == 29  # 4 magic + 1 version + 16 dims + 8 payload
    assert raw[:4] == BINMAT_MAGIC
    assert raw[4] == 1
    assert struct.unpack_from("<QQ", raw, 5) == (1, 1)
    assert struct.unpack_from("<d", raw, 21)[0] == 1.25


def test_binmat_payload_is_column_major(tmp_path):
    # hand-assembled file: payload 1,2,3,4 must read back column-major
    path = tmp_path / "cm.binmat"
    raw = BINMAT_MAGIC + bytes([1]) + struct.pack("<QQ", 2, 2)
    raw += struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
    path.write_bytes(raw)
    X = load_binmat(path)
    assert np.array_equal(X, np.asarray([[1.0, 3.0], [2.0, 4.0]]))


def test_binmat_empty_matrix(tmp_path):
    path = tmp_path / "empty.binmat"
    save_binmat(path, np.zeros((3, 0)))
    X = load_binmat(path)
    assert X.shape == (3, 0)


def test_binmat_rejects_corruption(tmp_path):
    path = tmp_path / "m.binmat"
    save_binmat(path, np.ones((2, 3)))
    raw = path.read_bytes()

    truncated = tmp_path / "trunc.binmat"
    truncated.write_bytes(raw[:-5])
    with pytest.raises(FormatError, match="payload"):
        load_binmat(truncated)

    padded = tmp_path / "padded.binmat"
    padded.write_bytes(raw + b"\x00" * 4)
    with pytest.raises(FormatError, match="payload"):
        load_binmat(padded)

    wrong_magic = tmp_path / "magic.binmat"
    wrong_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(FormatError, match="not a binmat"):
        load_binmat(wrong_magic)

    wrong_version = tmp_path / "ver.binmat"
    wrong_version.write_bytes(raw[:4] + bytes([9]) + raw[5:])
    with pytest.raises(FormatError, match="version"):
        load_binmat(wrong_version)

    stub = tmp_path / "stub.binmat"
    stub.write_bytes(raw[:10])
    with pytest.raises(FormatError):
        load_binmat(stub)


# ---------------------------------------------------------------- sidecar labels


def test_labels_sidecar_round_trip(tmp_path):
    path = tmp_path / "y.labels"
    labels = np.asarray([0, 3, UNLABELED, 2])
    save_labels(path, labels)
    assert np.array_equal(load_labels(path), labels)


def test_load_features_binmat_with_sidecar(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(3, 4))
    path = tmp_path / "x.binmat"
    save_binmat(path, X)
    got, labels = load_features(path, fmt="binmat")
    assert labels is None
    save_labels(f"{path}.labels", np.asarray([0, 1, 1, 0]))
    got, labels = load_features(path, fmt="binmat")
    assert np.array_equal(got, X)
    assert labels.tolist() == [0, 1, 1, 0]


def test_load_features_sidecar_count_mismatch(tmp_path):
    X = np.zeros((2, 3))
    path = tmp_path / "x.binmat"
    save_binmat(path, X)
    save_labels(f"{path}.labels", np.asarray([0, 1]))
    with pytest.raises(FormatError, match="labels"):
        load_features(path, fmt="binmat")


def test_load_features_unknown_format(tmp_path):
    with pytest.raises(ParameterError):
        load_features(tmp_path / "x.csv", fmt="parquet")


# ---------------------------------------------------------------- synthetic


def test_synthetic_zero_noise_sits_on_centers():
    bundle = make_synthetic(3, 4, 2, dim=10, noise_sigma=0.0, seed=7)
    X, y = bundle.train_features, bundle.train_labels
    assert X.shape == (10, 12)
    assert y.tolist() == [0] * 4 + [1] * 4 + [2] * 4
    norms = np.linalg.norm(X, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # all samples of one class coincide, and test samples reuse the centers
    for c in range(3):
        cols = X[:, y == c]
        assert np.allclose(cols, cols[:, :1], atol=0)
        test_cols = bundle.test_features[:, bundle.test_labels == c]
        assert np.array_equal(test_cols[:, 0], cols[:, 0])


def test_synthetic_centers_are_separated():
    bundle = make_synthetic(5, 1, 0, dim=20, noise_sigma=0.0, seed=11)
    X = bundle.train_features
    for i in range(5):
        for j in range(i + 1, 5):
            assert float(X[:, i] @ X[:, j]) <= 0.5 + 1e-12
    assert bundle.test_features is None
    assert bundle.test_labels is None


def test_synthetic_noise_norm_calibration():
    bundle = make_synthetic(2, 400, 0, dim=200, noise_sigma=0.3, seed=13)
    X, y = bundle.train_features, bundle.train_labels
    deviations = []
    for c in (0, 1):
        cols = X[:, y == c]
        center = make_synthetic(2, 1, 0, dim=200, noise_sigma=0.0, seed=13)
        ref = center.train_features[:, c]
        deviations.extend(np.linalg.norm(cols - ref[:, None], axis=0).tolist())
    # chi distribution with 200 dof concentrates tightly around its scale
    assert np.mean(deviations) == pytest.approx(0.3, rel=0.05)


def test_synthetic_deterministic():
    a = make_synthetic(3, 5, 4, dim=12, noise_sigma=0.4, seed=21)
    b = make_synthetic(3, 5, 4, dim=12, noise_sigma=0.4, seed=21)
    c = make_synthetic(3, 5, 4, dim=12, noise_sigma=0.4, seed=22)
    assert np.array_equal(a.train_features, b.train_features)
    assert np.array_equal(a.test_features, b.test_features)
    assert not np.array_equal(a.train_features, c.train_features)


def test_synthetic_rejection_exhaustion():
    # 100 centers cannot keep 60 degree spacing on a 2-d circle
    with pytest.raises(ParameterError, match="separation"):
        make_synthetic(100, 1, 0, dim=2, noise_sigma=0.0, seed=0)


def test_synthetic_validation():
    with pytest.raises(ParameterError):
        make_synthetic(1, 5, 5, dim=10, noise_sigma=0.1, seed=0)
    with pytest.raises(ParameterError):
        make_synthetic(2, 0, 5, dim=10, noise_sigma=0.1, seed=0)
    with pytest.raises(ParameterError):
        make_synthetic(2, 5, 5, dim=0, noise_sigma=0.1, seed=0)
    with pytest.raises(ParameterError):
        make_synthetic(2, 5, 5, dim=10, noise_sigma=-0.5, seed=0)
    with pytest.raises(ParameterError, match="--seed"):
        make_synthetic(2, 5, 5, dim=10, noise_sigma=0.1, seed=-1)


@pytest.mark.parametrize("field, flag", [
    ("n_classes", "--classes"),
    ("per_class_train", "--per-class-train"),
    ("per_class_test", "--per-class-test"),
    ("dim", "--dim"),
    ("seed", "--seed"),
])
def test_synthetic_non_integer_sizes_name_the_flag(field, flag):
    """A float count, dimension or seed, even an integral one such as
    3.0, is a ParameterError naming its flag; numpy integers pass."""
    args = dict(n_classes=3, per_class_train=2, per_class_test=1, dim=8,
                noise_sigma=0.1, seed=1)
    want = make_synthetic(**args)
    for bad in (float(args[field]) + 0.5, float(args[field]), "3"):
        with pytest.raises(ParameterError, match=f"{flag}.*integer"):
            make_synthetic(**{**args, field: bad})
    got = make_synthetic(**{**args, field: np.int64(args[field])})
    assert np.array_equal(got.train_features, want.train_features)


# ---------------------------------------------------------------- masking


def test_mask_zero_fraction_is_identity_copy():
    X = np.ones((6, 4))
    out = apply_mask(X, 0.0, seed=0)
    assert np.array_equal(out, X)
    assert out is not X


def test_mask_exact_count_per_column():
    X = np.ones((10, 7))
    for fraction, count in ((0.5, 5), (0.59, 5), (0.31, 3)):
        out = apply_mask(X, fraction, seed=3)
        zeros = np.sum(out == 0.0, axis=0)
        assert zeros.tolist() == [count] * 7
    assert np.array_equal(X, np.ones((10, 7)))  # input untouched


def test_mask_deterministic():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(8, 6))
    assert np.array_equal(apply_mask(X, 0.4, seed=9), apply_mask(X, 0.4, seed=9))
    assert not np.array_equal(apply_mask(X, 0.4, seed=9), apply_mask(X, 0.4, seed=10))


def test_mask_validation():
    X = np.ones((4, 3))
    with pytest.raises(ParameterError):
        apply_mask(X, 1.0, seed=0)
    with pytest.raises(ParameterError):
        apply_mask(X, -0.1, seed=0)


# ---------------------------------------------------------------- bundles


def test_bundle_fills_missing_test_labels():
    bundle = DatasetBundle(np.ones((3, 2)), np.asarray([0, 1]),
                           np.ones((3, 4)), None)
    assert bundle.test_labels.tolist() == [UNLABELED] * 4


def test_bundle_validation():
    X = np.ones((3, 2))
    y = np.asarray([0, 1])
    with pytest.raises(InputError):
        DatasetBundle(X, y, np.ones((4, 2)), np.asarray([0, 1]))
    with pytest.raises(InputError):
        DatasetBundle(X, y, np.ones((3, 2)), np.asarray([0, 5]))
    with pytest.raises(ParameterError):
        DatasetBundle(X, np.asarray([0, 1, 2]))
    with pytest.raises(InputError):
        DatasetBundle(np.full((3, 2), np.inf), y)
