"""Dataset ingestion, synthesis, masking and serialization.

Feature matrices are stored features-per-row inside the library
(columns are samples). On disk, CSV files hold one sample per row with
an optional final integer column named ``label``; the ``binmat`` format
is a little-endian binary container for one dense float64 matrix:

    bytes 0..3   magic b"SAHD"
    byte  4      version (0x01)
    bytes 5..12  rows, unsigned 64-bit little-endian
    bytes 13..20 cols, unsigned 64-bit little-endian
    bytes 21..   rows*cols float64 payload, column-major

binmat carries no labels; an optional sidecar file ``<path>.labels``
with one integer per line supplies them (-1 marks unlabeled).
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._native import kernels
from .errors import (FormatError, InputError, InternalError,
                     ParameterError, _integer)
from .hypergraph import UNLABELED

BINMAT_MAGIC = b"SAHD"
BINMAT_VERSION = 1
_HEADER_LEN = 21


@dataclass
class DatasetBundle:
    """Train/test split with labels; test parts may be absent.

    Feature matrices are (dim, n_samples); label vectors use -1 for
    unlabeled entries. Test classes must be a subset of train classes.
    """

    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray | None = None
    test_labels: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.train_features, dtype=float)
        y = np.asarray(self.train_labels)
        object.__setattr__(self, "train_features", X)
        object.__setattr__(self, "train_labels", y)
        if X.ndim != 2 or X.shape[1] < 1:
            raise ParameterError("train features must be 2-d and non-empty")
        if y.shape != (X.shape[1],):
            raise ParameterError("one training label per sample required")
        if not np.all(np.isfinite(X)):
            raise InputError("train features contain non-finite entries")
        if self.test_features is not None:
            Xt = np.asarray(self.test_features, dtype=float)
            object.__setattr__(self, "test_features", Xt)
            if Xt.ndim != 2 or Xt.shape[0] != X.shape[0]:
                raise InputError(
                    f"test feature dim {Xt.shape[0] if Xt.ndim == 2 else '?'}"
                    f" != train dim {X.shape[0]}"
                )
            if not np.all(np.isfinite(Xt)):
                raise InputError("test features contain non-finite entries")
            if self.test_labels is None:
                object.__setattr__(
                    self, "test_labels", np.full(Xt.shape[1], UNLABELED)
                )
            yt = np.asarray(self.test_labels)
            object.__setattr__(self, "test_labels", yt)
            if yt.shape != (Xt.shape[1],):
                raise ParameterError("one test label per sample required")
            train_classes = set(int(c) for c in y if c != UNLABELED)
            test_classes = set(int(c) for c in yt if c != UNLABELED)
            if not test_classes <= train_classes:
                raise InputError(
                    f"test classes {sorted(test_classes - train_classes)}"
                    " never appear in training data"
                )


# the fault statuses of hgdl_csv, as _kernels.c numbers them
_RAGGED, _NOT_A_NUMBER, _NOT_A_LABEL, _NOT_UTF8, _UNDECIDED = range(1, 6)


def _parse_label(token, line_num):
    """int(token) as a label; FormatError naming the line where int()
    rejects it or it lies outside int64."""
    try:
        value = int(token)
    except ValueError:
        raise FormatError(
            f"line {line_num}: label {token.strip()!r} is not an integer")
    if not -2**63 <= value < 2**63:
        raise FormatError(f"line {line_num}: label {token.strip()!r} is "
                          "outside the 64-bit integer range")
    return value


def _numeric(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv(path):
    """Read a samples-as-rows CSV into (features, labels).

    A header is assumed when the first row has any non-numeric cell; a
    final header column named ``label`` holds integer labels. Returns
    the (dim, n_samples) feature matrix and the label vector, or None in
    place of labels for feature-only files. The file is UTF-8 and is
    parsed in one call of the compiled hgdl_csv, which the README's
    "File formats" section describes; a number or label that float() or
    int() would read only through a non-ASCII character is refused.
    """
    data = Path(path).read_bytes()
    raw = np.frombuffer(data, dtype=np.uint8)
    # every cell but a file's last ends at a comma or a line end
    lines = 1 + sum(int(np.count_nonzero(raw == ord(end))) for end in "\n\r")
    values = np.empty(int(np.count_nonzero(raw == ord(","))) + lines)
    labels = np.empty(lines, dtype=np.int64)
    scratch = np.empty(2 * len(data) + 64, dtype=np.uint8)
    token = np.empty(len(data), dtype=np.uint8)
    info = np.empty(6, dtype=np.int64)

    def parse(header):
        status = kernels().hgdl_csv(len(data), raw, header, values.size,
                                    values, labels.size, labels, scratch,
                                    token, info)
        *counts, length = info.tolist()
        text = token[:length].tobytes().decode("utf-8", "backslashreplace")
        return status, *counts, text

    status, rows, width, has_labels, line, fields, text = parse(0)
    if status == _UNDECIDED and not _numeric(text):
        # a non-ASCII cell that float() rejects makes the first row a header
        status, rows, width, has_labels, line, fields, text = parse(1)
    if status == _RAGGED:
        raise FormatError(
            f"line {line}: expected {width} fields, got {fields}")
    if status == _NOT_UTF8:
        raise FormatError(f"line {line}: value '{text.strip()}' is not UTF-8")
    if status == _NOT_A_LABEL:
        _parse_label(text, line)  # returns where int() reads non-ASCII
    elif status == _NOT_A_NUMBER and not _numeric(text):
        raise FormatError(
            f"line {line}: non-numeric value {text.strip()!r}")
    if status in (_UNDECIDED, _NOT_A_NUMBER, _NOT_A_LABEL):
        raise FormatError(f"line {line}: numeric value {text!r} "
                          "is not ASCII")
    if status != 0:
        raise InternalError(f"hgdl_csv returned {status} on {path}")
    if rows == 0:
        empty = "no data rows" if width < 0 else "header but no data rows"
        raise FormatError(f"{path}: {empty}")
    dim = width - has_labels
    if dim < 1:
        raise FormatError(f"{path}: rows carry no feature columns")
    X = values[:rows * dim].reshape(rows, dim).T
    return X, (labels[:rows] if has_labels else None)


def save_csv(path, X, labels=None):
    """Write a (dim, n_samples) matrix as a samples-as-rows CSV."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ParameterError("X must be 2-d")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (X.shape[1],):
            raise ParameterError("one label per sample required")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"f{i}" for i in range(X.shape[0])]
        if labels is not None:
            header.append("label")
        writer.writerow(header)
        for j in range(X.shape[1]):
            row = [repr(float(v)) for v in X[:, j]]
            if labels is not None:
                row.append(str(int(labels[j])))
            writer.writerow(row)


def save_binmat(path, X):
    """Write one dense float64 matrix in the binmat container format."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ParameterError("X must be 2-d")
    rows, cols = X.shape
    with open(path, "wb") as fh:
        fh.write(BINMAT_MAGIC)
        fh.write(bytes([BINMAT_VERSION]))
        fh.write(struct.pack("<QQ", rows, cols))
        fh.write(np.asarray(X, dtype="<f8").tobytes(order="F"))


def load_binmat(path):
    """Read a binmat file back into a float64 matrix."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER_LEN or data[:4] != BINMAT_MAGIC:
        raise FormatError(f"{path}: not a binmat file")
    if data[4] != BINMAT_VERSION:
        raise FormatError(f"{path}: unsupported binmat version {data[4]}")
    rows, cols = struct.unpack_from("<QQ", data, 5)
    expected = _HEADER_LEN + rows * cols * 8
    if len(data) != expected:
        raise FormatError(
            f"{path}: payload is {len(data) - _HEADER_LEN} bytes,"
            f" expected {rows * cols * 8}"
        )
    flat = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=_HEADER_LEN)
    return flat.reshape((rows, cols), order="F").astype(float, copy=True)


def load_labels(path):
    """Read a sidecar label file: one integer per line, in UTF-8."""
    out = []
    for i, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            token = line.decode().strip()
        except UnicodeDecodeError:
            text = line.decode(errors="backslashreplace").strip()
            raise FormatError(f"line {i}: label '{text}' is not UTF-8")
        if token:
            out.append(_parse_label(token, i))
    if not out:
        raise FormatError(f"{path}: no labels")
    return np.asarray(out, dtype=int)


def save_labels(path, labels):
    with open(path, "w") as fh:
        for value in np.asarray(labels, dtype=int):
            fh.write(f"{int(value)}\n")


def load_features(path, fmt="csv"):
    """Load (features, labels-or-None) in either on-disk format.

    Like a CSV file, a binmat file must hold at least one feature row and
    one sample column; an empty matrix raises FormatError. A NaN or
    infinite feature value raises InputError naming the file.
    """
    if fmt == "csv":
        X, labels = load_csv(path)
    elif fmt == "binmat":
        X = load_binmat(path)
        if X.shape[0] < 1:
            raise FormatError(f"{path}: matrix has no feature rows")
        if X.shape[1] < 1:
            raise FormatError(f"{path}: matrix has no sample columns")
        sidecar = Path(f"{path}.labels")
        labels = load_labels(sidecar) if sidecar.exists() else None
        if labels is not None and labels.shape != (X.shape[1],):
            raise FormatError(
                f"{sidecar}: {labels.shape[0]} labels for {X.shape[1]} samples"
            )
    else:
        raise ParameterError(f"unknown format {fmt!r}")
    if not np.isfinite(X).all():
        raise InputError(f"{path}: feature matrix contains non-finite entries")
    return X, labels


def make_synthetic(n_classes, per_class_train, per_class_test, dim,
                   noise_sigma, seed):
    """Gaussian blobs around well-separated unit-sphere class centers.

    Centers are rejection-sampled until every pairwise angle reaches
    60 degrees (dot product <= 0.5); exhausting 10**4 draws raises
    ParameterError (dimension too small for the class count). Each
    sample is its center plus isotropic Gaussian noise whose expected
    Euclidean norm is noise_sigma (per-coordinate standard deviation
    noise_sigma/sqrt(dim)), so noise_sigma measures corruption relative
    to the unit-norm centers regardless of dim. Samples are grouped
    class-major. Deterministic for a fixed seed. The counts, dim and
    seed must be integers, and they and noise_sigma in range
    (ParameterError naming the flag).
    """
    n_classes = _integer(n_classes, "n_classes (--classes)")
    per_class_train = _integer(per_class_train,
                               "per_class_train (--per-class-train)")
    per_class_test = _integer(per_class_test,
                              "per_class_test (--per-class-test)")
    dim = _integer(dim, "dim (--dim)")
    seed = _integer(seed, "seed (--seed)")
    if n_classes < 2:
        raise ParameterError("n_classes (--classes) must be at least 2")
    if per_class_train < 1:
        raise ParameterError(
            "per_class_train (--per-class-train) must be at least 1")
    if per_class_test < 0:
        raise ParameterError(
            "per_class_test (--per-class-test) must be nonnegative")
    if dim < 1:
        raise ParameterError("dim (--dim) must be at least 1")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ParameterError(
            "noise_sigma (--noise-sigma) must be a nonnegative real")
    if seed < 0:
        raise ParameterError("seed (--seed) must be nonnegative")
    rng = np.random.default_rng(seed)
    centers = []
    tries = 0
    while len(centers) < n_classes:
        tries += 1
        if tries > 10_000:
            raise ParameterError(
                f"could not place {n_classes} centers with 60 degree"
                f" separation in dimension {dim}; raise --dim or lower"
                " --classes"
            )
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        if all(float(np.dot(v, c)) <= 0.5 for c in centers):
            centers.append(v)

    per_coordinate = noise_sigma / np.sqrt(dim)

    def _draw(per_class):
        blocks, labels = [], []
        for c, center in enumerate(centers):
            noise = rng.standard_normal((dim, per_class))
            blocks.append(center[:, None] + per_coordinate * noise)
            labels.extend([c] * per_class)
        return np.hstack(blocks), np.asarray(labels, dtype=int)

    X_train, y_train = _draw(per_class_train)
    if per_class_test > 0:
        X_test, y_test = _draw(per_class_test)
    else:
        X_test, y_test = None, None
    return DatasetBundle(X_train, y_train, X_test, y_test)


def apply_mask(X, fraction, seed):
    """Zero floor(fraction*dim) coordinates per sample, chosen per sample.

    fraction must lie in [0, 1); fraction 0 returns an unmodified copy.
    Deterministic for a fixed seed.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ParameterError("X must be 2-d")
    if not (0.0 <= fraction < 1.0):
        raise ParameterError("mask fraction must lie in [0, 1)")
    masked = X.copy()
    dim = X.shape[0]
    count = int(fraction * dim)
    if count == 0:
        return masked
    rng = np.random.default_rng(seed)
    for j in range(X.shape[1]):
        idx = rng.choice(dim, size=count, replace=False)
        masked[idx, j] = 0.0
    return masked
