"""Dictionary learning regularized by a hypergraph Laplacian on the codes.

Minimizes

    ||X - D S||_F^2 + 2 alpha ||S||_1 + beta tr(L S^T S)

subject to unit-norm dictionary atoms, where L is the normalized
hypergraph Laplacian over the training columns. Training alternates
exact coordinate-descent updates of S with blockwise updates of D's
atoms, recording the objective each outer iteration. Held-out samples
are encoded on the frozen dictionary by the same coordinate descent with
beta = 0 and classified by a ridge-fitted linear map on the labeled code
columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy

from .errors import (
    InputError,
    InternalError,
    NumericalError,
    ParameterError,
)
from .hypergraph import UNLABELED, HypergraphConfig, build_laplacian

# increase in the recorded objective tolerated before declaring a bug
MONOTONE_SLACK = 1e-9
# curvature below this is treated as zero and the coordinate is parked at 0
CURVATURE_FLOOR = 1e-12

INDUCTIVE = "inductive"
TRANSDUCTIVE = "transductive"


@dataclass
class DictLearnParams:
    """Settings for the alternating minimization.

    gamma is the l1 weight used when encoding held-out samples and
    defaults to alpha. obj_tol stops the outer loop once the relative
    objective change falls below it; zero disables early stopping.
    """

    n_atoms: int
    alpha: float
    beta: float
    gamma: float | None = None
    max_outer_iter: int = 100
    obj_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ParameterError("n_atoms (--dict-size) must be at least 1")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ParameterError("alpha (--alpha) must be a positive real")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ParameterError("beta (--beta) must be a nonnegative real")
        if self.gamma is None:
            self.gamma = self.alpha
        elif not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ParameterError("gamma (--gamma) must be a positive real")
        if self.max_outer_iter < 1:
            raise ParameterError("max_outer_iter must be at least 1")
        if not (np.isfinite(self.obj_tol) and self.obj_tol >= 0):
            raise ParameterError("obj_tol must be a nonnegative real")


@dataclass
class Classifier:
    """Linear class-score map fitted by ridge regression on code columns."""

    plane: np.ndarray  # (n_classes, n_atoms)
    ridge: float


@dataclass
class TrainedModel:
    """Everything a pipeline run produces.

    train_codes covers the training columns; test_codes is None when no
    held-out samples were given. In transductive mode both come from one
    joint coding of the concatenated corpus.
    """

    dictionary: np.ndarray
    train_codes: np.ndarray
    test_codes: np.ndarray | None
    classifier: Classifier
    objective_trace: np.ndarray
    mode: str


def _check_shapes(X, D, S, delta):
    dim, n = X.shape
    if D.shape[0] != dim:
        raise ParameterError(f"dictionary rows {D.shape[0]} != feature dim {dim}")
    if S.shape != (D.shape[1], n):
        raise ParameterError(
            f"codes must be {(D.shape[1], n)}, got {S.shape}"
        )
    if delta is not None and delta.shape != (n, n):
        raise ParameterError(f"laplacian must be {(n, n)}, got {delta.shape}")


def objective(X, D, S, delta, alpha, beta):
    """Objective value ||X - DS||_F^2 + 2 alpha ||S||_1 + beta tr(L S^T S).

    delta may be None when beta == 0; in that case the returned value is
    exactly the unregularized objective (the manifold term is skipped,
    not just multiplied by zero).
    """
    X = np.asarray(X, dtype=float)
    D = np.asarray(D, dtype=float)
    S = np.asarray(S, dtype=float)
    if beta != 0.0 and delta is None:
        raise ParameterError("beta > 0 requires a laplacian")
    _check_shapes(X, D, S, delta)
    r = X - D @ S
    value = np.sum(r * r) + 2.0 * alpha * np.sum(np.abs(S))
    if beta != 0.0:
        value = value + beta * np.sum((S @ delta) * S)
    return float(value)


def init_dictionary(X, n_atoms, seed):
    """Unit-norm atoms sampled from X's columns.

    Sampling is without replacement while n_atoms <= n_samples, with
    replacement otherwise. Zero columns are replaced by unit-norm
    pseudorandom vectors drawn from the same seeded generator.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ParameterError("X must be 2-d with at least one column")
    if n_atoms < 1:
        raise ParameterError("n_atoms must be at least 1")
    rng = np.random.default_rng(seed)
    n = X.shape[1]
    idx = rng.choice(n, size=n_atoms, replace=n_atoms > n)
    D = X[:, idx].astype(float, copy=True)
    for k in range(n_atoms):
        norm = float(np.linalg.norm(D[:, k]))
        if norm <= CURVATURE_FLOOR:
            v = rng.standard_normal(X.shape[0])
            D[:, k] = v / np.linalg.norm(v)
        else:
            D[:, k] /= norm
    return D


def update_codes(X, D, S, delta, alpha, beta):
    """One Gauss-Seidel sweep over all code entries, in place.

    Entries are visited sample-major (column n outer, atom k inner) and
    each is set to the exact scalar minimizer of the objective: a soft
    threshold at alpha divided by the curvature (D^T D)_kk + beta*L_nn.
    Curvature at or below the floor parks the entry at zero. With
    beta == 0 the columns decouple, so the sweep runs row-vectorized;
    the result matches the sequential visiting order because no
    cross-column terms exist.

    With beta > 0 only column n changes while sample n's atoms are
    visited, and the coupling leaves out L_nn, so the coupling
    sum_{r != n} L_nr S_kr of sample n is read once per sample from the
    off-diagonal nonzeros of L's row n. delta must be symmetric: the
    objective's coupling runs along L's column n, and a row stands in
    for it. Sample n's running field, the linear term of every atom's
    scalar problem, is formed once per sample from that coupling, D^T x_n
    and the off-diagonal part of D^T D times the sample's codes. A step
    reads its atom's entry of the field, and only a code that changes
    touches the field again, with one BLAS axpy by that atom's column of
    the off-diagonal D^T D. The sweep works on a copy of the codes and
    writes S back at its end.
    """
    X = np.asarray(X, dtype=float)
    D = np.asarray(D, dtype=float)
    if not isinstance(S, np.ndarray) or S.dtype != np.float64:
        raise ParameterError("S must be a float64 ndarray (updated in place)")
    if beta != 0.0 and delta is None:
        raise ParameterError("beta > 0 requires a laplacian")
    _check_shapes(X, D, S, delta)

    gram = D.T @ D
    target = D.T @ X
    n_atoms, n = S.shape
    gdiag = np.ascontiguousarray(np.diag(gram))

    if beta == 0.0 or delta is None:
        for k in range(n_atoms):
            j_row = target[k] - gram[k] @ S + gdiag[k] * S[k]
            if not np.all(np.isfinite(j_row)):
                raise NumericalError(f"non-finite code update in atom row {k}")
            if gdiag[k] <= CURVATURE_FLOOR:
                S[k] = 0.0
            else:
                S[k] = (
                    np.maximum(j_row - alpha, 0.0) + np.minimum(j_row + alpha, 0.0)
                ) / gdiag[k]
        return S

    delta = np.asarray(delta, dtype=float)
    ldiag = np.diag(delta).tolist()
    off = sp.csr_array(delta - np.diag(ldiag))
    indptr, indices, values = off.indptr, off.indices, off.data
    gram_off = gram.copy()
    np.fill_diagonal(gram_off, 0.0)
    # a change of atom k's code moves the field by column k; taken as
    # columns, not rows, since D^T D need not be bitwise symmetric
    gram_cols = list(gram_off.T.copy())
    gdiag = gdiag.tolist()
    target_rows = target.T.copy()
    codes = S.T.copy()  # row n holds sample n's codes
    for n_i in range(n):
        lo, hi = indptr[n_i], indptr[n_i + 1]
        # field[k] is atom k's linear term j; the coupling is fixed for
        # the whole sample, the cross term moves with each changed code
        field = (
            target_rows[n_i]
            - beta * (values[lo:hi] @ codes[indices[lo:hi]])
            - gram_off @ codes[n_i]
        )
        beta_lnn = beta * ldiag[n_i]
        s = codes[n_i].tolist()
        for k in range(n_atoms):
            j = float(field[k])
            if not math.isfinite(j):
                raise NumericalError(
                    f"non-finite code update at atom {k}, sample {n_i}"
                )
            curvature = gdiag[k] + beta_lnn
            if curvature <= CURVATURE_FLOOR:
                new = 0.0
            elif j > alpha:
                new = (j - alpha) / curvature
            elif j < -alpha:
                new = (j + alpha) / curvature
            else:
                new = 0.0
            old = s[k]
            if new != old:
                field = daxpy(gram_cols[k], field, a=old - new)
                s[k] = new
        codes[n_i] = s
    S[...] = codes.T
    return S


def update_dictionary(X, S, D, rng=None):
    """One blockwise sweep over dictionary atoms, in place.

    Atom k moves to the unit vector best explaining what the other atoms
    leave unexplained: the normalization of u = X S_k^T - D~ S S_k^T with
    atom k zeroed inside D~. A vanishing direction (dead atom) is
    reinitialized to a normalized random data column with a warning.
    """
    X = np.asarray(X, dtype=float)
    if not isinstance(D, np.ndarray) or D.dtype != np.float64:
        raise ParameterError("D must be a float64 ndarray (updated in place)")
    S = np.asarray(S, dtype=float)
    _check_shapes(X, D, S, None)
    if rng is None:
        rng = np.random.default_rng(0)

    data_corr = X @ S.T  # (dim, n_atoms)
    code_gram = S @ S.T  # (n_atoms, n_atoms)
    for k in range(D.shape[1]):
        u = data_corr[:, k] - D @ code_gram[:, k] + D[:, k] * code_gram[k, k]
        norm = float(np.linalg.norm(u))
        if not np.isfinite(norm):
            raise NumericalError(f"non-finite dictionary update at atom {k}")
        if norm <= CURVATURE_FLOOR:
            warnings.warn(
                f"atom {k} went dead; reinitializing from a data column",
                RuntimeWarning,
            )
            col = X[:, int(rng.integers(X.shape[1]))]
            col_norm = float(np.linalg.norm(col))
            if col_norm <= CURVATURE_FLOOR:
                col = rng.standard_normal(X.shape[0])
                col_norm = float(np.linalg.norm(col))
            D[:, k] = col / col_norm
        else:
            D[:, k] = u / norm
    return D


def train(X, delta, params: DictLearnParams, callback=None):
    """Alternate code and dictionary updates until the objective settles.

    Returns (dictionary, codes, objective_trace). The trace holds the
    objective at initialization and after every outer iteration; any
    increase beyond MONOTONE_SLACK raises InternalError since both
    updates are exact blockwise minimizers. callback, if given, is
    invoked as callback(iteration, D, S, value) for every recorded trace
    entry (iteration 0 is the initial state).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ParameterError("X must be 2-d with at least one column")
    if not np.all(np.isfinite(X)):
        raise InputError("training matrix contains non-finite entries")
    if delta is not None:
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (X.shape[1], X.shape[1]):
            raise ParameterError("laplacian shape does not match X columns")
        if not np.allclose(delta, delta.T, atol=1e-8):
            raise ParameterError("laplacian must be symmetric")

    rng = np.random.default_rng(params.seed)
    D = init_dictionary(X, params.n_atoms, params.seed)
    S = np.zeros((params.n_atoms, X.shape[1]))
    trace = [objective(X, D, S, delta, params.alpha, params.beta)]
    if callback is not None:
        callback(0, D, S, trace[0])
    for it in range(1, params.max_outer_iter + 1):
        update_codes(X, D, S, delta, params.alpha, params.beta)
        update_dictionary(X, S, D, rng=rng)
        value = objective(X, D, S, delta, params.alpha, params.beta)
        previous = trace[-1]
        if value > previous + MONOTONE_SLACK:
            raise InternalError(
                f"objective rose from {previous!r} to {value!r} at iteration {it}"
            )
        trace.append(value)
        if callback is not None:
            callback(it, D, S, value)
        if abs(previous - value) < params.obj_tol * max(1.0, abs(previous)):
            break
    return D, S, np.asarray(trace)


def encode_test(Y, D, gamma, max_sweeps=500, rel_tol=1e-8):
    """Code held-out columns on a frozen dictionary.

    Solves min_S ||Y - D S||_F^2 + 2 gamma ||S||_1 with the same
    coordinate-descent sweeps as update_codes (no manifold coupling),
    stopping once the relative objective change drops below rel_tol.
    A call that reaches max_sweeps first keeps its last sweep's codes and
    emits one RuntimeWarning with the last relative change.
    """
    Y = np.asarray(Y, dtype=float)
    D = np.asarray(D, dtype=float)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise ParameterError("Y must be 2-d with at least one column")
    if not (np.isfinite(gamma) and gamma > 0):
        raise ParameterError("gamma must be a positive real")
    if max_sweeps < 1:
        raise ParameterError("max_sweeps must be at least 1")
    if not np.all(np.isfinite(Y)):
        raise InputError("test matrix contains non-finite entries")
    S = np.zeros((D.shape[1], Y.shape[1]))
    previous = objective(Y, D, S, None, gamma, 0.0)
    for _ in range(max_sweeps):
        update_codes(Y, D, S, None, gamma, 0.0)
        value = objective(Y, D, S, None, gamma, 0.0)
        change = abs(previous - value)
        scale = max(1.0, abs(previous))
        if change < rel_tol * scale:
            break
        previous = value
    else:
        warnings.warn(
            f"test encoding hit max_sweeps ({max_sweeps}) with a relative "
            f"objective change of {change / scale:.3g} (rel_tol {rel_tol:g});"
            " the codes keep their last sweep",
            RuntimeWarning,
        )
    return S


def fit_classifier(S, labels, ridge=1e-3):
    """Ridge-regress one-hot class indicators onto the labeled code columns.

    Unlabeled columns (label UNLABELED) are ignored. Returns a Classifier
    whose plane solves min_B ||U - B S_l||_F^2 + ridge ||B||_F^2.
    """
    S = np.asarray(S, dtype=float)
    labels = np.asarray(labels)
    if S.ndim != 2 or labels.shape != (S.shape[1],):
        raise ParameterError("need one label per code column")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InputError("labels must be integers")
    if not (np.isfinite(ridge) and ridge >= 0):
        raise ParameterError("ridge must be a nonnegative real")
    labeled = labels != UNLABELED
    if not labeled.any():
        raise ParameterError("at least one labeled column required")
    coded = S[:, labeled]
    y = labels[labeled].astype(int)
    if y.min() < 0:
        raise InputError("negative labels other than the UNLABELED sentinel")
    n_classes = int(y.max()) + 1
    onehot = np.zeros((n_classes, y.size))
    onehot[y, np.arange(y.size)] = 1.0
    system = coded @ coded.T + ridge * np.eye(S.shape[0])
    plane = np.linalg.solve(system, coded @ onehot.T).T
    return Classifier(plane=plane, ridge=float(ridge))


def predict(classifier: Classifier, codes):
    """Class with the largest score per column; ties pick the lowest index."""
    codes = np.asarray(codes, dtype=float)
    if codes.ndim != 2:
        raise ParameterError("codes must be 2-d (atoms x samples)")
    if codes.shape[0] != classifier.plane.shape[1]:
        raise ParameterError("code length does not match the classifier")
    scores = classifier.plane @ codes
    return np.argmax(scores, axis=0)


def corpus(X_train, train_labels, X_test, mode):
    """The columns the hypergraph and dictionary are built on, and their
    labels: the training columns, then in transductive mode the test
    columns as UNLABELED vertices. None train_labels stay None."""
    if X_test is not None and X_test.shape[0] != X_train.shape[0]:
        raise InputError("test feature dimension differs from train")
    if mode != TRANSDUCTIVE:
        return X_train, train_labels
    if X_test is None:
        raise ParameterError("transductive mode needs test features")
    if train_labels is not None:
        train_labels = np.concatenate(
            [train_labels, np.full(X_test.shape[1], UNLABELED)]
        )
    return np.hstack([X_train, X_test]), train_labels


def train_pipeline(X_train, train_labels, X_test=None, *,
                   hypergraph_config: HypergraphConfig,
                   params: DictLearnParams,
                   mode: str = INDUCTIVE) -> TrainedModel:
    """Hypergraph construction, dictionary training and classifier fit.

    Inductive mode builds the hypergraph and dictionary from the training
    columns only and codes X_test on the frozen dictionary. Transductive
    mode builds both from the concatenation of training and test columns
    (test columns enter the label modal as unlabeled) and takes the test
    codes straight from the joint coding. Test labels are never consumed
    here. When params.beta == 0 the hypergraph is skipped entirely.
    """
    X_train = np.asarray(X_train, dtype=float)
    train_labels = np.asarray(train_labels)
    if X_train.ndim != 2 or train_labels.shape != (X_train.shape[1],):
        raise ParameterError("need one label per training column")
    if mode not in (INDUCTIVE, TRANSDUCTIVE):
        raise ParameterError(f"unknown mode {mode!r}")
    if X_test is not None:
        X_test = np.asarray(X_test, dtype=float)
        if X_test.ndim != 2 or X_test.shape[0] != X_train.shape[0]:
            raise ParameterError("test features must match training dimension")

    n_train = X_train.shape[1]
    X, labels = corpus(X_train, train_labels, X_test, mode)
    if params.beta == 0.0:
        delta = None
    else:
        delta = build_laplacian(X, labels, hypergraph_config)
    D, S, trace = train(X, delta, params)

    if mode == TRANSDUCTIVE:
        train_codes = S[:, :n_train]
        test_codes = S[:, n_train:]
    else:
        train_codes = S
        test_codes = (
            encode_test(X_test, D, params.gamma) if X_test is not None else None
        )

    classifier = fit_classifier(train_codes, train_labels)
    return TrainedModel(
        dictionary=D,
        train_codes=train_codes,
        test_codes=test_codes,
        classifier=classifier,
        objective_trace=trace,
        mode=mode,
    )
