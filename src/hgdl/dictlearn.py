"""Dictionary learning regularized by a hypergraph Laplacian on the codes.

Minimizes

    ||X - D S||_F^2 + 2 alpha ||S||_1 + beta tr(L S^T S)

subject to unit-norm dictionary atoms, where L is the normalized
hypergraph Laplacian over the training columns. Training alternates
exact coordinate-descent updates of S with blockwise updates of D's
atoms, recording the objective each outer iteration. Held-out samples
are encoded on the frozen dictionary by the same exact scalar steps with
beta = 0, all columns in one call of a compiled kernel, and classified
by a ridge-fitted linear map on the labeled code columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._native import Bound, kernels, lasso_threads, one_blas_thread
from .errors import (
    InputError,
    InternalError,
    NumericalError,
    ParameterError,
    _integer,
)
from .hypergraph import UNLABELED, HypergraphConfig, Incidence, build_laplacian

# increase in the recorded objective tolerated before declaring a bug
MONOTONE_SLACK = 1e-9
# curvature below this is treated as zero and the coordinate is parked at 0
CURVATURE_FLOOR = 1e-12
# test encoding stops once the relative objective change falls below this
ENCODE_REL_TOL = 1e-8
# hgdl_lasso's status when max_sweeps ran out before its tol held
_ENCODE_CAPPED = -2

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
        self.n_atoms = _integer(self.n_atoms, "n_atoms (--dict-size)")
        self.max_outer_iter = _integer(self.max_outer_iter, "max_outer_iter")
        self.seed = _integer(self.seed, "seed (--seed)")
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
        if self.seed < 0:
            raise ParameterError("seed (--seed) must be nonnegative")


@dataclass
class Classifier:
    """Linear class-score map fitted by ridge regression on code columns.

    Row c of plane scores label c. classes lists, ascending, the labels
    that predict may return: those with a labeled training column. None
    stands for every row of plane.
    """

    plane: np.ndarray  # (n_classes, n_atoms)
    ridge: float
    classes: np.ndarray | None = None

    def __post_init__(self):
        self.classes = (np.arange(np.shape(self.plane)[0])
                        if self.classes is None else np.asarray(self.classes))


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


def _check_shapes(X, D, S=None):
    """The data matrix X, the dictionary D and, if given, the codes S
    must be 2-d, with D's rows matching X's and S of shape (atoms, n)."""
    for name, operand in (("data matrix", X), ("dictionary", D),
                          ("codes", S)):
        if operand is not None and operand.ndim != 2:
            raise ParameterError(
                f"the {name} must be 2-d, got {operand.ndim}-d")
    dim, n = X.shape
    if D.shape[0] != dim:
        raise ParameterError(f"dictionary rows {D.shape[0]} != feature dim {dim}")
    if S is not None and S.shape != (D.shape[1], n):
        raise ParameterError(
            f"codes must be {(D.shape[1], n)}, got {S.shape}"
        )


def _check_problem(X, D, S, delta, alpha, beta):
    """objective's and update_codes' checks: alpha and beta, a laplacian
    for beta > 0, the shapes, then L; returns _csr(L), or None."""
    for name, weight in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(weight) and weight >= 0):
            raise ParameterError(f"{name} must be a nonnegative real")
    if beta != 0.0 and delta is None:
        raise ParameterError("beta > 0 requires a laplacian")
    _check_shapes(X, D, S)
    return None if delta is None else _csr(delta, X.shape[1])


class _Laplacian(Incidence):
    """L after _csr's checks, held as the Incidence of L^T: its columns
    are L's rows, so indptr, indices and data are L's canonical CSR (each
    row's column indices strictly ascending), which objective, train's
    symmetry check and hgdl_sweep read as stored."""

    __slots__ = ()


def _csr(delta, n):
    """L as a _Laplacian over a canonical CSR, so that a dense L and any
    sparse form of it are read in the same order. A _Laplacian, checked
    when it was built, goes through as it is once its shape is (n, n):
    train checks L once, not in every sweep and objective. Anything else
    is converted and checked by _to_csr."""
    if not isinstance(delta, _Laplacian):
        return _to_csr(delta, n)
    _check_square(delta.shape, n)
    return delta


def _to_csr(delta, n):
    """The one conversion and check of L: Incidence.of(L^T), which stores
    a dense L's nonzeros and reads a sparse L (a scipy sparse array or
    matrix) through its transpose's tocsc(), sorted and summed on that
    copy, so a caller's matrix is never modified. Checks: (n, n), row
    and column indices inside that shape (ParameterError; a scipy matrix
    can keep an index past it, which would read past the arrays), every
    stored entry finite (InputError).
    """
    if not hasattr(delta, "tocsc"):
        delta = np.asarray(delta, dtype=float)
    _check_square(tuple(delta.shape), n)
    try:
        lap = _Laplacian.of(delta.T)
    except ParameterError:
        raise ParameterError(
            "laplacian has row or column indices outside its shape"
        ) from None
    if not np.isfinite(lap.data).all():
        raise InputError("laplacian contains non-finite entries")
    return lap


def _check_square(shape, n):
    if shape != (n, n):
        raise ParameterError(f"laplacian must be {(n, n)}, got {shape}")


def _is_symmetric(L):
    """np.allclose(L, L^T) on a _Laplacian's stored entries:
    |L_rc - L_cr| - 1e-5 |L_cr| <= 1e-8 for every pair, an entry that is
    not stored reading 0, so only the stored entries can break it."""
    n = L.shape[0]
    # r n + c for each stored L_rc, ascending: the CSR is canonical
    keys = L.edge_of_entries() * n + L.indices
    mirror_keys = L.indices * n + keys // n
    at = np.minimum(np.searchsorted(keys, mirror_keys), max(keys.size - 1, 0))
    mirror = np.where(keys[at] == mirror_keys, L.data[at], 0.0)
    # where L_cr is not stored, |L_rc| <= 1e-8 here also settles the pair
    # (c, r), |0 - L_rc| - 1e-5 |L_rc| <= 1e-8
    return bool(np.all(np.abs(L.data - mirror) - 1e-5 * np.abs(mirror)
                       <= 1e-8))


@one_blas_thread
def objective(X, D, S, delta, alpha, beta):
    """Objective value ||X - DS||_F^2 + 2 alpha ||S||_1 + beta tr(L S^T S).

    delta, the Laplacian L, is a dense ndarray or a scipy sparse array or
    matrix, and the manifold term reads it through its nonzeros as
    sum_n s_n . (L S^T)_n, L S^T coming from one call of the compiled
    kernel hgdl_csr_product (_kernels.c, built on first use). delta may
    be None when beta == 0; in that case
    the returned value is exactly the unregularized objective (the
    manifold term is skipped, not just multiplied by zero). The weights
    and L are checked as in update_codes.
    """
    X = np.asarray(X, dtype=float)
    D = np.asarray(D, dtype=float)
    state = _state(S)
    delta = _check_problem(X, D, state, delta, alpha, beta)
    return state.step(_evaluation, X.shape[0], delta, alpha, beta)(X, D)


def _evaluation(S, dim, delta, alpha, beta):
    """objective on the codes S as a function of (X, D), with its
    buffers; for beta > 0, L S^T is an (n, K) C-ordered array from
    _coupling on a C-ordered copy of S^T."""
    n_atoms, n = S.shape
    residual = np.empty((dim, n))
    magnitudes = np.empty_like(S)
    if beta != 0.0:
        codes, coupled = np.empty((2, n, n_atoms))
        product = _coupling(delta, codes, coupled)

    def evaluate(X, D):
        # X - D S, whatever X's layout, is C-ordered, as residual is
        np.matmul(D, S, out=residual)
        np.subtract(X, residual, out=residual)
        value = (np.sum(np.multiply(residual, residual, out=residual))
                 + 2.0 * alpha * np.sum(np.abs(S, out=magnitudes)))
        if beta != 0.0:
            np.copyto(codes, S.T)
            product()
            value = value + beta * np.sum(
                np.multiply(coupled, codes, out=coupled))
        return float(value)

    return evaluate


def _coupling(L, codes, out):
    """hgdl_csr_product bound to the _Laplacian L: each call writes
    L codes into out, both (n, K) C-ordered, each row summed from 0 over
    L's stored entries in order, as scipy's CSR product sums it."""
    n, n_atoms = codes.shape
    return Bound(kernels().hgdl_csr_product, n, n_atoms, L.indptr,
                 L.indices, L.data, codes, out)


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
        D[:, k] = _unit_atom(D[:, k], rng)
    return D


def _unit_atom(v, rng):
    """v divided by its norm, or, when that norm is at or below
    CURVATURE_FLOOR, a standard-normal draw from rng divided by its own."""
    norm = float(np.linalg.norm(v))
    if norm <= CURVATURE_FLOOR:
        v = rng.standard_normal(v.shape[0])
        norm = float(np.linalg.norm(v))
    return v / norm


@one_blas_thread
def update_codes(X, D, S, delta, alpha, beta):
    """One Gauss-Seidel sweep over all code entries, in place.

    Entries are visited sample-major (column n outer, atom k inner) and
    each is set to the exact scalar minimizer of the objective: a soft
    threshold at alpha divided by the curvature (D^T D)_kk + beta*L_nn.
    Curvature at or below the floor parks the entry at zero. Before S is
    touched, alpha and beta must be nonnegative reals (ParameterError),
    and S and L finite (InputError). A non-finite value in X or D, or an
    overflowing code, raises NumericalError where it first reaches a
    step. The sweep runs on a private C-ordered copy of the codes, and S
    is written back only when the whole sweep succeeded: a sweep that
    raises leaves S as the caller gave it, and S's memory layout does
    not change the result's bits.

    Both sweeps run in compiled kernels of _kernels.c, built on first
    use, so every sweep needs a C compiler. With beta == 0 the columns
    decouple, each a lasso problem of its own, and the sweep is one
    warm-started sweep of hgdl_lasso, the kernel that encode_test runs
    from zero codes. Every sample's running field, the linear term of
    every atom's scalar problem, comes from one BLAS product,
    (D^T X)^T - S^T G_off, G_off being D^T D with its diagonal zeroed;
    the kernel steps 16 columns at a time with the atoms in the outer
    loop, so a block shares each row of G_off while it is in cache.
    Each column still takes its steps in atom order, so the result is
    that of the sequential visiting order, and an error names the first
    failing step in that order. Where _native.lasso_threads gives two
    threads (two usable CPUs, numpy's BLAS held to one thread, and at
    least _native.LASSO_THREAD_WORK codes), the kernel starts a second
    thread for the sweep, which steps the second half of the blocks;
    the codes, and the error, are those of one thread, bit for bit.

    With beta > 0 the sweep runs in hgdl_sweep. Only column n changes
    while sample n's atoms are visited, and the coupling leaves out L_nn,
    so the coupling sum_{r != n} L_nr S_kr of sample n is read once per
    sample from L's row n. delta, the Laplacian L, is a dense ndarray or
    a scipy sparse array or matrix and reaches the kernel as _csr's
    canonical CSR, read as stored: in row n the entry in column n is L_nn
    and every other entry is coupled in. delta must be symmetric: the
    objective's coupling runs along L's column n, and a row stands in
    for it. Sample n's running field, the linear term of every atom's
    scalar problem, is formed once per sample from that coupling, D^T x_n
    and the off-diagonal part of D^T D times the sample's codes. A zero
    code is skipped there, which keeps every bit, unless D^T D holds a
    non-finite entry: its product with 0 is NaN, and reaches the field.
    A step reads its atom's entry of the field, and only a code that
    changes touches the field again, moving it by that atom's column of
    the off-diagonal D^T D (with beta == 0, by its row, from which that
    field was formed).

    numpy's BLAS runs on one thread while the call runs, as in every
    dictionary-learning call of this module (_native.one_blas_thread),
    so its products have the same bits whatever thread count the caller
    set.

    Each call forms D^T D and D^T X into buffers made for the codes and
    the sweep's copies beside them, and the kernel's arguments are
    converted and checked when those buffers are made:
    once per call here, once per train call when train passes its
    _TrainState as S. train's S is finite by construction and is not
    checked again.
    """
    X = np.asarray(X, dtype=float)
    D = np.asarray(D, dtype=float)
    trained = isinstance(S, _TrainState)  # float64 and finite already
    if not trained and (not isinstance(S, np.ndarray)
                        or S.dtype != np.float64):
        raise ParameterError("S must be a float64 ndarray (updated in place)")
    delta = _check_problem(X, D, S, delta, alpha, beta)
    if not trained and not np.isfinite(S).all():
        raise InputError("codes contain non-finite entries")
    _state(S).step(_code_sweep, delta, alpha, beta)(X, D)
    return S


def _code_sweep(S, delta, alpha, beta):
    """update_codes' sweep of the codes S as a function of (X, D), with
    its buffers and its kernel, hgdl_lasso for beta == 0 or hgdl_sweep,
    bound to them."""
    n_atoms, n = S.shape
    gram = np.empty((n_atoms, n_atoms))
    target = np.empty((n_atoms, n))
    gdiag = np.empty(n_atoms)

    if beta == 0.0:
        codes = np.empty((n_atoms, n))  # column n holds sample n's codes
        field = np.empty((n, n_atoms))  # row n holds sample n's field
        # one sweep with tol 0, which sums no objective: the kernel reads
        # neither ||x||^2 nor the sums' scratch
        run = Bound(kernels().hgdl_lasso, n, n_atoms, gram, gdiag, target,
                    np.empty(n), float(alpha), CURVATURE_FLOOR, 0.0, 1, codes,
                    field, np.empty((2, n)), np.zeros(1, dtype=np.int64),
                    np.zeros(1), lasso_threads(n, n_atoms))

        def sweep(X, D):
            # the kernel moves the field by rows of G_off, so it is
            # formed from rows too
            np.matmul(D.T, D, out=gram)
            np.copyto(gdiag, gram.diagonal())
            np.fill_diagonal(gram, 0.0)
            np.matmul(D.T, X, out=target)
            np.copyto(codes, S)
            np.matmul(codes.T, gram, out=field)
            np.subtract(target.T, field, out=field)
            failed = run()
            if failed >= 0:
                n_i, k = divmod(failed, n_atoms)
                raise NumericalError(
                    f"non-finite code update at atom {k}, sample {n_i}")
            S[...] = codes

        return sweep

    # a change of atom k's code moves the field by column k; taken as
    # columns, not rows, since D^T D need not be bitwise symmetric
    gram_cols = np.empty((n_atoms, n_atoms))
    target_rows = np.empty((n, n_atoms))
    codes = np.empty((n, n_atoms))  # row n holds sample n's codes
    run = Bound(kernels().hgdl_sweep, n, n_atoms, target_rows, gram_cols,
                gdiag, delta.indptr, delta.indices, delta.data, float(alpha),
                float(beta), CURVATURE_FLOOR, codes, np.empty(n_atoms),
                np.empty(n_atoms))

    def sweep(X, D):
        np.matmul(D.T, D, out=gram)
        np.matmul(D.T, X, out=target)
        np.copyto(gram_cols, gram.T)
        np.fill_diagonal(gram_cols, 0.0)
        np.copyto(gdiag, gram.diagonal())
        np.copyto(target_rows, target.T)
        np.copyto(codes, S.T)
        failed = run()
        if failed >= 0:
            n_i, k = divmod(failed, n_atoms)
            raise NumericalError(
                f"non-finite code update at atom {k}, sample {n_i}")
        S[...] = codes.T

    return sweep


@one_blas_thread
def update_dictionary(X, S, D, rng=None):
    """One blockwise sweep over dictionary atoms, in place.

    Atom k moves to the unit vector best explaining what the other atoms
    leave unexplained: the normalization of u = X S_k^T - D~ S S_k^T with
    atom k zeroed inside D~, computed as (X S^T)_k - D (S S^T)_k +
    D_k (S S^T)_kk. Atoms are visited in order, and each one sees the
    atoms already updated in this sweep. X S^T and S S^T are formed once
    per sweep with numpy, and the atom loop runs in the compiled kernel
    hgdl_dictionary (_kernels.c, built on first use, so every sweep needs
    a C compiler) on a private (K, dim) copy of D^T. A vanishing
    direction (dead atom) is reinitialized to a normalized random data
    column drawn from rng, with a warning, and the kernel resumes at the
    next atom. A non-finite norm raises NumericalError naming the atom.
    As in update_codes, D is written back only when the whole sweep
    succeeded: a sweep that raises leaves D as the caller gave it, and
    D's memory layout does not change the result's bits.
    """
    X = np.asarray(X, dtype=float)
    if not isinstance(D, np.ndarray) or D.dtype != np.float64:
        raise ParameterError("D must be a float64 ndarray (updated in place)")
    state = _state(S)
    _check_shapes(X, D, state)
    if rng is None:
        rng = np.random.default_rng(0)
    state.step(_dictionary_sweep, X.shape[0])(X, D, rng)
    return D


def _dictionary_sweep(S, dim):
    """update_dictionary's sweep on the codes S as a function of
    (X, D, rng), with its buffers and hgdl_dictionary bound to them from
    atom 0; the sweep resumes after a redrawn atom in a direct call."""
    n_atoms = S.shape[0]
    data_corr = np.empty((dim, n_atoms))  # X S^T
    code_gram = np.empty((n_atoms, n_atoms))  # S S^T
    atoms = np.empty((n_atoms, dim))  # row k holds atom k; never a view of D
    args = (data_corr, code_gram, CURVATURE_FLOOR, atoms, np.empty(dim))
    run = Bound(kernels().hgdl_dictionary, dim, n_atoms, 0, *args)

    def sweep(X, D, rng):
        np.matmul(X, S.T, out=data_corr)
        np.matmul(S, S.T, out=code_gram)
        np.copyto(atoms, D.T)
        k = run()
        while 0 <= k < n_atoms:
            warnings.warn(
                f"atom {k} went dead; reinitializing from a data column",
                RuntimeWarning,
            )
            atoms[k] = _unit_atom(X[:, int(rng.integers(X.shape[1]))], rng)
            k = kernels().hgdl_dictionary(dim, n_atoms, k + 1, *args)
        if k >= n_atoms:
            raise NumericalError(
                f"non-finite dictionary update at atom {k - n_atoms}")
        D[...] = atoms.T

    return sweep


class _TrainState:
    """Codes S with the buffers and bound kernels that steps on them
    reuse: train makes one per call and passes it where update_codes,
    update_dictionary and objective take S, whose shape it has.

    Each step's buffers, and its kernel arguments, converted and checked
    once by Bound, are made on the step's first call and kept while its
    problem (L, the weights, X's row count) repeats, as it does in every
    iteration of train. So an iteration allocates no buffer that a step
    writes and converts no kernel argument. X, D and S are read at every
    step, and S and D are written in place, so they stay the arrays that
    train's callback and result see. Only these steps write S, and they
    leave it finite or raise, so a state's S is not checked again.
    """

    __slots__ = ("S", "_steps")

    def __init__(self, S):
        self.S = S
        self._steps = {}

    @property
    def shape(self):
        return self.S.shape

    @property
    def ndim(self):
        return self.S.ndim

    def step(self, make, *problem):
        """make(S, *problem), made on the first call with this problem
        and reused while it repeats."""
        made = self._steps.get(make)
        if made is None or made[0] != problem:
            made = self._steps[make] = (problem, make(self.S, *problem))
        return made[1]


def _state(S):
    """S itself if it is a _TrainState, else a state for one step on
    np.asarray(S, dtype=float)."""
    if isinstance(S, _TrainState):
        return S
    return _TrainState(np.asarray(S, dtype=float))


@one_blas_thread
def train(X, delta, params: DictLearnParams, callback=None):
    """Alternate code and dictionary updates until the objective settles.

    delta, the Laplacian L, is a dense ndarray or a scipy sparse array or
    matrix, or None when params.beta == 0. _csr checks it and turns it
    once per call into a canonical CSR with the kernel's int64 indices,
    never modifying the caller's matrix. Every sweep and objective gets
    that _Laplacian, which they neither check nor convert again, and
    reads it through its nonzeros. train adds one O(nnz log nnz) check
    on the CSR arrays: L must be symmetric to np.allclose's tolerance
    (ParameterError).

    Every outer iteration calls update_codes, update_dictionary and
    objective once each, by their module names, on one _TrainState that
    stands for S: the kernel-layout copies of S and D, the buffers of
    D^T D, D^T X, X S^T, S S^T and L S^T, and the three kernels' bound
    arguments are made at each step's first call and reused in every
    later one, so an iteration allocates none of them and converts no
    kernel argument. The arithmetic is that of the public calls, bit for bit.

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
        delta = _csr(delta, X.shape[1])
        if not _is_symmetric(delta):
            raise ParameterError("laplacian must be symmetric")

    rng = np.random.default_rng(params.seed)
    D = init_dictionary(X, params.n_atoms, params.seed)
    S = np.zeros((params.n_atoms, X.shape[1]))
    state = _TrainState(S)
    trace = [objective(X, D, state, delta, params.alpha, params.beta)]
    if callback is not None:
        callback(0, D, S, trace[0])
    for it in range(1, params.max_outer_iter + 1):
        update_codes(X, D, state, delta, params.alpha, params.beta)
        update_dictionary(X, state, D, rng=rng)
        value = objective(X, D, state, delta, params.alpha, params.beta)
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


@one_blas_thread
def encode_test(Y, D, gamma, max_sweeps=500):
    """Code held-out columns on a frozen dictionary.

    Solves min_S ||Y - D S||_F^2 + 2 gamma ||S||_1 with the exact scalar
    steps of update_codes (no manifold coupling), in one call of the
    compiled kernel hgdl_lasso (_kernels.c, built on first use, so test
    encoding needs a C compiler), the kernel of update_codes' beta = 0
    sweep, from zero codes. D^T D and D^T Y are numpy products formed once
    per call, as update_codes forms them, and ||y||^2 is summed over
    ascending d. Each column keeps a running field, the linear terms of
    its atoms' scalar problems, which starts as D^T y and which only a
    code that changes moves. The columns are swept in lockstep, atoms in
    order within a column, so max_sweeps=1 gives the bits of one
    update_codes sweep from zero codes with alpha = gamma and beta = 0,
    and the sweeps stop once the relative change of the objective,
    summed over the columns from their fields, drops below
    ENCODE_REL_TOL. Where _native.lasso_threads gives two threads, as
    update_codes says, one second thread sweeps the second half of the
    blocks for the whole call, meeting the caller's after each sweep;
    each column's objective is kept apart and the sum is taken in
    column order, so the codes, the sweeps run and the warning are
    those of one thread. A call that reaches max_sweeps first keeps its
    last sweep's codes and emits one RuntimeWarning with the last
    relative change and the worst column's relative duality gap. A
    non-finite value in D, or an overflowing code, raises NumericalError
    naming the atom and sample where it first reaches a step.
    """
    Y = np.ascontiguousarray(Y, dtype=float)
    D = np.ascontiguousarray(D, dtype=float)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise ParameterError("Y must be 2-d with at least one column")
    if not (np.isfinite(gamma) and gamma > 0):
        raise ParameterError("gamma must be a positive real")
    max_sweeps = _integer(max_sweeps, "max_sweeps")
    if max_sweeps < 1:
        raise ParameterError("max_sweeps must be at least 1")
    if not np.all(np.isfinite(Y)):
        raise InputError("test matrix contains non-finite entries")
    _check_shapes(Y, D)
    n, n_atoms = Y.shape[1], D.shape[1]
    gram = D.T @ D
    gdiag = gram.diagonal().copy()
    np.fill_diagonal(gram, 0.0)
    target = D.T @ Y  # column n holds D^T y_n, as S holds its codes
    field = np.ascontiguousarray(target.T)  # row n holds sample n's field
    ysq = np.zeros(n)
    for row in Y:  # ascending d; numpy's sum of one column is pairwise
        ysq += row * row
    S = np.zeros((n_atoms, n))
    sweeps = np.zeros(1, dtype=np.int64)
    change = np.zeros(1)
    status = kernels().hgdl_lasso(
        n, n_atoms, gram, gdiag, target, ysq,
        float(gamma), CURVATURE_FLOOR, ENCODE_REL_TOL, max_sweeps, S,
        field, np.empty((2, n)), sweeps, change, lasso_threads(n, n_atoms),
    )
    del gram, target, field
    if status >= 0:
        n_i, k = divmod(status, n_atoms)
        raise NumericalError(f"non-finite code update at atom {k}, sample {n_i}")
    if status == _ENCODE_CAPPED:
        warnings.warn(
            f"test encoding hit max_sweeps ({max_sweeps}) with a relative "
            f"objective change of {change[0]:.3g} (ENCODE_REL_TOL "
            f"{ENCODE_REL_TOL:g}) and a worst relative duality gap of "
            f"{_worst_relative_gap(Y, D, S, gamma):.3g}; the codes keep "
            "their last sweep",
            RuntimeWarning,
        )
    return S


def _worst_relative_gap(Y, D, S, gamma):
    """The largest lasso duality gap over the columns, each relative to
    its primal value ||r||^2 + 2 gamma ||s||_1, r = y - D s, with the
    feasible dual point theta = r / max(1, ||D^T r||_inf / gamma), whose
    dual value is ||y||^2 - ||y - theta||^2. A column with primal value
    0 is solved exactly and has gap 0."""
    R = Y - D @ S
    theta = R / np.maximum(1.0, np.abs(D.T @ R).max(axis=0) / gamma)
    primal = np.sum(R * R, axis=0) + 2.0 * gamma * np.sum(np.abs(S), axis=0)
    dual = np.sum(Y * Y, axis=0) - np.sum((Y - theta) ** 2, axis=0)
    gap = np.divide(primal - dual, primal, out=np.zeros(primal.shape),
                    where=primal > 0)
    return float(gap.max())


def fit_classifier(S, labels, ridge=1e-3):
    """Ridge-regress one-hot class indicators onto the labeled code columns.

    Unlabeled columns (label UNLABELED) are ignored. Returns a Classifier
    whose plane solves min_B ||U - B S_l||_F^2 + ridge ||B||_F^2, with
    one row per label value 0..max; its classes are the labels present.
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
    return Classifier(plane=plane, ridge=float(ridge), classes=np.unique(y))


def predict(classifier: Classifier, codes):
    """Class with the largest score per column, among the classifier's
    classes; ties pick the lowest such class. A label without training
    columns has an all-zero plane row, so it would otherwise win
    whenever every real score is negative."""
    codes = np.asarray(codes, dtype=float)
    if codes.ndim != 2:
        raise ParameterError("codes must be 2-d (atoms x samples)")
    if codes.shape[0] != classifier.plane.shape[1]:
        raise ParameterError("code length does not match the classifier")
    classes = classifier.classes
    scores = classifier.plane @ codes
    return classes[np.argmax(scores[classes], axis=0)]


def corpus(X_train, train_labels, X_test, mode):
    """The columns the hypergraph and dictionary are built on, and their
    labels: the training columns, then in transductive mode the test
    columns as UNLABELED vertices. None train_labels stay None."""
    if X_test is not None and X_test.shape[0] != X_train.shape[0]:
        raise InputError("test feature dimension differs from train")
    if mode != TRANSDUCTIVE:
        return X_train, train_labels
    if X_test is None:
        raise ParameterError(
            "transductive mode (--mode) needs test features (--test)")
    if train_labels is not None:
        train_labels = np.concatenate(
            [train_labels, np.full(X_test.shape[1], UNLABELED)]
        )
    return np.hstack([X_train, X_test]), train_labels


@one_blas_thread
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

    The dictionary has min(params.n_atoms, corpus columns) atoms: an
    n_atoms above the corpus size trains the same dictionary as n_atoms
    equal to it, with no atom drawn twice from one column.
    """
    X_train = np.asarray(X_train, dtype=float)
    train_labels = np.asarray(train_labels)
    if X_train.ndim != 2 or train_labels.shape != (X_train.shape[1],):
        raise ParameterError("need one label per training column")
    if mode not in (INDUCTIVE, TRANSDUCTIVE):
        raise ParameterError(f"unknown mode {mode!r}")
    if X_test is not None:
        X_test = np.asarray(X_test, dtype=float)
        if X_test.ndim != 2:
            raise ParameterError("test features must be 2-d")

    n_train = X_train.shape[1]
    X, labels = corpus(X_train, train_labels, X_test, mode)
    params = replace(params, n_atoms=min(params.n_atoms, X.shape[1]))
    if params.beta == 0.0:
        delta = None
    else:
        # the dense L is freed here, before the first sweep
        delta = _csr(build_laplacian(X, labels, hypergraph_config),
                     X.shape[1])
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
