"""Coordinate-descent coding, blockwise dictionary updates, and training."""

import os
import re
import subprocess
import sys
import sysconfig
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from hgdl import _native, cli, dictlearn
from hgdl.dictlearn import (
    Classifier,
    DictLearnParams,
    INDUCTIVE,
    TRANSDUCTIVE,
    encode_test,
    fit_classifier,
    init_dictionary,
    objective,
    predict,
    train,
    train_pipeline,
    update_codes,
    update_dictionary,
)
from hgdl.attention import AdmmParams
from hgdl.data import make_synthetic, save_csv
from hgdl.errors import (
    InputError,
    InternalError,
    NumericalError,
    ParameterError,
)
from hgdl.hypergraph import (
    UNLABELED,
    HypergraphConfig,
    Incidence,
    build_laplacian,
)
from oracles import (
    atom_sweep,
    atom_sweep_floats,
    cd_lasso,
    encode_sweeps,
    golden_section,
    lasso_objective,
    lasso_sweep_floats,
    literal_manifold_penalty,
    random_hypergraph,
    row_sweep_beta0,
    scipy_degrees,
    scipy_incidence,
    scipy_laplacian,
    sweep_floats,
)


def _laplacian_of(H, W):
    """hgdl.hypergraph's Laplacian of (H, W), whose bits
    test_hypergraph.py holds to these oracles; taken from them, a test
    L needs no compiled kernel."""
    return scipy_laplacian(*scipy_degrees(scipy_incidence(H), W))


def _random_laplacian(rng, n):
    H, W = random_hypergraph(rng, n, max(2, n // 2))
    return _laplacian_of(H, W), (H, W)


def _normalized_columns(rng, dim, k):
    D = rng.normal(size=(dim, k))
    return D / np.linalg.norm(D, axis=0)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_sweep(X, D, S, delta, alpha, beta):
    """One sweep recomputing every influence term from scratch."""
    S = S.copy()
    G = D.T @ D
    T = D.T @ X
    n_atoms, n = S.shape
    for n_i in range(n):
        for k in range(n_atoms):
            old = S[k, n_i]
            coupling = float(delta[n_i] @ S[k]) - delta[n_i, n_i] * old
            cross = float(G[k] @ S[:, n_i]) - G[k, k] * old
            j = T[k, n_i] - beta * coupling - cross
            curv = G[k, k] + beta * delta[n_i, n_i]
            if curv <= 1e-12:
                new = 0.0
            elif j > alpha:
                new = (j - alpha) / curv
            elif j < -alpha:
                new = (j + alpha) / curv
            else:
                new = 0.0
            S[k, n_i] = new
    return S


# ---------------------------------------------------------------- objective


def test_objective_zero_codes_is_squared_norm():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 9))
    D = _normalized_columns(rng, 6, 4)
    S = np.zeros((4, 9))
    assert objective(X, D, S, None, 0.5, 0.0) == float(np.sum(X * X))


def test_objective_beta_zero_bitwise():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(5, 8))
    D = _normalized_columns(rng, 5, 6)
    S = rng.normal(size=(6, 8))
    alpha = 0.3
    r = X - D @ S
    want = float(np.sum(r * r) + 2.0 * alpha * np.sum(np.abs(S)))
    assert objective(X, D, S, None, alpha, 0.0) == want
    # a supplied laplacian must not perturb the beta == 0 value
    lap, _ = _random_laplacian(np.random.default_rng(4), 8)
    assert objective(X, D, S, lap, alpha, 0.0) == want


def test_objective_manifold_term_matches_literal_sum():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(4, 7))
    D = _normalized_columns(rng, 4, 5)
    S = rng.normal(size=(5, 7))
    lap, (H, W) = _random_laplacian(rng, 7)
    beta = 1.7
    gap = objective(X, D, S, lap, 0.2, beta) - objective(X, D, S, None, 0.2, 0.0)
    assert gap == pytest.approx(beta * literal_manifold_penalty(H, W, S), rel=1e-9)


def test_objective_validation():
    X = np.zeros((3, 4))
    D = np.eye(3)
    S = np.zeros((3, 4))
    with pytest.raises(ParameterError):
        objective(X, D, S, None, 0.1, 1.0)
    with pytest.raises(ParameterError):
        objective(X, D, np.zeros((2, 4)), None, 0.1, 0.0)


# ---------------------------------------------------------------- init


def test_init_dictionary_unit_norm_and_deterministic():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(7, 12))
    D1 = init_dictionary(X, 5, seed=42)
    D2 = init_dictionary(X, 5, seed=42)
    assert np.array_equal(D1, D2)
    assert np.allclose(np.linalg.norm(D1, axis=0), 1.0, atol=1e-12)
    assert not np.array_equal(D1, init_dictionary(X, 5, seed=43))
    # oversampling falls back to replacement
    D_big = init_dictionary(X, 20, seed=1)
    assert D_big.shape == (7, 20)
    assert np.allclose(np.linalg.norm(D_big, axis=0), 1.0, atol=1e-12)


def test_init_dictionary_replaces_zero_columns():
    X = np.zeros((5, 3))
    X[:, 1] = [1.0, 0, 0, 0, 0]
    D = init_dictionary(X, 3, seed=0)
    assert np.allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------- code update


def test_update_codes_orthonormal_closed_form():
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.normal(size=(10, 6)))
    X = rng.normal(size=(10, 9))
    alpha = 0.25
    S = np.zeros((6, 9))
    update_codes(X, Q, S, None, alpha, 0.0)
    t = Q.T @ X
    want = np.sign(t) * np.maximum(np.abs(t) - alpha, 0.0)
    assert np.allclose(S, want, atol=1e-10)


def test_update_codes_last_coordinate_is_exact_scalar_minimizer():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(8, 6))
    D = _normalized_columns(rng, 8, 5)
    lap, _ = _random_laplacian(rng, 6)
    alpha, beta = 0.1, 0.7
    S = rng.normal(size=(5, 6))
    update_codes(X, D, S, lap, alpha, beta)
    k, n_i = 4, 5  # visited last: everything it conditioned on is final
    center = S[k, n_i]

    def slice_objective(t):
        T = S.copy()
        T[k, n_i] = t
        return objective(X, D, T, lap, alpha, beta)

    best = golden_section(slice_objective, center - 0.5, center + 0.5)
    # golden section localizes a smooth minimum to ~sqrt(eps); the update
    # must land there and never lose to the oracle's point
    assert center == pytest.approx(best, abs=1e-6)
    assert slice_objective(center) <= slice_objective(best) + 1e-12


def test_update_codes_fixed_point_minimizes_every_coordinate():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(8, 6))
    D = _normalized_columns(rng, 8, 5)
    lap, _ = _random_laplacian(rng, 6)
    alpha, beta = 0.1, 0.7
    S = np.zeros((5, 6))
    for _ in range(400):
        before = S.copy()
        update_codes(X, D, S, lap, alpha, beta)
        if np.max(np.abs(S - before)) <= 1e-13:
            break
    for k in range(5):
        for n_i in range(6):
            center = S[k, n_i]

            def slice_objective(t, k=k, n_i=n_i):
                T = S.copy()
                T[k, n_i] = t
                return objective(X, D, T, lap, alpha, beta)

            best = golden_section(slice_objective, center - 0.5, center + 0.5)
            assert center == pytest.approx(best, abs=1e-6)


def test_update_codes_incremental_terms_match_reference_sweep():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    S0 = rng.normal(size=(4, 5))
    got = S0.copy()
    update_codes(X, D, got, lap, 0.15, 0.9)
    want = reference_sweep(X, D, S0, lap, 0.15, 0.9)
    assert np.allclose(got, want, atol=1e-8)


def test_update_codes_zero_coupling_matches_decoupled_path():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(7, 6))
    D = _normalized_columns(rng, 7, 5)
    S_plain = rng.normal(size=(5, 6))
    S_zero = S_plain.copy()
    update_codes(X, D, S_plain, None, 0.2, 0.0)
    update_codes(X, D, S_zero, np.zeros((6, 6)), 0.2, 1.0)
    assert np.allclose(S_plain, S_zero, atol=1e-10)


def test_update_codes_objective_never_increases():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(9, 8))
    D = _normalized_columns(rng, 9, 6)
    lap, _ = _random_laplacian(rng, 8)
    S = np.zeros((6, 8))
    previous = objective(X, D, S, lap, 0.1, 0.5)
    for _ in range(10):
        update_codes(X, D, S, lap, 0.1, 0.5)
        value = objective(X, D, S, lap, 0.1, 0.5)
        assert value <= previous + 1e-10
        previous = value


def test_update_codes_validation():
    X = np.zeros((3, 4))
    D = np.eye(3)
    with pytest.raises(ParameterError):
        update_codes(X, D, np.zeros((3, 4), dtype=np.float32), None, 0.1, 0.0)
    with pytest.raises(ParameterError):
        update_codes(X, D, np.zeros((3, 4)), None, 0.1, 2.0)


def _assert_sweeps_match_reference(X, D, S0, lap, alpha, beta, sweeps=3):
    got = S0.copy()
    want = S0.copy()
    for _ in range(sweeps):
        assert update_codes(X, D, got, lap, alpha, beta) is got
        want = reference_sweep(X, D, want, lap, alpha, beta)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


def test_update_codes_matches_reference_sweep_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        seed=st.integers(0, 2 ** 32 - 1),
        n_atoms=st.integers(1, 6),
        n=st.integers(1, 8),
        dim=st.integers(1, 8),
        density=st.sampled_from([0.2, 0.5, 1.0]),
        alpha=st.sampled_from([0.01, 0.1, 0.5]),
        beta=st.sampled_from([0.05, 1.0, 8.0]),
    )
    @hypothesis.example(seed=0, n_atoms=1, n=1, dim=1, density=1.0,
                        alpha=0.1, beta=1.0)
    @hypothesis.example(seed=1, n_atoms=1, n=6, dim=3, density=0.5,
                        alpha=0.01, beta=8.0)
    @hypothesis.example(seed=2, n_atoms=5, n=1, dim=4, density=0.5,
                        alpha=0.01, beta=8.0)
    def check(seed, n_atoms, n, dim, density, alpha, beta):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(dim, n))
        D = _normalized_columns(rng, dim, n_atoms)
        H, W = random_hypergraph(rng, n, max(1, n // 2), density)
        S0 = rng.normal(size=(n_atoms, n)) * (rng.random((n_atoms, n)) < 0.5)
        _assert_sweeps_match_reference(X, D, S0, _laplacian_of(H, W),
                                       alpha, beta)

    check()


def test_update_codes_isolated_vertex_matches_reference_sweep():
    """Vertex 0 sits alone in its own edge, so L's row 0 has no
    off-diagonal nonzero."""
    rng = np.random.default_rng(40)
    H_rest, W_rest = random_hypergraph(rng, 5, 3)
    H = np.zeros((6, 4))
    H[0, 0] = 0.7
    H[1:, 1:] = H_rest
    lap = _laplacian_of(H, np.concatenate([[1.3], W_rest]))
    assert not lap[0, 1:].any() and not lap[1:, 0].any()
    X = rng.normal(size=(7, 6))
    D = _normalized_columns(rng, 7, 4)
    _assert_sweeps_match_reference(X, D, rng.normal(size=(4, 6)), lap,
                                   0.1, 2.0)


def test_update_codes_zero_dictionary_column_matches_reference_sweep():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(6, 7))
    D = _normalized_columns(rng, 6, 4)
    D[:, 2] = 0.0  # curvature of atom 2 is beta * L_nn alone
    lap, _ = _random_laplacian(rng, 7)
    _assert_sweeps_match_reference(X, D, rng.normal(size=(4, 7)), lap,
                                   0.1, 0.8)


def test_update_codes_fused_graph_matches_reference_sweep():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(7, 24))
    labels = np.tile([0, 2, UNLABELED, 1, UNLABELED, 2], 4)
    config = HypergraphConfig(admm=AdmmParams(epsilon=2.0 ** -6), k_nn=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        lap = build_laplacian(X, labels, config)
    D = _normalized_columns(rng, 7, 5)
    _assert_sweeps_match_reference(X, D, np.zeros((5, 24)), lap, 2.0 ** -6,
                                   8.0)


@pytest.mark.parametrize("beta, message", [
    (0.9, "non-finite code update at atom 0, sample 2"),
    (0.0, "non-finite code update at atom 0, sample 2"),
])
def test_update_codes_non_finite_raises(beta, message):
    """A sweep that fails leaves S as the caller gave it."""
    rng = np.random.default_rng(43)
    X = rng.normal(size=(6, 5))
    X[3, 2] = np.nan
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    S = np.zeros((4, 5))
    with pytest.raises(NumericalError, match=message):
        update_codes(X, D, S, lap, 0.1, beta)
    assert _same_bits(S, np.zeros((4, 5)))


def test_update_codes_near_duplicate_atoms_do_not_drift_from_reference():
    """Twenty sweeps on a dictionary of near-duplicate atom pairs, as
    training makes them: rounding in the running field must not pile up
    across sweeps."""
    rng = np.random.default_rng(44)
    dim, n = 12, 30
    base = _normalized_columns(rng, dim, 20)
    twins = base + 0.01 * rng.normal(size=base.shape) / np.sqrt(dim)
    D = np.hstack([base, twins / np.linalg.norm(twins, axis=0)])
    coherence = np.abs(D.T @ D)[np.arange(20), np.arange(20, 40)]
    assert coherence.min() > 0.999
    X = rng.normal(size=(dim, n))
    labels = np.tile([0, UNLABELED, 1, 2, UNLABELED], 6)
    config = HypergraphConfig(admm=AdmmParams(epsilon=2.0 ** -6), k_nn=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        lap = build_laplacian(X, labels, config)
    _assert_sweeps_match_reference(X, D, np.zeros((40, n)), lap, 2.0 ** -6,
                                   8.0, sweeps=20)


@pytest.mark.parametrize("column", [0, 2])
def test_update_codes_non_finite_dictionary_raises(column):
    """A NaN atom reaches every atom's cross term through D^T D, even
    with all codes zero, so the sweep stops at its first step."""
    rng = np.random.default_rng(45)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    D[1, column] = np.nan
    lap, _ = _random_laplacian(rng, 5)
    for S in (rng.normal(size=(4, 5)), np.zeros((4, 5))):
        with pytest.raises(NumericalError,
                           match="non-finite code update at atom 0, sample 0"):
            update_codes(X, D, S, lap, 0.1, 0.9)


def _assert_sweeps_match_floats(X, D, S0, lap, alpha, beta, sweeps=3):
    """update_codes against sweep_floats bit for bit, sweep after sweep;
    the oracle skips no zero code, so this pins the kernel's skip as
    bit-neutral on whichever clone the machine runs."""
    got = S0.copy()
    want = S0.copy()
    for _ in range(sweeps):
        update_codes(X, D, got, lap, alpha, beta)
        want = sweep_floats(X, D, want, lap, alpha, beta)
        assert _same_bits(got, want)


def _sparse_codes(rng, shape, zero_fraction):
    return rng.normal(size=shape) * (rng.random(shape) >= zero_fraction)


@pytest.mark.parametrize("codes", ["half zero", "all zero", "negative zero"])
def test_update_codes_matches_sweep_floats_bitwise(codes):
    rng = np.random.default_rng(47)
    X = rng.normal(size=(7, 9))
    D = _normalized_columns(rng, 7, 6)
    lap, _ = _random_laplacian(rng, 9)
    S0 = {"half zero": _sparse_codes(rng, (6, 9), 0.5),
          "all zero": np.zeros((6, 9)),
          "negative zero": np.where(_sparse_codes(rng, (6, 9), 0.5) == 0.0,
                                    -0.0, rng.normal(size=(6, 9)))}[codes]
    _assert_sweeps_match_floats(X, D, S0, lap, 0.1, 0.9)


def test_update_codes_alpha_zero_matches_sweep_floats_bitwise():
    rng = np.random.default_rng(48)
    X = rng.normal(size=(5, 8))
    D = _normalized_columns(rng, 5, 7)
    lap, _ = _random_laplacian(rng, 8)
    _assert_sweeps_match_floats(X, D, _sparse_codes(rng, (7, 8), 0.5), lap,
                                0.0, 2.0)


def test_update_codes_zero_atom_matches_sweep_floats_bitwise():
    rng = np.random.default_rng(49)
    X = rng.normal(size=(6, 7))
    D = _normalized_columns(rng, 6, 5)
    D[:, 3] = 0.0
    lap, _ = _random_laplacian(rng, 7)
    _assert_sweeps_match_floats(X, D, _sparse_codes(rng, (5, 7), 0.5), lap,
                                0.1, 0.8)


def test_update_codes_isolated_vertex_matches_sweep_floats_bitwise():
    rng = np.random.default_rng(50)
    H_rest, W_rest = random_hypergraph(rng, 5, 3)
    H = np.zeros((6, 4))
    H[0, 0] = 0.7
    H[1:, 1:] = H_rest
    lap = _laplacian_of(H, np.concatenate([[1.3], W_rest]))
    assert not lap[0, 1:].any() and not lap[1:, 0].any()
    X = rng.normal(size=(7, 6))
    D = _normalized_columns(rng, 7, 4)
    _assert_sweeps_match_floats(X, D, _sparse_codes(rng, (4, 6), 0.5), lap,
                                0.1, 2.0)


def test_update_codes_stored_zeros_in_l_match_sweep_floats_bitwise():
    """Stored zeros, on and off the diagonal, are read like any entry."""
    rng = np.random.default_rng(51)
    lap, _ = _random_laplacian(rng, 8)
    L = sp.csr_array(lap)
    j = int(np.flatnonzero(lap[0, 1:])[0]) + 1
    for r, c in ((0, j), (j, 0), (2, 2)):
        row = slice(L.indptr[r], L.indptr[r + 1])
        L.data[row][L.indices[row] == c] = 0.0
    assert L.nnz == np.count_nonzero(lap)
    assert np.count_nonzero(L.data) == L.nnz - 3
    X = rng.normal(size=(6, 8))
    D = _normalized_columns(rng, 6, 5)
    _assert_sweeps_match_floats(X, D, _sparse_codes(rng, (5, 8), 0.5), L,
                                0.1, 0.9)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_update_codes_non_finite_atom_with_zero_codes_matches_sweep_floats(
        value):
    """inf * 0 is NaN, so a non-finite atom must reach every field entry
    through the zero codes too: no code is skipped for such a D, and the
    sweep stops at atom 0 of sample 0, with the oracle's message."""
    rng = np.random.default_rng(52)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    D[1, 2] = value
    lap, _ = _random_laplacian(rng, 5)
    S = np.zeros((4, 5))
    with pytest.raises(ArithmeticError) as oracle:
        sweep_floats(X, D, S, lap, 0.1, 0.9)
    assert str(oracle.value) == "non-finite code update at atom 0, sample 0"
    with pytest.raises(NumericalError, match=str(oracle.value)):
        update_codes(X, D, S, lap, 0.1, 0.9)
    assert _same_bits(S, np.zeros((4, 5)))


def test_update_codes_matches_sweep_floats_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        seed=st.integers(0, 2 ** 32 - 1),
        n_atoms=st.integers(1, 7),
        n=st.integers(1, 8),
        dim=st.integers(1, 8),
        density=st.sampled_from([0.2, 0.5, 1.0]),
        zero_fraction=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        alpha=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
        beta=st.sampled_from([0.05, 1.0, 8.0]),
    )
    def check(seed, n_atoms, n, dim, density, zero_fraction, alpha, beta):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(dim, n))
        D = rng.normal(size=(dim, n_atoms))
        H, W = random_hypergraph(rng, n, max(1, n // 2), density)
        S0 = _sparse_codes(rng, (n_atoms, n), zero_fraction)
        _assert_sweeps_match_floats(X, D, S0, _laplacian_of(H, W), alpha,
                                    beta, sweeps=2)

    check()


def test_update_codes_writes_through_a_strided_view():
    rng = np.random.default_rng(46)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    buffer = rng.normal(size=(4, 10))
    before = buffer.copy()
    S = buffer[:, ::2]
    want = reference_sweep(X, D, S, lap, 0.1, 0.9)
    assert update_codes(X, D, S, lap, 0.1, 0.9) is S
    np.testing.assert_allclose(buffer[:, ::2], want, rtol=0, atol=1e-8)
    np.testing.assert_array_equal(buffer[:, 1::2], before[:, 1::2])


def _strided(a):
    """a's values in a view that steps over every other element."""
    view = np.zeros(2 * a.size, dtype=a.dtype)[::2]
    view[...] = a
    return view


def test_update_codes_kernel_inputs_give_the_same_bits():
    """The compiled beta > 0 sweep takes int32 and int64 CSR indices, a
    CSR whose data or indices are strided views, and C-ordered,
    F-ordered and strided codes, to the same bits."""
    rng = np.random.default_rng(62)
    lap = _sparse_laplacian(rng, 12)
    X = rng.normal(size=(6, 12))
    D = _normalized_columns(rng, 6, 5)
    S0 = rng.normal(size=(5, 12)) * (rng.random((5, 12)) < 0.5)
    narrow = sp.csr_array(lap)
    wide = sp.csr_array(lap)
    wide.indices = wide.indices.astype(np.int64)
    wide.indptr = wide.indptr.astype(np.int64)
    assert narrow.indices.dtype == np.int32
    strided_data = sp.csr_array(lap)
    strided_data.data = _strided(strided_data.data)
    strided_narrow = sp.csr_array(lap)
    strided_narrow.indices = _strided(strided_narrow.indices)
    strided_wide = wide.copy()
    strided_wide.indices = _strided(strided_wide.indices)
    want = update_codes(X, D, S0.copy(), narrow, 0.1, 2.0)
    for lap_form in (wide, strided_data, strided_narrow, strided_wide):
        assert _same_bits(update_codes(X, D, S0.copy(), lap_form, 0.1, 2.0),
                          want)
    strided = np.zeros((5, 24))[:, ::2]
    strided[...] = S0
    for S in (np.asfortranarray(S0), strided):
        assert update_codes(X, D, S, narrow, 0.1, 2.0) is S
        assert _same_bits(S, want)


def _stored(dense, zeros):
    """dense with each (row, column) pair in zeros set to 0.0, as a
    canonical CSR that stores those zeros explicitly."""
    dense = dense.copy()
    keep = dense != 0
    for r, c in zeros:
        dense[r, c] = 0.0
        keep[r, c] = True
    lap = sp.csr_array((dense[keep], np.nonzero(keep)), shape=dense.shape)
    assert lap.has_canonical_format
    assert lap.nnz == np.count_nonzero(dense) + len(set(zeros))
    return lap


@pytest.mark.parametrize("zeros", [
    [(1, 4), (4, 1)],  # off the diagonal
    [(2, 2)],  # on the diagonal, so row 2 keeps no diagonal once eliminated
    [(0, 5), (5, 0), (3, 3), (7, 7)],  # both
])
def test_update_codes_stored_zeros_give_the_bits_of_eliminated_zeros(zeros):
    """The kernel reads L's CSR as stored, so an explicit 0.0 must act as
    an absent entry, on the diagonal and off it, and a row with no stored
    L_nn must take L_nn = 0, as the reference sweep does."""
    rng = np.random.default_rng(66)
    lap = _sparse_laplacian(rng, 9)
    X = rng.normal(size=(5, 9))
    D = _normalized_columns(rng, 5, 4)
    S0 = rng.normal(size=(4, 9)) * (rng.random((4, 9)) < 0.6)
    stored = _stored(lap, zeros)
    eliminated = stored.copy()
    eliminated.eliminate_zeros()
    assert eliminated.nnz == stored.nnz - len(zeros)
    got, want = S0.copy(), S0.copy()
    for _ in range(3):
        update_codes(X, D, got, stored, 0.05, 4.0)
        update_codes(X, D, want, eliminated, 0.05, 4.0)
        assert _same_bits(got, want)
    _assert_sweeps_match_reference(X, D, S0, stored.toarray(), 0.05, 4.0)


@pytest.mark.parametrize("form", [np.asarray, sp.csr_array])
@pytest.mark.parametrize("entry", [(4, 4), (1, 3)],
                         ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_laplacian_raises_before_touching_codes(value, entry,
                                                           form):
    """L is checked once, up front, on the diagonal and off it: the
    sweep raises InputError with S as the caller gave it, and objective
    raises too instead of returning a non-finite value."""
    rng = np.random.default_rng(68)
    lap, _ = _random_laplacian(rng, 6)
    lap[entry] = value
    X = rng.normal(size=(5, 6))
    D = _normalized_columns(rng, 5, 3)
    for S in (rng.normal(size=(3, 6)), np.zeros((3, 6))):
        before = S.copy()
        with pytest.raises(InputError, match="laplacian contains non-finite"):
            update_codes(X, D, S, form(lap), 0.1, 0.9)
        assert _same_bits(S, before)
        with pytest.raises(InputError, match="laplacian contains non-finite"):
            objective(X, D, S, form(lap), 0.1, 0.9)


@pytest.mark.parametrize("beta", [0.0, 0.9])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_update_codes_rejects_non_finite_codes_before_touching_them(value,
                                                                   beta):
    """Codes are checked once, up front, so the sweep never meets a
    stored 0.0 of L times an inf code."""
    rng = np.random.default_rng(69)
    lap, _ = _random_laplacian(rng, 6)
    X = rng.normal(size=(5, 6))
    D = _normalized_columns(rng, 5, 3)
    S = rng.normal(size=(3, 6))
    S[1, 3] = value
    before = S.copy()
    with pytest.raises(InputError, match="codes contain non-finite"):
        update_codes(X, D, S, lap, 0.1, beta)
    assert _same_bits(S, before)


def test_laplacian_indices_outside_its_shape_are_rejected():
    """scipy keeps a column index past the shape; reading through it
    gave objective a wrong value and train a segmentation fault."""
    bad = sp.csr_array((np.array([-0.5]), np.array([7]), np.array([0, 1, 1, 1])),
                       shape=(3, 3))
    X, D, S = np.ones((2, 3)), np.eye(2), np.zeros((2, 3))
    for call in (lambda: update_codes(X, D, S, bad, 0.1, 1.0),
                 lambda: objective(X, D, S, bad, 0.1, 1.0),
                 lambda: train(X, bad, DictLearnParams(n_atoms=2, alpha=0.1,
                                                       beta=1.0))):
        with pytest.raises(ParameterError, match="column indices"):
            call()
    assert _same_bits(S, np.zeros((2, 3)))


def test_a_csc_laplacian_with_a_row_index_past_its_shape_is_rejected():
    """L is read through its transpose, a csr here, and scipy's tocsc()
    of a csr writes through its unchecked column indices: the process
    crashed before any check of hgdl."""
    bad = sp.csc_array((np.array([-0.5]), np.array([10 ** 6]),
                        np.array([0, 1, 1, 1])), shape=(3, 3))
    X, D, S = np.ones((2, 3)), np.eye(2), np.zeros((2, 3))
    with pytest.raises(ParameterError, match="column indices"):
        objective(X, D, S, bad, 0.1, 1.0)
    assert bad.indices.tolist() == [10 ** 6]


@pytest.mark.parametrize("beta", [0.0, 0.9])
@pytest.mark.parametrize("alpha", [-0.1, np.nan, np.inf])
def test_update_codes_rejects_bad_alpha_before_touching_codes(alpha, beta):
    rng = np.random.default_rng(47)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    S = rng.normal(size=(4, 5))
    before = S.copy()
    with pytest.raises(ParameterError, match="alpha"):
        update_codes(X, D, S, lap, alpha, beta)
    assert np.array_equal(S, before)


@pytest.mark.parametrize("name", ["alpha", "beta"])
@pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
def test_bad_weights_are_rejected_by_name_before_touching_codes(bad, name):
    """A negative or non-finite alpha or beta is a ParameterError naming
    that weight, from update_codes and objective alike."""
    rng = np.random.default_rng(47)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    S = rng.normal(size=(4, 5))
    before = S.copy()
    weights = {"alpha": 0.1, "beta": 0.9, name: bad}
    for call in (update_codes, objective):
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            call(X, D, S, lap, **weights)
        assert _same_bits(S, before)


@pytest.mark.parametrize("beta", [0.0, 0.9])
def test_update_codes_accepts_zero_alpha(beta):
    rng = np.random.default_rng(48)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    S0 = rng.normal(size=(4, 5))
    _assert_sweeps_match_reference(X, D, S0, lap, 0.0, beta)


# the row loop forms each atom row's linear terms afresh from
# (D^T D)_k S, the kernel moves one running field per column that one
# BLAS product started; the codes of these tests differ by at most
# 1.4e-14 (K = 200, n = 400, codes up to 10 in magnitude)
ROW_LOOP_ATOL = 1e-12


def _assert_beta_zero_sweep(X, D, S, alpha):
    """update_codes(beta = 0) on S gives the bits of lasso_sweep_floats,
    and the row loop's codes within ROW_LOOP_ATOL."""
    want = lasso_sweep_floats(X, D, S, alpha)
    close = row_sweep_beta0(X, D, np.array(S), alpha)
    assert update_codes(X, D, S, None, alpha, 0.0) is S
    assert _same_bits(S, want)
    np.testing.assert_allclose(S, close, rtol=0, atol=ROW_LOOP_ATOL)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_beta_zero_sweeps_match_the_float_oracle_bitwise(seed):
    """Code sweeps alternating with dictionary sweeps, as train runs
    them, give the bits of the float oracle, and the codes of the
    row-by-row loop they replaced within ROW_LOOP_ATOL."""
    rng = np.random.default_rng(seed)
    dim, n, n_atoms = 9, 23, 7
    X = rng.normal(size=(dim, n))
    D = _normalized_columns(rng, dim, n_atoms)
    S = rng.normal(size=(n_atoms, n)) * (rng.random((n_atoms, n)) < 0.5)
    for _ in range(5):
        _assert_beta_zero_sweep(X, D, S, 0.05)
        update_dictionary(X, S, D, rng=np.random.default_rng(seed))


# the numpy atom loop sums D (S S^T)_k and ||u||^2 in BLAS's order, the
# kernel in ascending order; on these well-conditioned sweeps the unit
# atoms agree to this absolute tolerance
ATOM_LOOP_ATOL = 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dictionary_sweeps_match_the_float_oracle_bitwise(seed):
    """Dictionary sweeps alternating with code sweeps, as train runs
    them, give the bits of the atom loop in Python floats, and the numpy
    atom loop's atoms within ATOM_LOOP_ATOL."""
    rng = np.random.default_rng(seed)
    dim, n, n_atoms = 9, 23, 7
    X = rng.normal(size=(dim, n))
    D = _normalized_columns(rng, dim, n_atoms)
    S = rng.normal(size=(n_atoms, n)) * (rng.random((n_atoms, n)) < 0.5)
    for _ in range(5):
        update_codes(X, D, S, None, 0.05, 0.0)
        close = atom_sweep(X, S, D.copy(), np.random.default_rng(seed))
        want = atom_sweep_floats(X, S, D.copy(), np.random.default_rng(seed))
        assert update_dictionary(X, S, D, rng=np.random.default_rng(seed)) is D
        assert _same_bits(D, want)
        np.testing.assert_allclose(D, close, rtol=0, atol=ATOM_LOOP_ATOL)


@pytest.mark.parametrize("dim, n_atoms, n", [
    (5, 1, 7),     # one atom
    (3, 5, 4),     # fewer features than one block of the kernel
    (32, 4, 6),    # whole blocks
    (37, 3, 9),    # two blocks and five features left over
    (100, 60, 60),
])
def test_update_dictionary_matches_the_float_oracle_bitwise(dim, n_atoms, n):
    rng = np.random.default_rng(dim * n_atoms)
    X = rng.normal(size=(dim, n))
    D = _normalized_columns(rng, dim, n_atoms)
    S = rng.normal(size=(n_atoms, n)) * (rng.random((n_atoms, n)) < 0.5)
    want = atom_sweep_floats(X, S, D.copy(), np.random.default_rng(0))
    close = atom_sweep(X, S, D.copy(), np.random.default_rng(0))
    update_dictionary(X, S, D)
    assert _same_bits(D, want)
    np.testing.assert_allclose(D, close, rtol=0, atol=ATOM_LOOP_ATOL)


def test_beta_zero_sweep_parks_a_zero_column_bitwise():
    rng = np.random.default_rng(49)
    X = rng.normal(size=(6, 7))
    D = _normalized_columns(rng, 6, 4)
    D[:, 2] = 0.0
    S = rng.normal(size=(4, 7))
    _assert_beta_zero_sweep(X, D, S, 0.1)
    assert not S[2].any()


def test_beta_zero_sweep_through_a_strided_view_bitwise():
    """A strided or Fortran-ordered S gives the bits of the float oracle,
    which forms the fields from a contiguous copy; at K = 200, n = 400 a
    product with a strided S rounds differently, so the sweep must not
    read S in place."""
    rng = np.random.default_rng(50)
    for dim, n_atoms, n in ((6, 4, 5), (30, 200, 400)):
        X = rng.normal(size=(dim, n))
        D = _normalized_columns(rng, dim, n_atoms)
        buffer = rng.normal(size=(n_atoms, 2 * n))
        before = buffer.copy()
        for S in (buffer[:, ::2], np.asfortranarray(buffer[:, 1::2])):
            _assert_beta_zero_sweep(X, D, S, 0.1)
        assert _same_bits(buffer[:, 1::2], before[:, 1::2])


@pytest.mark.parametrize("n", [1, 15, 16, 17, 33])
def test_beta_zero_sweep_at_the_kernel_block_edges_bitwise(n):
    """The kernel steps 16 columns at a time; a partial block, one whole
    block, one column past it and two blocks and one give the oracle's
    bits, sweep after sweep."""
    rng = np.random.default_rng(52 + n)
    X = rng.normal(size=(8, n))
    D = _normalized_columns(rng, 8, 11)
    S = _sparse_codes(rng, (11, n), 0.5)
    for _ in range(3):
        _assert_beta_zero_sweep(X, D, S, 0.05)


def _failing_block():
    """(Y, D): six columns on a dictionary whose atoms 0 and 2 have
    curvature 9e-12, so a step on a linear term of 3e299 overflows.
    Column 3 overflows at atom 0 and column 1 at atom 2, later in a
    block that visits atoms in the outer loop, but first in
    sample-major order."""
    D = np.diag([3e-6, 1.0, 3e-6])
    Y = np.random.default_rng(53).normal(size=(3, 6))
    Y[:, 1] = [0.0, 0.0, 1e305]
    Y[:, 3] = [1e305, 0.0, 0.0]
    return Y, D


def test_beta_zero_sweep_reports_the_first_failure_in_sample_order():
    Y, D = _failing_block()
    S = np.zeros((3, 6))
    with np.errstate(over="ignore"):
        with pytest.raises(ArithmeticError) as want:
            lasso_sweep_floats(Y, D, S, 0.1)
        with pytest.raises(NumericalError) as got:
            update_codes(Y, D, S, None, 0.1, 0.0)
    assert str(got.value) == str(want.value) \
        == "non-finite code update at atom 2, sample 1"
    assert _same_bits(S, np.zeros((3, 6)))


def test_beta_zero_sweep_non_finite_later_atom_matches_the_float_oracle():
    """Atoms 1 and 2 coincide and are orthogonal to atom 0, so atom 0's
    step stays finite; atom 1's code moves from 1e308 to about -1e308,
    a change that overflows to inf and so makes atom 2's linear term
    inf. The sweep stops there, as the float oracle does, and S is left
    as given."""
    D = np.zeros((3, 3))
    D[0, 0] = D[1, 1] = D[1, 2] = 1.0
    X = np.random.default_rng(51).normal(size=(3, 4))
    S = np.zeros((3, 4))
    S[1:] = 1e308
    before = S.copy()
    with np.errstate(over="ignore"):
        with pytest.raises(ArithmeticError) as want:
            lasso_sweep_floats(X, D, S, 0.1)
        with pytest.raises(NumericalError,
                           match="non-finite code update at atom 2, "
                                 "sample 0") as got:
            update_codes(X, D, S, None, 0.1, 0.0)
    assert str(got.value) == str(want.value)
    assert _same_bits(S, before)


@pytest.mark.parametrize("beta, message", [
    (0.0, "non-finite code update at atom 0, sample 0"),
    (1.0, "non-finite code update at atom 0, sample 0"),
])
def test_update_codes_overflowing_code_raises(beta, message):
    """The linear term 3e299 and the curvature 9e-12 (plus 1e-13 from L)
    are finite, but their quotient overflows: the sweep raises instead
    of writing inf, and S is left as given."""
    D = np.array([[3e-6]])
    X = np.array([[1e305, 1.0]])
    S = np.zeros((1, 2))
    lap = 1e-13 * np.eye(2) if beta else None
    with np.errstate(over="ignore"), \
            pytest.raises(NumericalError, match=message):
        update_codes(X, D, S, lap, 0.1, beta)
    assert _same_bits(S, np.zeros((1, 2)))


def _dead_atom_problem(n):
    """Atom 1 gets no signal (zero codes); with n = 1 the one data column
    is zero, so its redraw is a normal vector."""
    rng = np.random.default_rng(52)
    X = rng.normal(size=(6, n)) if n > 1 else np.zeros((6, 1))
    D = _normalized_columns(rng, 6, 3)
    S = rng.normal(size=(3, n))
    S[1, :] = 0.0
    return X, S, D


def _sweep_warnings(sweep, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep(*args)
    return [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("n", [1, 8])
def test_update_dictionary_dead_atom_matches_atom_loop_bitwise(n):
    """A dead atom draws the same replacement from the same generator,
    with the same warning, as the atom loop in Python floats."""
    X, S, D = _dead_atom_problem(n)
    D_ref = D.copy()
    want = _sweep_warnings(atom_sweep_floats, X, S, D_ref,
                           np.random.default_rng(99))
    got = _sweep_warnings(update_dictionary, X, S, D,
                          np.random.default_rng(99))
    assert got == want
    assert [category for category, _ in got] == [RuntimeWarning]
    assert _same_bits(D, D_ref)


@pytest.mark.parametrize("n", [1, 8])
def test_update_dictionary_dead_atom_matches_the_numpy_atom_loop(n):
    X, S, D = _dead_atom_problem(n)
    D_ref = D.copy()
    want = _sweep_warnings(atom_sweep, X, S, D_ref, np.random.default_rng(99))
    got = _sweep_warnings(update_dictionary, X, S, D,
                          np.random.default_rng(99))
    assert got == want
    np.testing.assert_allclose(D, D_ref, rtol=0, atol=ATOM_LOOP_ATOL)


def test_update_dictionary_dead_atom_mid_sweep_reaches_later_atoms():
    """X s_1^T is atom 2 times s_1 . s_2 = 1, and s_1 . s_0 = 0, so atom
    1's direction cancels exactly; atom 2, visited after the redraw,
    reads it through s_1 . s_2, so two generators give two atom 2s."""
    X = np.array([[1.0, 1.0, 1.0, 0.0],
                  [2.0, 2.0, 0.0, -1.0],
                  [-2.0, -1.0, 2.0, 2.0]])
    S = np.array([[-1.0, -1.0, 0.0, 0.0],
                  [1.0, -1.0, 0.0, 1.0],
                  [1.0, 0.0, -1.0, 0.0]])
    D0 = np.array([[-1.0, -1.0, 0.0],
                   [0.0, -1.0, -1.0],
                   [-1.0, 1.0, 1.0]])
    swept = []
    for seed in (5, 6):
        D, D_ref = D0.copy(), D0.copy()
        want = _sweep_warnings(atom_sweep_floats, X, S, D_ref,
                               np.random.default_rng(seed))
        got = _sweep_warnings(update_dictionary, X, S, D,
                              np.random.default_rng(seed))
        assert got == want == [
            (RuntimeWarning,
             "atom 1 went dead; reinitializing from a data column")]
        assert _same_bits(D, D_ref)
        swept.append(D)
    assert _same_bits(swept[0][:, 0], swept[1][:, 0])
    assert not np.array_equal(swept[0][:, 1], swept[1][:, 1])
    assert not np.array_equal(swept[0][:, 2], swept[1][:, 2])


def test_update_dictionary_writes_through_a_strided_view():
    """A strided or Fortran-ordered D is updated in place with the bits
    of a contiguous copy, and the rest of its buffer is not touched."""
    rng = np.random.default_rng(53)
    X = rng.normal(size=(20, 9))
    S = rng.normal(size=(4, 9))
    buffer = rng.normal(size=(20, 8))
    before = buffer.copy()
    for D in (buffer[:, ::2], np.asfortranarray(buffer[:, 1::2])):
        want = atom_sweep_floats(X, S, D.copy(), np.random.default_rng(0))
        assert update_dictionary(X, S, D) is D
        assert _same_bits(D, want)
    assert _same_bits(buffer[:, 1::2], before[:, 1::2])


def test_update_dictionary_failed_sweep_leaves_d_as_given():
    """S S^T overflows in atom 1's diagonal, so atom 1's norm is not
    finite after atom 0 has moved; D keeps its bits, as in
    update_codes."""
    rng = np.random.default_rng(54)
    X = rng.normal(size=(4, 3))
    D = _normalized_columns(rng, 4, 2)
    S = np.array([[0.0, 1.0, 0.5], [1e200, 0.0, 0.0]])
    before = D.copy()
    with pytest.raises(ArithmeticError) as want:
        atom_sweep_floats(X, S, D.copy(), np.random.default_rng(0))
    with pytest.raises(NumericalError,
                       match="non-finite dictionary update at atom 1") as got:
        update_dictionary(X, S, D)
    assert str(got.value) == str(want.value)
    assert _same_bits(D, before)


@pytest.mark.parametrize("call, operand", [
    ("objective", "data matrix"),
    ("objective", "dictionary"),
    ("objective", "codes"),
    ("update_codes", "data matrix"),
    ("update_codes", "dictionary"),
    ("update_codes", "codes"),
    ("update_dictionary", "data matrix"),
    ("update_dictionary", "dictionary"),
    ("update_dictionary", "codes"),
    ("encode_test", "dictionary"),
])
def test_one_dimensional_operands_are_rejected_by_name(call, operand):
    """A 1-d operand is a ParameterError naming it, not a bare
    IndexError or unpacking error from its shape."""
    rng = np.random.default_rng(55)
    operands = {"data matrix": rng.normal(size=(4, 3)),
                "dictionary": _normalized_columns(rng, 4, 2),
                "codes": rng.normal(size=(2, 3))}
    operands[operand] = operands[operand][:, 0].copy()
    X, D, S = operands.values()
    calls = {
        "objective": lambda: objective(X, D, S, None, 0.1, 0.0),
        "update_codes": lambda: update_codes(X, D, S, None, 0.1, 0.0),
        "update_dictionary": lambda: update_dictionary(X, S, D),
        "encode_test": lambda: encode_test(X, D, 0.1),
    }
    with pytest.raises(ParameterError, match=f"the {operand} must be 2-d"):
        calls[call]()


# ---------------------------------------------------------------- kernel build


@pytest.fixture
def empty_build_cache(monkeypatch, tmp_path):
    """No compiled kernels loaded in the process, and an empty cache; the
    loaded handle comes back after the test."""
    monkeypatch.setattr(_native, "_library", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "hgdl"


def test_beta_sweep_without_a_compiler_is_an_internal_error(
        empty_build_cache, monkeypatch, tmp_path, capsys):
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(
        sysconfig, "get_config_var",
        lambda name: "hgdl-no-such-cc" if name == "CC" else config_var(name))
    rng = np.random.default_rng(63)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    S = rng.normal(size=(4, 5))
    before = S.copy()
    with pytest.raises(InternalError, match="hgdl-no-such-cc"):
        update_codes(X, D, S, lap, 0.1, 0.9)
    assert _same_bits(S, before)
    D_before = D.copy()
    with pytest.raises(InternalError, match="hgdl-no-such-cc"):
        update_dictionary(X, S, D)
    assert _same_bits(D, D_before)
    # the beta = 0 code sweep is compiled too
    with pytest.raises(InternalError, match="hgdl-no-such-cc"):
        update_codes(X, D, S, None, 0.1, 0.0)
    assert _same_bits(S, before)

    bundle = make_synthetic(3, 4, 3, 8, 0.2, 5)
    train_csv = str(tmp_path / "train.csv")
    save_csv(train_csv, bundle.train_features, bundle.train_labels)
    code = cli.main(["train", "--train", train_csv, "--out",
                     str(tmp_path / "never.json"), "--knn", "3",
                     "--dict-size", "8"])
    assert code == 4
    assert "hgdl-no-such-cc" in capsys.readouterr().err


def test_export_and_beta0_train_without_a_compiler_exit_4(
        empty_build_cache, monkeypatch, tmp_path, capsys):
    """The kNN search of export-laplacian and the dictionary sweep of
    every train need the compiled kernels: without a compiler both
    exit 4 and write nothing, a beta = 0 train too, with or without
    --test and in either mode."""
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(
        sysconfig, "get_config_var",
        lambda name: "hgdl-no-such-cc" if name == "CC" else config_var(name))
    bundle = make_synthetic(3, 4, 3, 8, 0.2, 5)
    paths = {part: str(tmp_path / f"{part}.csv") for part in ("train", "test")}
    save_csv(paths["train"], bundle.train_features, bundle.train_labels)
    save_csv(paths["test"], bundle.test_features, bundle.test_labels)
    binmat = tmp_path / "laplacian.binmat"
    code = cli.main(["export-laplacian", "--train", paths["train"],
                     "--test", paths["test"], "--out", str(binmat),
                     "--mode", "transductive", "--knn", "3",
                     "--dict-size", "8"])
    assert code == 4
    assert "hgdl-no-such-cc" in capsys.readouterr().err
    assert not binmat.exists()

    never = tmp_path / "never.json"
    for extra in ([], ["--test", paths["test"]],
                  ["--test", paths["test"], "--mode", "transductive"]):
        code = cli.main(["train", "--train", paths["train"], "--out",
                         str(never), "--knn", "3", "--dict-size", "8",
                         "--beta", "0", *extra])
        assert code == 4
        assert "hgdl-no-such-cc" in capsys.readouterr().err
        assert not never.exists()
    assert _native._library is None


def test_importing_hgdl_builds_and_loads_no_kernel(tmp_path):
    """Importing every module leaves the cache untouched and the library
    unloaded, so the import time does not include a build."""
    subprocess.run(
        [sys.executable, "-c",
         "import hgdl, hgdl.cli, hgdl._native; "
         "assert hgdl._native._library is None"],
        check=True,
        env={**os.environ, "XDG_CACHE_HOME": str(tmp_path),
             "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert list(tmp_path.iterdir()) == []


def test_beta_sweep_loads_a_warm_cache_without_the_compiler(
        empty_build_cache, monkeypatch):
    rng = np.random.default_rng(64)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    S0 = rng.normal(size=(4, 5))
    want = update_codes(X, D, S0.copy(), lap, 0.1, 0.9)
    assert empty_build_cache.stat().st_mode & 0o777 == 0o700
    assert len(list(empty_build_cache.iterdir())) == 1

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran on a warm cache")

    monkeypatch.setattr(_native, "_library", None)
    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert _same_bits(update_codes(X, D, S0.copy(), lap, 0.1, 0.9), want)


def test_beta_sweep_failed_build_leaves_nothing_in_the_cache(
        empty_build_cache, monkeypatch):
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(
        sysconfig, "get_config_var",
        lambda name: "false" if name == "CC" else config_var(name))
    rng = np.random.default_rng(65)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    with pytest.raises(InternalError, match="exited with"):
        update_codes(X, D, rng.normal(size=(4, 5)), lap, 0.1, 0.9)
    assert list(empty_build_cache.iterdir()) == []


def test_beta_sweep_unloadable_cached_kernel_is_an_internal_error(
        empty_build_cache, tmp_path, capsys):
    """A cached file that is not a loadable library, as one built for
    another machine would be, exits 4 and names the file. The build runs
    in another process: this one would find a library it loaded itself
    by its path and never read the file again."""
    subprocess.run(
        [sys.executable, "-c",
         "from hgdl._native import kernels; kernels()"],
        check=True,
        env={**os.environ, "XDG_CACHE_HOME": str(tmp_path),
             "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    (library,) = empty_build_cache.iterdir()
    library.write_bytes(b"not a shared library \x00\x01\x02")
    rng = np.random.default_rng(70)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    S = rng.normal(size=(4, 5))
    before = S.copy()
    with pytest.raises(InternalError, match=library.name):
        update_codes(X, D, S, lap, 0.1, 0.9)
    assert _same_bits(S, before)

    bundle = make_synthetic(3, 4, 3, 8, 0.2, 5)
    train_csv = str(tmp_path / "train.csv")
    save_csv(train_csv, bundle.train_features, bundle.train_labels)
    code = cli.main(["train", "--train", train_csv, "--out",
                     str(tmp_path / "never.json"), "--knn", "3",
                     "--dict-size", "8"])
    assert code == 4
    assert library.name in capsys.readouterr().err


def test_beta_sweep_cache_key_includes_the_platform(
        empty_build_cache, monkeypatch):
    """A cache shared by two platforms keeps one library for each."""
    rng = np.random.default_rng(71)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    S0 = rng.normal(size=(4, 5))
    want = update_codes(X, D, S0.copy(), lap, 0.1, 0.9)
    monkeypatch.setattr(_native, "_library", None)
    monkeypatch.setattr(sysconfig, "get_platform", lambda: "hgdl-other-arch")
    assert _same_bits(update_codes(X, D, S0.copy(), lap, 0.1, 0.9), want)
    assert len(list(empty_build_cache.iterdir())) == 2


def test_a_cache_keeps_the_library_of_each_source(
        empty_build_cache, monkeypatch, tmp_path):
    """Two sources built into one cache leave two libraries, and the
    first loads again with no compiler run: versions run in turn on one
    cache do not rebuild each other's kernels."""
    source = _native._SOURCE
    other = tmp_path / "_kernels.c"
    other.write_text(source.read_text() + "\n/* another source */\n")
    rng = np.random.default_rng(72)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    S0 = rng.normal(size=(4, 5))
    want = update_codes(X, D, S0.copy(), lap, 0.1, 0.9)
    (first,) = empty_build_cache.iterdir()
    monkeypatch.setattr(_native, "_library", None)
    monkeypatch.setattr(_native, "_SOURCE", other)
    assert _same_bits(update_codes(X, D, S0.copy(), lap, 0.1, 0.9), want)
    assert len(list(empty_build_cache.iterdir())) == 2

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran on a warm cache")

    monkeypatch.setattr(_native, "_library", None)
    monkeypatch.setattr(_native, "_SOURCE", source)
    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert _same_bits(update_codes(X, D, S0.copy(), lap, 0.1, 0.9), want)
    assert first.exists() and len(list(empty_build_cache.iterdir())) == 2


# ---------------------------------------------------------------- dictionary


def test_update_dictionary_single_atom_mean_direction():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(6, 10))
    S = np.ones((1, 10))
    D = _normalized_columns(rng, 6, 1)
    update_dictionary(X, S, D)
    v = X @ np.ones(10)
    assert np.allclose(D[:, 0], v / np.linalg.norm(v), atol=1e-12)


def test_update_dictionary_recovers_rank_one_direction():
    rng = np.random.default_rng(14)
    d_true = rng.normal(size=7)
    d_true /= np.linalg.norm(d_true)
    s = rng.random(9) + 0.5  # strictly positive codes
    X = np.outer(d_true, s)
    D = _normalized_columns(rng, 7, 1)
    update_dictionary(X, np.asarray(s)[None, :], D)
    assert np.allclose(D[:, 0], d_true, atol=1e-12)


def test_update_dictionary_unit_norms_and_residual_drop():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(8, 12))
    D = _normalized_columns(rng, 8, 5)
    S = rng.normal(size=(5, 12))
    before = float(np.sum((X - D @ S) ** 2))
    update_dictionary(X, S, D)
    after = float(np.sum((X - D @ S) ** 2))
    assert np.allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)
    assert after <= before + 1e-10


def test_update_dictionary_dead_atom_reinit_warns():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(6, 8))
    D = _normalized_columns(rng, 6, 3)
    S = rng.normal(size=(3, 8))
    S[1, :] = 0.0  # atom 1 explains nothing and receives no signal
    with pytest.warns(RuntimeWarning, match="dead"):
        update_dictionary(X, S, D, rng=np.random.default_rng(99))
    assert np.allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------- training


def test_train_trace_monotone_and_callback_consistent():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(8, 14))
    lap, _ = _random_laplacian(rng, 14)
    params = DictLearnParams(n_atoms=6, alpha=0.1, beta=0.8, max_outer_iter=25,
                             obj_tol=0.0, seed=3)
    seen = []

    def snoop(iteration, D, S, value):
        # the callback sees live buffers: recomputing must reproduce value
        assert objective(X, D, S, lap, params.alpha, params.beta) == value
        seen.append((iteration, value))

    D, S, trace = train(X, lap, params, callback=snoop)
    assert len(trace) == 26
    assert [i for i, _ in seen] == list(range(26))
    assert np.array_equal(np.asarray([v for _, v in seen]), trace)
    assert np.all(np.diff(trace) <= 1e-9)
    assert D.shape == (8, 6)
    assert S.shape == (6, 14)


def test_train_early_stop_on_objective_plateau():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(6, 10))
    params = DictLearnParams(n_atoms=4, alpha=0.2, beta=0.0,
                             max_outer_iter=100, obj_tol=1e-4, seed=0)
    _, _, trace = train(X, None, params)
    assert len(trace) < 101


def test_train_self_representation_drives_residual_down():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(8, 12))
    params = DictLearnParams(n_atoms=12, alpha=1e-6, beta=0.0,
                             max_outer_iter=60, obj_tol=0.0, seed=1)
    D, S, _ = train(X, None, params)
    residual = float(np.sum((X - D @ S) ** 2))
    assert residual / float(np.sum(X * X)) <= 1e-3


def test_train_monotone_for_both_l1_weights():
    rng = np.random.default_rng(20)
    X = rng.normal(size=(7, 11))
    lap, _ = _random_laplacian(rng, 11)
    for alpha in (0.05, 0.1):
        params = DictLearnParams(n_atoms=5, alpha=alpha, beta=0.5,
                                 max_outer_iter=30, obj_tol=0.0, seed=2)
        _, _, trace = train(X, lap, params)
        assert np.all(np.diff(trace) <= 1e-9)


def test_train_validation():
    X = np.zeros((4, 6))
    X[0, 0] = np.nan
    params = DictLearnParams(n_atoms=3, alpha=0.1, beta=0.0)
    with pytest.raises(InputError):
        train(X, None, params)
    Y = np.random.default_rng(0).normal(size=(4, 6))
    skew = np.triu(np.ones((6, 6)), 1)
    with pytest.raises(ParameterError):
        train(Y, skew, DictLearnParams(n_atoms=3, alpha=0.1, beta=1.0))
    with pytest.raises(ParameterError):
        train(Y, np.eye(5), DictLearnParams(n_atoms=3, alpha=0.1, beta=1.0))


def _count_calls(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        inner = getattr(dictlearn, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(dictlearn, name, counted)
    return counts


def test_train_runs_one_code_and_one_dictionary_sweep_per_iteration(
        monkeypatch):
    """T outer iterations call update_codes and update_dictionary T
    times each and objective T + 1 times, by their module names, for
    beta = 0 and beta > 0: the counts that perfbench's tracer reads."""
    names = ("update_codes", "update_dictionary", "objective")
    counts = _count_calls(monkeypatch, *names)
    X = np.random.default_rng(53).normal(size=(6, 9))
    lap, _ = _random_laplacian(np.random.default_rng(54), 9)
    for beta, delta in ((0.0, None), (0.5, lap)):
        counts.update(dict.fromkeys(names, 0))
        params = DictLearnParams(n_atoms=4, alpha=0.1, beta=beta,
                                 max_outer_iter=4, obj_tol=0.0, seed=0)
        _, _, trace = train(X, delta, params)
        assert len(trace) == 5
        assert counts == {"update_codes": 4, "update_dictionary": 4,
                          "objective": 5}


def test_train_builds_and_checks_the_laplacian_once(monkeypatch):
    """train converts the caller's L once per call, a dense L and a
    sparse one alike: one _to_csr call per train. Its sweeps and
    objectives get train's checked L, which _csr passes through."""
    rng = np.random.default_rng(54)
    X = rng.normal(size=(6, 9))
    lap, _ = _random_laplacian(rng, 9)
    conversions = []
    to_csr = dictlearn._to_csr

    def counted(arg, *args, **kwargs):
        conversions.append(arg)
        return to_csr(arg, *args, **kwargs)

    monkeypatch.setattr(dictlearn, "_to_csr", counted)
    checks = _count_calls(monkeypatch, "_csr")
    params = DictLearnParams(n_atoms=4, alpha=0.1, beta=0.5,
                             max_outer_iter=5, obj_tol=0.0, seed=0)
    for form in (lambda L: L, sp.csr_array, sp.coo_array):
        conversions.clear()
        delta = form(lap)
        _, _, trace = train(X, delta, params)
        assert len(trace) == 6
        assert len(conversions) == 1 and conversions[0] is delta
    # per call one check in train, then 5 sweeps and 6 objectives
    assert checks == {"_csr": 3 * 12}


@pytest.mark.parametrize("form", [sp.coo_array, sp.csr_matrix,
                                  lambda L: L])
def test_train_matches_a_loop_of_the_public_calls_bitwise(form):
    """train on a raw L gives the bits of the loop it documents, written
    with the public update_codes, update_dictionary and objective, each
    of which checks and converts L itself."""
    rng = np.random.default_rng(55)
    X = rng.normal(size=(7, 10))
    lap = form(_random_laplacian(rng, 10)[0])
    params = DictLearnParams(n_atoms=5, alpha=0.1, beta=0.7,
                             max_outer_iter=6, obj_tol=0.0, seed=3)
    D, S, trace = train(X, lap, params)

    rng_d = np.random.default_rng(params.seed)
    D_ref = init_dictionary(X, params.n_atoms, params.seed)
    S_ref = np.zeros((params.n_atoms, X.shape[1]))
    trace_ref = [objective(X, D_ref, S_ref, lap, params.alpha, params.beta)]
    for _ in range(params.max_outer_iter):
        update_codes(X, D_ref, S_ref, lap, params.alpha, params.beta)
        update_dictionary(X, S_ref, D_ref, rng=rng_d)
        trace_ref.append(
            objective(X, D_ref, S_ref, lap, params.alpha, params.beta))
    assert _same_bits(D, D_ref)
    assert _same_bits(S, S_ref)
    assert _same_bits(trace, trace_ref)


def _public_loop(X, lap, params):
    """train's loop written with the public update_codes,
    update_dictionary and objective, run to max_outer_iter."""
    rng = np.random.default_rng(params.seed)
    D = init_dictionary(X, params.n_atoms, params.seed)
    S = np.zeros((params.n_atoms, X.shape[1]))
    trace = [objective(X, D, S, lap, params.alpha, params.beta)]
    for _ in range(params.max_outer_iter):
        update_codes(X, D, S, lap, params.alpha, params.beta)
        update_dictionary(X, S, D, rng=rng)
        trace.append(objective(X, D, S, lap, params.alpha, params.beta))
    return D, S, trace


@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_train_matches_the_public_loop_through_dead_atoms(beta):
    """Duplicate columns and a large alpha kill atoms in more than one
    iteration: train's state redraws them and resumes its dictionary
    sweep as the public calls do, with the same bits and warnings."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 12))
    X[:, 6:] = X[:, :6]
    lap = _random_laplacian(rng, 12)[0] if beta else None
    params = DictLearnParams(n_atoms=8, alpha=2.0, beta=beta,
                             max_outer_iter=6, obj_tol=0.0, seed=5)
    with warnings.catch_warnings(record=True) as looped:
        warnings.simplefilter("always")
        want = _public_loop(X, lap, params)
    with warnings.catch_warnings(record=True) as trained:
        warnings.simplefilter("always")
        seen = []
        got = train(X, lap, params,
                    callback=lambda *args: seen.append(len(trained)))
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    assert ([str(w.message) for w in trained]
            == [str(w.message) for w in looped])
    # atoms died in the first iteration and again in a later one
    assert seen[0] < seen[1] < seen[-1]


@pytest.mark.parametrize("beta", [0.0, 0.7])
@pytest.mark.parametrize("scale, sweep", [(1e308, "code"),
                                          (1e200, "dictionary")])
def test_train_raises_the_public_calls_numerical_error(beta, scale, sweep):
    """A column of huge entries overflows the first code sweep, or, less
    huge, the first dictionary sweep: train raises the NumericalError
    of the public loop, message for message."""
    rng = np.random.default_rng(0)
    X = np.abs(rng.normal(size=(6, 12)))
    X[:, 3] = scale
    lap = _random_laplacian(rng, 12)[0] if beta else None
    params = DictLearnParams(n_atoms=5, alpha=0.1, beta=beta,
                             max_outer_iter=5, obj_tol=0.0, seed=0)
    with pytest.raises(NumericalError, match=f"non-finite {sweep} update"
                       ) as looped, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _public_loop(X, lap, params)
    with pytest.raises(NumericalError) as trained, \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        train(X, lap, params)
    assert str(trained.value) == str(looped.value)


def test_a_train_state_follows_a_change_of_problem():
    """A state remakes a step whose L or weights changed, so a state gives
    the bits of one-shot calls on a plain S whatever it is passed with."""
    rng = np.random.default_rng(57)
    X = rng.normal(size=(5, 8))
    D = _normalized_columns(rng, 5, 3)
    lap = dictlearn._csr(_random_laplacian(rng, 8)[0], 8)
    other = dictlearn._csr(_random_laplacian(rng, 8)[0], 8)
    S, want = np.zeros((3, 8)), np.zeros((3, 8))
    state = dictlearn._TrainState(S)
    for alpha, beta, delta in ((0.1, 0.5, lap), (0.2, 0.5, lap),
                               (0.2, 0.9, lap), (0.2, 0.9, other),
                               (0.2, 0.0, None)):
        update_codes(X, D, state, delta, alpha, beta)
        update_codes(X, D, want, delta, alpha, beta)
        assert _same_bits(S, want)
        assert _same_bits(objective(X, D, state, delta, alpha, beta),
                          objective(X, D, want, delta, alpha, beta))


def test_a_checked_laplacian_of_another_size_is_refused():
    """train's handle of L goes through only at its own size."""
    rng = np.random.default_rng(56)
    handle = dictlearn._csr(_random_laplacian(rng, 6)[0], 6)
    assert dictlearn._csr(handle, 6) is handle
    X = rng.normal(size=(4, 5))
    D = _normalized_columns(rng, 4, 3)
    with pytest.raises(ParameterError, match=r"laplacian must be \(5, 5\)"):
        update_codes(X, D, np.zeros((3, 5)), handle, 0.1, 0.5)
    with pytest.raises(ParameterError, match=r"laplacian must be \(5, 5\)"):
        objective(X, D, np.zeros((3, 5)), handle, 0.1, 0.5)


# ---------------------------------------------------------------- sparse L


def _sparse_laplacian(rng, n):
    """A dense L whose few hyperedges leave most vertex pairs apart."""
    H, W = random_hypergraph(rng, n, max(2, n // 3), density=0.2)
    lap = _laplacian_of(H, W)
    assert (lap == 0).any()
    return lap


def _non_canonical(lap):
    """lap as a CSR with each row's columns in descending order, the first
    off-diagonal nonzero stored as two exact halves, and two explicit
    zeros where lap has none."""
    rows, cols = np.nonzero(lap)
    values = lap[rows, cols]
    first = np.flatnonzero(rows != cols)[0]
    zero_rows, zero_cols = np.argwhere(lap == 0)[:2].T
    rows = np.concatenate([rows, [rows[first]], zero_rows])
    cols = np.concatenate([cols, [cols[first]], zero_cols])
    values = np.concatenate([values, [values[first] / 2], [0.0, 0.0]])
    values[first] /= 2
    order = np.lexsort((-cols, rows))
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(rows, minlength=lap.shape[0]))])
    csr = sp.csr_array((values[order], cols[order], indptr), shape=lap.shape)
    assert not csr.has_canonical_format
    return csr


@pytest.mark.parametrize("form", [sp.csr_array, sp.coo_array,
                                  _non_canonical])
def test_sparse_laplacian_gives_the_dense_bits(form):
    rng = np.random.default_rng(60)
    lap = _sparse_laplacian(rng, 12)
    sparse = form(lap)
    X = rng.normal(size=(6, 12))
    D = _normalized_columns(rng, 6, 5)
    S0 = rng.normal(size=(5, 12)) * (rng.random((5, 12)) < 0.5)
    alpha, beta = 0.1, 2.0

    assert objective(X, D, S0, lap, alpha, beta) == objective(
        X, D, S0, sparse, alpha, beta)
    assert _same_bits(update_codes(X, D, S0.copy(), lap, alpha, beta),
                      update_codes(X, D, S0.copy(), sparse, alpha, beta))
    params = DictLearnParams(n_atoms=5, alpha=alpha, beta=beta,
                             max_outer_iter=8, obj_tol=0.0, seed=1)
    for got, want in zip(train(X, sparse, params), train(X, lap, params)):
        assert _same_bits(got, want)


def test_sparse_laplacian_is_left_as_the_caller_gave_it():
    rng = np.random.default_rng(61)
    sparse = _non_canonical(_sparse_laplacian(rng, 9))
    parts = (sparse.data, sparse.indices, sparse.indptr)
    before = [a.copy() for a in parts]
    X = rng.normal(size=(4, 9))
    D = _normalized_columns(rng, 4, 3)
    objective(X, D, np.ones((3, 9)), sparse, 0.1, 1.0)
    update_codes(X, D, np.zeros((3, 9)), sparse, 0.1, 1.0)
    train(X, sparse, DictLearnParams(n_atoms=3, alpha=0.1, beta=1.0,
                                     max_outer_iter=2, seed=0))
    assert all(_same_bits(a, b) for a, b in zip(parts, before))


def _stored_arrays(matrix):
    """The bytes of every array a dense or scipy sparse matrix stores."""
    if isinstance(matrix, np.ndarray):
        return [matrix.tobytes()]
    if sp.issparse(matrix) and matrix.format == "dok":
        return sorted(matrix.items())
    names = ("row", "col", "data") if matrix.format == "coo" else (
        "indptr", "indices", "data")
    return [getattr(matrix, name).tobytes() for name in names]


@pytest.mark.parametrize("form", [np.asarray, sp.csr_array, sp.csc_array,
                                  sp.csr_matrix, sp.coo_array, sp.dok_array,
                                  _non_canonical])
def test_the_converted_laplacian_is_scipys_canonical_csr(form):
    """_csr turns every form of L into the arrays of scipy's canonical
    CSR of it (a copy, duplicates summed, stored zeros kept), with int64
    indices and float64 data, held in an Incidence, and leaves the
    caller's matrix as it was."""
    rng = np.random.default_rng(65)
    n = 11
    matrix = form(_sparse_laplacian(rng, n))
    before = _stored_arrays(matrix)
    want = sp.csr_array(matrix, copy=True)
    want.sum_duplicates()
    got = dictlearn._csr(matrix, n)
    assert isinstance(got, Incidence) and got.shape == (n, n)
    assert got.indptr.dtype == got.indices.dtype == np.int64
    assert got.data.dtype == np.float64
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert _same_bits(got.data, want.data.astype(np.float64))
    assert _stored_arrays(matrix) == before


@pytest.mark.parametrize("form", [np.asarray, sp.csr_array, sp.coo_array,
                                  _non_canonical])
def test_objective_beta_term_matches_scipy_bitwise(form):
    """The manifold term is the scipy code's
    np.sum((sp.csr_array(L) @ S^T) * S^T) bit for bit, whatever form L
    is given in, and so is L S^T itself: each row is summed from 0 over
    L's stored entries, in order."""
    rng = np.random.default_rng(64)
    alpha, beta = 0.1, 1.7
    for n, n_atoms in ((12, 5), (40, 16), (90, 30)):
        lap = _sparse_laplacian(rng, n)
        X = rng.normal(size=(8, n))
        D = _normalized_columns(rng, 8, n_atoms)
        S = rng.normal(size=(n_atoms, n)) * (rng.random((n_atoms, n)) < 0.6)
        coupled = sp.csr_array(lap) @ S.T
        codes = np.ascontiguousarray(S.T)
        product = np.empty_like(codes)
        dictlearn._coupling(dictlearn._csr(form(lap), n), codes, product)()
        assert _same_bits(product, coupled)
        r = X - D @ S
        want = np.sum(r * r) + 2.0 * alpha * np.sum(np.abs(S))
        want = want + beta * np.sum(coupled * S.T)
        got = objective(X, D, S, form(lap), alpha, beta)
        assert _same_bits(got, float(want))
        assert _same_bits(objective(X, D, np.asfortranarray(S), form(lap),
                                    alpha, beta), got)


@pytest.mark.parametrize("form", [np.asarray, sp.csr_array])
@pytest.mark.parametrize("stored", [True, False])
@pytest.mark.parametrize("skew, accepted", [(1e-9, True), (1e-3, False)])
def test_train_symmetry_tolerance(form, stored, skew, accepted):
    """L must equal L^T to np.allclose's tolerance, also where one side
    of the pair is not stored."""
    rng = np.random.default_rng(62)
    lap = _sparse_laplacian(rng, 10)
    off_diagonal = ~np.eye(10, dtype=bool)
    i, j = np.argwhere(((lap != 0) == stored) & off_diagonal)[0]
    lap[i, j] += skew
    X = rng.normal(size=(4, 10))
    params = DictLearnParams(n_atoms=3, alpha=0.1, beta=1.0,
                             max_outer_iter=2, seed=0)
    if accepted:
        train(X, form(lap), params)
    else:
        with pytest.raises(ParameterError, match="symmetric"):
            train(X, form(lap), params)


@pytest.mark.parametrize("form", [np.asarray, sp.csr_array])
@pytest.mark.parametrize("entry, value", [((0, 1), np.nan),
                                          ((0, 0), np.inf)])
def test_train_rejects_a_non_finite_laplacian_before_any_sweep(
        monkeypatch, form, entry, value):
    counts = _count_calls(monkeypatch, "update_codes")
    rng = np.random.default_rng(63)
    lap, _ = _random_laplacian(rng, 6)
    lap[entry] = value
    X = rng.normal(size=(4, 6))
    params = DictLearnParams(n_atoms=3, alpha=0.1, beta=1.0, seed=0)
    with pytest.raises(InputError, match="laplacian contains non-finite"):
        train(X, form(lap), params)
    assert counts == {"update_codes": 0}


def test_train_on_a_sparse_laplacian_allocates_no_dense_square():
    """A path-graph L at n = 3000 would take 72 MB dense; training on its
    CSR must peak far below that."""
    n = 3000
    half = np.full(n - 1, -0.5)
    lap = sp.diags_array([half, np.ones(n), half], offsets=[-1, 0, 1],
                         format="csr")
    X = np.random.default_rng(64).normal(size=(5, n))
    params = DictLearnParams(n_atoms=2, alpha=0.1, beta=1.0,
                             max_outer_iter=2, obj_tol=0.0, seed=0)
    tracemalloc.start()
    try:
        train(X, lap, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 4


def test_train_pipeline_frees_the_dense_laplacian_before_the_first_sweep(
        monkeypatch):
    """At the first code sweep no n x n float array is live: traced
    memory stays below half of a dense L's 8 n^2 bytes."""
    bundle = make_synthetic(10, 100, 0, 30, 0.3, seed=1)
    n = bundle.train_features.shape[1]
    live = []

    class FirstSweep(Exception):
        pass

    def first_sweep(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        raise FirstSweep

    monkeypatch.setattr(dictlearn, "update_codes", first_sweep)
    config = HypergraphConfig(admm=AdmmParams(epsilon=2.0 ** -6))
    params = DictLearnParams(n_atoms=50, alpha=2.0 ** -6, beta=8.0)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(FirstSweep):
                train_pipeline(bundle.train_features, bundle.train_labels,
                               hypergraph_config=config, params=params)
    finally:
        tracemalloc.stop()
    assert n == 1000 and live[0] < 8 * n * n / 2


# ---------------------------------------------------------------- encoding


def test_encode_test_orthonormal_atom_recovery():
    rng = np.random.default_rng(21)
    Q, _ = np.linalg.qr(rng.normal(size=(10, 6)))
    gamma = 0.125
    S = encode_test(Q[:, [0, 3, 5]], Q, gamma)
    want = np.zeros((6, 3))
    want[0, 0] = want[3, 1] = want[5, 2] = 1.0 - gamma
    assert np.allclose(S, want, atol=1e-10)


def test_encode_test_matches_cd_oracle():
    rng = np.random.default_rng(22)
    D = _normalized_columns(rng, 10, 8)
    Y = rng.normal(size=(10, 3))
    gamma = 0.1
    S = encode_test(Y, D, gamma)
    for i in range(3):
        z = cd_lasso(Y[:, i], D, gamma)
        ours = lasso_objective(Y[:, i], D, S[:, i], gamma)
        best = lasso_objective(Y[:, i], D, z, gamma)
        assert ours == pytest.approx(best, rel=1e-6)
        assert np.allclose(S[:, i], z, atol=1e-3)


def test_encode_test_deterministic():
    rng = np.random.default_rng(23)
    D = _normalized_columns(rng, 9, 7)
    Y = rng.normal(size=(9, 4))
    assert np.array_equal(encode_test(Y, D, 0.05), encode_test(Y, D, 0.05))


def test_encode_test_warns_once_at_the_sweep_cap():
    rng = np.random.default_rng(44)
    D = _normalized_columns(rng, 9, 7)
    Y = rng.normal(size=(9, 4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        capped = encode_test(Y, D, 0.05, max_sweeps=1)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1
    assert caught[0].category is RuntimeWarning
    assert "max_sweeps (1)" in messages[0]
    assert "relative objective change of" in messages[0]
    assert "went dead" not in messages[0]
    # the capped call keeps the codes of its one sweep
    assert _same_bits(capped, encode_sweeps(Y, D, 0.05, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        encode_test(Y, D, 0.05)
    with pytest.raises(ParameterError):
        encode_test(Y, D, 0.05, max_sweeps=0)


@pytest.mark.parametrize("max_sweeps", [2.0, np.float64(3.0), "4", None])
def test_encode_test_rejects_a_non_integer_max_sweeps_by_name(max_sweeps):
    rng = np.random.default_rng(45)
    D = _normalized_columns(rng, 5, 3)
    with pytest.raises(ParameterError,
                       match="max_sweeps must be an integer, got "
                             + re.escape(repr(max_sweeps))):
        encode_test(rng.normal(size=(5, 4)), D, 0.1, max_sweeps=max_sweeps)


def test_encode_test_runs_one_code_sweep_per_sweep():
    """A call capped at t sweeps returns the oracle's codes after t
    lockstep sweeps, bit for bit, and each sweep moves them."""
    rng = np.random.default_rng(44)
    D = _normalized_columns(rng, 9, 7)
    Y = rng.normal(size=(9, 4))
    codes = []
    for t in (1, 2, 3):
        with pytest.warns(RuntimeWarning, match=rf"max_sweeps \({t}\)"):
            codes.append(encode_test(Y, D, 0.05, max_sweeps=t))
        assert _same_bits(codes[-1], encode_sweeps(Y, D, 0.05, t))
    for before, after in zip(codes, codes[1:]):
        assert not np.array_equal(before, after)


def test_encode_test_one_sweep_is_one_beta_zero_update_codes_sweep():
    """Test encoding and training's beta = 0 sweep run one kernel on the
    same numpy products, so a call capped at one sweep gives the bits of
    one update_codes sweep from zero codes."""
    rng = np.random.default_rng(48)
    D = _normalized_columns(rng, 100, 40)
    Y = D[:, rng.integers(40, size=50)] + 0.3 * rng.normal(size=(100, 50))
    with pytest.warns(RuntimeWarning, match=r"max_sweeps \(1\)"):
        encoded = encode_test(Y, D, 0.05, max_sweeps=1)
    swept = update_codes(Y, D, np.zeros((40, 50)), None, 0.05, 0.0)
    assert _same_bits(encoded, swept)


def test_encode_test_cap_warning_names_the_worst_relative_duality_gap():
    rng = np.random.default_rng(45)
    D = _normalized_columns(rng, 12, 9)
    Y = rng.normal(size=(12, 6))
    gamma = 0.2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        S = encode_test(Y, D, gamma, max_sweeps=4)
    (message,) = [str(w.message) for w in caught]
    reported = float(message.split("worst relative duality gap of ")[1]
                     .split(";")[0])
    gaps = []
    for i in range(Y.shape[1]):
        y, s = Y[:, i], S[:, i]
        r = y - D @ s
        theta = r / max(1.0, np.max(np.abs(D.T @ r)) / gamma)
        primal = lasso_objective(y, D, s, gamma)
        dual = y @ y - (y - theta) @ (y - theta)
        gaps.append((primal - dual) / primal)
    assert 0.0 < max(gaps) and reported == pytest.approx(max(gaps), rel=5e-3)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("atom", [0, 3, 6])
def test_encode_test_non_finite_dictionary_raises_at_that_atom(value, atom):
    rng = np.random.default_rng(46)
    D = _normalized_columns(rng, 9, 7)
    D[4, atom] = value
    Y = rng.normal(size=(9, 4))
    with pytest.raises(NumericalError,
                       match=f"non-finite code update at atom {atom}, "
                             "sample 0"):
        encode_test(Y, D, 0.05)


@pytest.mark.parametrize("n", [1, 15, 16, 17, 33])
def test_encode_test_at_the_kernel_block_edges_matches_the_oracle(n):
    """hgdl_lasso steps 16 columns at a time, for test encoding as for
    the training sweep; each column keeps the bits of the
    column-by-column oracle."""
    rng = np.random.default_rng(54 + n)
    D = _normalized_columns(rng, 8, 11)
    Y = rng.normal(size=(8, n))
    with pytest.warns(RuntimeWarning, match=r"max_sweeps \(3\)"):
        S = encode_test(Y, D, 0.05, max_sweeps=3)
    assert _same_bits(S, encode_sweeps(Y, D, 0.05, 3))


def test_encode_test_reports_the_first_failure_in_sample_order():
    Y, D = _failing_block()
    with pytest.raises(ArithmeticError) as want:
        encode_sweeps(Y, D, 0.1, 1)
    with pytest.raises(NumericalError) as got:
        encode_test(Y, D, 0.1)
    assert str(got.value) == str(want.value) \
        == "non-finite code update at atom 2, sample 1"


def test_encode_test_zero_atom_stays_zero_and_matches_the_oracle():
    rng = np.random.default_rng(47)
    D = _normalized_columns(rng, 9, 7)
    D[:, 2] = 0.0
    Y = rng.normal(size=(9, 5))
    with pytest.warns(RuntimeWarning, match=r"max_sweeps \(6\)"):
        S = encode_test(Y, D, 0.05, max_sweeps=6)
    assert not S[2].any()
    assert _same_bits(S, encode_sweeps(Y, D, 0.05, 6))


def test_encode_test_validation():
    D = np.eye(3)
    with pytest.raises(ParameterError):
        encode_test(np.zeros((3, 2)), D, 0.0)
    with pytest.raises(ParameterError, match="dictionary rows 4 != feature dim 3"):
        encode_test(np.ones((3, 2)), np.eye(4), 0.1)
    # no features: every code stays zero, and nothing is read past D or Y
    assert _same_bits(encode_test(np.zeros((0, 3)), np.zeros((0, 2)), 0.1),
                      np.zeros((2, 3)))
    with pytest.raises(InputError):
        encode_test(np.full((3, 2), np.nan), D, 0.1)


# ---------------------------------------------------------------- classifier


def test_fit_classifier_matches_augmented_lstsq():
    rng = np.random.default_rng(24)
    S = rng.normal(size=(6, 40))
    labels = np.asarray([i % 3 for i in range(40)])
    ridge = 1e-3
    clf = fit_classifier(S, labels, ridge=ridge)
    onehot = np.zeros((3, 40))
    onehot[labels, np.arange(40)] = 1.0
    design = np.vstack([S.T, np.sqrt(ridge) * np.eye(6)])
    rhs = np.vstack([onehot.T, np.zeros((6, 3))])
    want = np.linalg.lstsq(design, rhs, rcond=None)[0].T
    assert np.allclose(clf.plane, want, atol=1e-8)


def test_fit_classifier_matches_lbfgs_oracle():
    rng = np.random.default_rng(25)
    S = rng.normal(size=(4, 18))
    labels = np.asarray([i % 2 for i in range(18)])
    ridge = 0.05
    clf = fit_classifier(S, labels, ridge=ridge)
    onehot = np.zeros((2, 18))
    onehot[labels, np.arange(18)] = 1.0

    def loss(flat):
        B = flat.reshape(2, 4)
        r = onehot - B @ S
        return float(np.sum(r * r) + ridge * np.sum(B * B))

    best = scipy.optimize.minimize(loss, np.zeros(8), method="L-BFGS-B",
                                   options={"ftol": 1e-15, "gtol": 1e-12})
    assert np.allclose(clf.plane, best.x.reshape(2, 4), atol=1e-6)


def test_fit_classifier_ignores_unlabeled_columns():
    rng = np.random.default_rng(26)
    S = rng.normal(size=(5, 20))
    labels = np.asarray([i % 4 for i in range(20)])
    clf = fit_classifier(S, labels)
    junk = np.hstack([S, 1e6 * np.ones((5, 3))])
    padded = np.concatenate([labels, np.full(3, UNLABELED)])
    clf2 = fit_classifier(junk, padded)
    assert np.array_equal(clf.plane, clf2.plane)


def test_fit_classifier_duplicated_columns_halve_the_ridge():
    rng = np.random.default_rng(27)
    S = rng.normal(size=(4, 15))
    labels = np.asarray([i % 3 for i in range(15)])
    doubled = fit_classifier(np.hstack([S, S]), np.concatenate([labels, labels]),
                             ridge=1e-2)
    halved = fit_classifier(S, labels, ridge=5e-3)
    assert np.allclose(doubled.plane, halved.plane, atol=1e-10)


def test_fit_classifier_validation():
    S = np.zeros((3, 4))
    with pytest.raises(ParameterError):
        fit_classifier(S, np.full(4, UNLABELED))
    with pytest.raises(InputError):
        fit_classifier(S, np.asarray([0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(ParameterError):
        fit_classifier(S, np.asarray([0, 1]))


def test_predict_argmax_ties_and_scaling():
    clf = Classifier(plane=np.eye(2), ridge=0.0)
    codes = np.asarray([[0.4, 0.5, 0.9], [0.9, 0.5, 0.4]])
    got = predict(clf, codes)
    assert got.tolist() == [1, 0, 0]  # tie at column 1 picks the lower class
    assert np.array_equal(predict(clf, 3.0 * codes), got)
    with pytest.raises(ParameterError):
        predict(clf, np.zeros((3, 2)))


def test_predict_never_returns_a_class_without_training_columns():
    """Label 1 has no labeled column, so its plane row is all zero; on
    codes where every present class scores below zero it would win the
    plain argmax."""
    rng = np.random.default_rng(93)
    S = rng.normal(size=(5, 20))
    labels = np.asarray([0, 2] * 10)
    clf = fit_classifier(S, labels)
    assert clf.plane.shape == (3, 5) and not clf.plane[1].any()
    assert clf.classes.tolist() == [0, 2]
    scores = clf.plane @ -S
    assert np.any(np.argmax(scores, axis=0) == 1)
    got = predict(clf, -S)
    assert np.array_equal(got, np.where(scores[2] > scores[0], 2, 0))


# ---------------------------------------------------------------- pipeline


def _toy_data(rng):
    X_train = rng.normal(size=(10, 12))
    labels = np.asarray([0, 1, 2] * 4)
    X_test = rng.normal(size=(10, 5))
    return X_train, labels, X_test


def test_train_pipeline_inductive_shapes():
    rng = np.random.default_rng(28)
    X_train, labels, X_test = _toy_data(rng)
    config = HypergraphConfig(admm=AdmmParams(epsilon=2.0 ** -6), k_nn=3)
    params = DictLearnParams(n_atoms=8, alpha=0.1, beta=2.0,
                             max_outer_iter=15, seed=5)
    model = train_pipeline(X_train, labels, X_test,
                           hypergraph_config=config, params=params)
    assert model.mode == INDUCTIVE
    assert model.dictionary.shape == (10, 8)
    assert model.train_codes.shape == (8, 12)
    assert model.test_codes.shape == (8, 5)
    assert model.classifier.plane.shape == (3, 8)
    assert predict(model.classifier, model.test_codes).shape == (5,)


def test_train_pipeline_transductive_shapes():
    rng = np.random.default_rng(29)
    X_train, labels, X_test = _toy_data(rng)
    config = HypergraphConfig(admm=AdmmParams(epsilon=2.0 ** -6), k_nn=3)
    params = DictLearnParams(n_atoms=8, alpha=0.1, beta=2.0,
                             max_outer_iter=15, seed=5)
    model = train_pipeline(X_train, labels, X_test, mode=TRANSDUCTIVE,
                           hypergraph_config=config, params=params)
    assert model.mode == TRANSDUCTIVE
    assert model.train_codes.shape == (8, 12)
    assert model.test_codes.shape == (8, 5)


def test_train_pipeline_beta_zero_skips_hypergraph():
    rng = np.random.default_rng(30)
    X_train, labels, X_test = _toy_data(rng)
    # k_nn larger than the corpus would blow up hypergraph construction,
    # so a successful run shows the graph was never built
    config = HypergraphConfig(admm=AdmmParams(epsilon=2.0 ** -6), k_nn=500)
    params = DictLearnParams(n_atoms=6, alpha=0.1, beta=0.0,
                             max_outer_iter=10, seed=5)
    model = train_pipeline(X_train, labels, X_test,
                           hypergraph_config=config, params=params)
    assert model.test_codes.shape == (6, 5)


@pytest.mark.parametrize("mode, n_columns", [(INDUCTIVE, 12),
                                              (TRANSDUCTIVE, 12 + 5)])
def test_train_pipeline_caps_atoms_at_the_corpus_columns(mode, n_columns):
    """n_atoms above the corpus size trains the n_atoms = corpus size
    model, not one with atoms drawn twice from a column."""
    rng = np.random.default_rng(33)
    X_train, labels, X_test = _toy_data(rng)
    config = HypergraphConfig(admm=AdmmParams(epsilon=2.0 ** -6), k_nn=3)
    capped, above = (
        train_pipeline(X_train, labels, X_test, mode=mode,
                       hypergraph_config=config,
                       params=DictLearnParams(n_atoms=n_atoms, alpha=0.1,
                                              beta=2.0, max_outer_iter=15,
                                              seed=5))
        for n_atoms in (n_columns, n_columns + 30))
    assert capped.dictionary.shape == (10, n_columns)
    for name in ("dictionary", "train_codes", "test_codes",
                 "objective_trace"):
        assert _same_bits(getattr(above, name), getattr(capped, name)), name


def test_train_pipeline_validation():
    rng = np.random.default_rng(31)
    X_train, labels, X_test = _toy_data(rng)
    config = HypergraphConfig(admm=AdmmParams(epsilon=2.0 ** -6), k_nn=3)
    params = DictLearnParams(n_atoms=4, alpha=0.1, beta=0.0)
    with pytest.raises(ParameterError):
        train_pipeline(X_train, labels, mode=TRANSDUCTIVE,
                       hypergraph_config=config, params=params)
    with pytest.raises(ParameterError):
        train_pipeline(X_train, labels, X_test, mode="sideways",
                       hypergraph_config=config, params=params)
    with pytest.raises(ParameterError):
        train_pipeline(X_train, labels[:5],
                       hypergraph_config=config, params=params)


@pytest.mark.parametrize("mode", [INDUCTIVE, TRANSDUCTIVE])
def test_train_pipeline_mismatched_test_dimension_is_an_input_error(mode):
    rng = np.random.default_rng(32)
    X_train, labels, X_test = _toy_data(rng)
    config = HypergraphConfig(admm=AdmmParams(epsilon=2.0 ** -6), k_nn=3)
    params = DictLearnParams(n_atoms=4, alpha=0.1, beta=1.0)
    with pytest.raises(InputError, match="test feature dimension"):
        train_pipeline(X_train, labels, X_test[:-1], mode=mode,
                       hypergraph_config=config, params=params)


def test_params_validation_and_gamma_default():
    params = DictLearnParams(n_atoms=4, alpha=0.25, beta=1.0)
    assert params.gamma == 0.25
    for kwargs in (
        dict(n_atoms=0, alpha=0.1, beta=0.0),
        dict(n_atoms=4, alpha=0.0, beta=0.0),
        dict(n_atoms=4, alpha=0.1, beta=-1.0),
        dict(n_atoms=4, alpha=0.1, beta=0.0, gamma=0.0),
        dict(n_atoms=4, alpha=0.1, beta=0.0, max_outer_iter=0),
        dict(n_atoms=4, alpha=0.1, beta=0.0, obj_tol=-1.0),
        dict(n_atoms=4, alpha=0.1, beta=0.0, seed=-1),
    ):
        with pytest.raises(ParameterError):
            DictLearnParams(**kwargs)


@pytest.mark.parametrize("field, value, named", [
    ("n_atoms", 2.5, "--dict-size"),
    ("n_atoms", np.float64(4.0), "--dict-size"),
    ("n_atoms", "4", "--dict-size"),
    ("max_outer_iter", 2.5, "max_outer_iter"),
    ("seed", 1.5, "--seed"),
])
def test_params_reject_a_non_integer_count_or_seed(field, value, named):
    """A count or seed that is not an integer is a ParameterError naming
    the setting, not numpy's TypeError from inside train."""
    kwargs = dict(n_atoms=4, alpha=0.1, beta=0.0)
    kwargs[field] = value
    with pytest.raises(ParameterError, match=f"{named}.*must be an integer"):
        DictLearnParams(**kwargs)


def test_params_keep_numpy_integers_as_ints():
    params = DictLearnParams(n_atoms=np.int64(4), alpha=0.1, beta=0.0,
                             max_outer_iter=np.int32(3), seed=np.uint8(7))
    assert [type(v) for v in (params.n_atoms, params.max_outer_iter,
                              params.seed)] == [int, int, int]
    assert (params.n_atoms, params.max_outer_iter, params.seed) == (4, 3, 7)
