"""Coordinate-descent coding, blockwise dictionary updates, and training."""

import warnings

import numpy as np
import pytest
import scipy.optimize

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
from hgdl.errors import InputError, NumericalError, ParameterError
from hgdl.hypergraph import (
    SAF,
    UNLABELED,
    Hypergraph,
    HypergraphConfig,
    build_laplacian,
    degrees,
    laplacian,
)
from oracles import cd_lasso, golden_section, lasso_objective, literal_manifold_penalty, random_hypergraph


def _laplacian_of(H, W):
    hg = Hypergraph(H, W, np.asarray([SAF] * H.shape[1]))
    hg, deg = degrees(hg)
    return laplacian(hg, deg)


def _random_laplacian(rng, n):
    H, W = random_hypergraph(rng, n, max(2, n // 2))
    return _laplacian_of(H, W), (H, W)


def _normalized_columns(rng, dim, k):
    D = rng.normal(size=(dim, k))
    return D / np.linalg.norm(D, axis=0)


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
    (0.0, "non-finite code update in atom row 0"),
])
def test_update_codes_non_finite_raises(beta, message):
    rng = np.random.default_rng(43)
    X = rng.normal(size=(6, 5))
    X[3, 2] = np.nan
    D = _normalized_columns(rng, 6, 4)
    lap, _ = _random_laplacian(rng, 5)
    with pytest.raises(NumericalError, match=message):
        update_codes(X, D, np.zeros((4, 5)), lap, 0.1, beta)


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
    """A NaN atom reaches every atom's cross term through D^T D, so the
    sweep stops at its first step."""
    rng = np.random.default_rng(45)
    X = rng.normal(size=(6, 5))
    D = _normalized_columns(rng, 6, 4)
    D[1, column] = np.nan
    lap, _ = _random_laplacian(rng, 5)
    with pytest.raises(NumericalError,
                       match="non-finite code update at atom 0, sample 0"):
        update_codes(X, D, rng.normal(size=(4, 5)), lap, 0.1, 0.9)


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
    want = np.zeros((7, 4))
    update_codes(Y, D, want, None, 0.05, 0.0)
    assert np.array_equal(capped, want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        encode_test(Y, D, 0.05)
    with pytest.raises(ParameterError):
        encode_test(Y, D, 0.05, max_sweeps=0)


def test_encode_test_validation():
    D = np.eye(3)
    with pytest.raises(ParameterError):
        encode_test(np.zeros((3, 2)), D, 0.0)
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
    ):
        with pytest.raises(ParameterError):
            DictLearnParams(**kwargs)
