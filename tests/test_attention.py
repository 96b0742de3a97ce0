import re

import numpy as np
import pytest

from hgdl import (
    AdmmParams,
    InputError,
    ParameterError,
    solve_attention,
    solve_attention_batch,
    soft_threshold,
)
from hgdl.attention import TOL, attention_objective

from oracles import admm_lasso, cd_lasso, lasso_objective, shrink


def test_soft_threshold_known_values():
    v = np.array([3.0, -3.0, 0.5, -0.5, 0.0])
    expected = np.array([2.0, -2.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(soft_threshold(v, 1.0), expected)
    np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_matches_prox_oracle():
    # independent form of the l1 prox: sign(v) * max(|v| - t, 0)
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.normal(size=6) * rng.choice([0.1, 1.0, 10.0])
        t = float(rng.random() * 2)
        expected = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        np.testing.assert_allclose(soft_threshold(v, t), expected, atol=1e-15)


def test_soft_threshold_is_prox_minimizer():
    # grid search over candidate u confirms the prox objective is minimized
    rng = np.random.default_rng(8)
    grid = np.linspace(-5, 5, 4001)
    for _ in range(20):
        v = float(rng.normal() * 2)
        t = float(rng.random())
        u = float(soft_threshold(np.array([v]), t)[0])
        values = t * np.abs(grid) + 0.5 * (grid - v) ** 2
        best = grid[np.argmin(values)]
        assert abs(u - best) < 5e-3
        assert t * abs(u) + 0.5 * (u - v) ** 2 <= values.min() + 1e-12


@pytest.mark.parametrize("t", [0.0, -0.0, 0.5, 1.0, 5e-324, np.inf])
def test_soft_threshold_matches_the_max_min_form_bitwise(t):
    """Signed zeros, infinities, NaNs and v = +-t, contiguous, strided
    and 0-d, give the bits of max(v - t, 0) + min(v + t, 0)."""
    v = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0,
                  0.5, -0.5, 2.0, -2.0, 5e-324, -5e-324, 1e308, -1e308,
                  t, -t, np.nextafter(t, 0.0), np.nextafter(-t, 0.0)])
    with np.errstate(invalid="ignore", over="ignore"):
        for arr in (v, np.repeat(v, 3)[::3], v.reshape(4, 5)):
            got, want = soft_threshold(arr, t), shrink(arr, t)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for x in v:
            got, want = soft_threshold(x, t), shrink(x, t)
            assert type(got) is type(want)
            assert got.tobytes() == want.tobytes()


def test_soft_threshold_rejects_nan_threshold():
    with pytest.raises(ParameterError):
        soft_threshold(np.ones(3), np.nan)


def test_soft_threshold_rejects_negative_threshold():
    with pytest.raises(ParameterError):
        soft_threshold(np.ones(3), -0.1)


def test_single_matching_column():
    # P is one unit column equal to x: solution is (1 - eps) of that column
    rng = np.random.default_rng(0)
    x = rng.normal(size=12)
    x /= np.linalg.norm(x)
    sol = solve_attention(x, x[:, None], AdmmParams(epsilon=0.1))
    assert sol.converged
    assert sol.q.shape == (1,)
    assert abs(sol.q[0] - 0.9) < 1e-4


def test_large_epsilon_gives_zero():
    rng = np.random.default_rng(1)
    x = rng.normal(size=10)
    P = rng.normal(size=(10, 5))
    eps = float(np.max(np.abs(P.T @ x))) + 0.5
    sol = solve_attention(x, P, AdmmParams(epsilon=eps))
    np.testing.assert_array_equal(sol.q, np.zeros(5))


def test_matches_coordinate_descent_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        P = rng.normal(size=(20, 10))
        x = rng.normal(size=20)
        eps = 0.05
        sol = solve_attention(x, P, AdmmParams(epsilon=eps))
        z_ref = cd_lasso(x, P, eps)
        f_ref = lasso_objective(x, P, z_ref, eps)
        assert sol.objective <= f_ref + 1e-4 * max(1.0, abs(f_ref))
        assert abs(sol.objective - f_ref) <= 1e-4 * max(1.0, abs(f_ref))


def test_kkt_certificate():
    rng = np.random.default_rng(3)
    for _ in range(50):
        P = rng.normal(size=(15, 8))
        x = rng.normal(size=15)
        eps = float(rng.choice([0.01, 0.05, 0.2]))
        sol = solve_attention(x, P, AdmmParams(epsilon=eps))
        grad = P.T @ (x - P @ sol.q)
        slack = 1e-3 * max(1.0, float(np.max(np.abs(P.T @ x))))
        for i, qi in enumerate(sol.q):
            if qi != 0.0:
                assert abs(grad[i] - eps * np.sign(qi)) <= slack
            else:
                assert abs(grad[i]) <= eps + slack


def test_permutation_invariance():
    # permuting P's columns permutes q identically
    rng = np.random.default_rng(4)
    P = rng.normal(size=(12, 6))
    x = rng.normal(size=12)
    params = AdmmParams(epsilon=0.05)
    base = solve_attention(x, P, params)
    perm = rng.permutation(6)
    permuted = solve_attention(x, P[:, perm], params)
    np.testing.assert_allclose(permuted.q, base.q[perm], atol=1e-8)


def test_deterministic_bitwise():
    rng = np.random.default_rng(5)
    P = rng.normal(size=(10, 7))
    x = rng.normal(size=10)
    a = solve_attention(x, P, AdmmParams(epsilon=0.03))
    b = solve_attention(x, P, AdmmParams(epsilon=0.03))
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.m, b.m)
    assert a.objective == b.objective


def test_objective_tail_non_increasing():
    """The objective of the last 10 iterates, iterate t being the final q
    of a solve capped at t, does not increase."""
    rng = np.random.default_rng(6)
    for _ in range(20):
        P = rng.normal(size=(18, 9))
        x = rng.normal(size=18)
        last = solve_attention(x, P, AdmmParams(epsilon=0.05)).iterations
        tail = [solve_attention(x, P, AdmmParams(epsilon=0.05,
                                                 max_iter=t)).objective
                for t in range(max(1, last - 9), last + 1)]
        for earlier, later in zip(tail, tail[1:]):
            assert later <= earlier + 1e-9


def test_convergence_flag_matches_residual():
    rng = np.random.default_rng(9)
    P = rng.normal(size=(10, 5))
    x = rng.normal(size=10)
    sol = solve_attention(x, P, AdmmParams(epsilon=0.05))
    assert sol.converged
    assert float(np.max(np.abs(sol.z - sol.q))) <= TOL


def test_non_convergence_returns_best_iterate():
    rng = np.random.default_rng(10)
    P = rng.normal(size=(10, 5))
    x = rng.normal(size=10)
    sol = solve_attention(x, P, AdmmParams(epsilon=0.05, max_iter=2))
    assert not sol.converged
    assert sol.iterations == 2
    assert np.all(np.isfinite(sol.q))


def test_huge_max_iter_gives_the_default_bits():
    """max_iter only caps the loop: nothing is sized by it, so a cap of
    10**12 on a problem that converges early gives the default solve."""
    rng = np.random.default_rng(12)
    P = rng.normal(size=(10, 5))
    x = rng.normal(size=10)
    want = solve_attention(x, P, AdmmParams(epsilon=0.05))
    assert want.converged and want.iterations < 200
    got = solve_attention(x, P, AdmmParams(epsilon=0.05, max_iter=10**12))
    for field in ("z", "q", "m"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert (got.iterations, got.converged, got.objective) == (
        want.iterations, want.converged, want.objective)


def test_objective_value_matches_reported():
    rng = np.random.default_rng(11)
    P = rng.normal(size=(10, 5))
    x = rng.normal(size=10)
    eps = 0.07
    sol = solve_attention(x, P, AdmmParams(epsilon=eps))
    assert sol.objective == attention_objective(x, P, sol.q, eps)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        AdmmParams(epsilon=0.0)
    with pytest.raises(ParameterError):
        AdmmParams(epsilon=0.1, max_iter=0)
    with pytest.raises(ParameterError):
        solve_attention(np.ones(3), np.ones((3, 0)), AdmmParams(epsilon=0.1))
    with pytest.raises(ParameterError):
        solve_attention(np.ones(4), np.ones((3, 2)), AdmmParams(epsilon=0.1))


@pytest.mark.parametrize("max_iter", [2.5, np.float64(3.0), "3", None])
def test_a_non_integer_max_iter_is_a_parameter_error(max_iter):
    """Not a ctypes ArgumentError from the first solve."""
    with pytest.raises(ParameterError,
                       match="max_iter must be an integer, got "
                             + re.escape(repr(max_iter))):
        AdmmParams(epsilon=0.1, max_iter=max_iter)


def test_a_numpy_integer_max_iter_is_kept_as_an_int():
    params = AdmmParams(epsilon=0.1, max_iter=np.int32(7))
    assert type(params.max_iter) is int and params.max_iter == 7


# ---------------------------------------------------------------- batches


def _random_problems(rng, n, dim, k, duplicate=False):
    """n (x, P) pairs of one size; duplicate=True copies a column of P."""
    problems = []
    for _ in range(n):
        P = rng.normal(size=(dim, k)) * rng.choice([0.1, 1.0, 3.0])
        if duplicate and k > 1:
            P[:, 1] = P[:, 0]
        problems.append((rng.normal(size=dim), P))
    return problems


def _normal_equations(problems):
    return (np.stack([P.T @ P for _, P in problems]),
            np.stack([P.T @ x for x, P in problems]))


def _assert_batch_matches_single_solves(problems, params):
    """Each row of the batch matches solve_attention (q to 1e-12) and the
    one-problem Cholesky loop (q to 1e-11 relative, since the z steps
    factor differently), with the same iterations and flag."""
    batch = solve_attention_batch(*_normal_equations(problems), params)
    for i, (x, P) in enumerate(problems):
        single = solve_attention(x, P, params)
        q_ref, iterations, converged = admm_lasso(
            x, P, params.epsilon, max_iter=params.max_iter)
        np.testing.assert_allclose(batch.q[i], single.q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.q[i], q_ref, rtol=1e-11, atol=1e-12)
        assert batch.iterations[i] == single.iterations == iterations
        assert batch.converged[i] == single.converged == converged
    return batch


def test_batch_matches_single_solves():
    rng = np.random.default_rng(12)
    problems = (_random_problems(rng, 6, 12, 5)
                + _random_problems(rng, 4, 12, 5, duplicate=True))
    # a center whose neighbors all coincide with it
    x = rng.normal(size=12)
    problems.append((x, np.repeat(x[:, None], 5, axis=1)))
    problems.append((np.zeros(12), np.zeros((12, 5))))
    batch = _assert_batch_matches_single_solves(
        problems, AdmmParams(epsilon=0.05))
    assert len(set(batch.iterations.tolist())) > 1  # rows stop apart
    capped = _assert_batch_matches_single_solves(
        problems, AdmmParams(epsilon=0.05, max_iter=2))
    # only the all-zero problem, the last one, settles within two iterations
    assert capped.converged.tolist() == [False] * (len(problems) - 1) + [True]


def test_batch_equals_batches_of_one_bitwise():
    rng = np.random.default_rng(13)
    problems = _random_problems(rng, 9, 15, 7, duplicate=True)
    for params in (AdmmParams(epsilon=0.03), AdmmParams(epsilon=0.03, max_iter=5)):
        gram, ptx = _normal_equations(problems)
        whole = solve_attention_batch(gram, ptx, params)
        for i in range(len(problems)):
            one = solve_attention_batch(gram[i:i + 1], ptx[i:i + 1], params)
            for field in ("z", "q", "m", "iterations", "converged"):
                assert np.array_equal(getattr(one, field)[0],
                                      getattr(whole, field)[i])


def test_batch_validation():
    params = AdmmParams(epsilon=0.1)
    with pytest.raises(ParameterError):
        solve_attention_batch(np.ones((2, 3, 3)), np.ones((2, 4)), params)
    with pytest.raises(ParameterError):
        solve_attention_batch(np.ones((1, 0, 0)), np.ones((1, 0)), params)
    gram = np.ones((2, 3, 3))
    gram[1, 0, 0] = np.inf
    with pytest.raises(InputError):
        solve_attention_batch(gram, np.ones((2, 3)), params)


def test_batch_matches_single_solves_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        seed=st.integers(0, 2 ** 32 - 1),
        n=st.integers(1, 8),
        k=st.integers(1, 6),
        dim=st.integers(1, 12),
        eps=st.sampled_from([0.01, 0.05, 0.3]),
        max_iter=st.sampled_from([2, 200]),
        duplicate=st.booleans(),
    )
    def check(seed, n, k, dim, eps, max_iter, duplicate):
        rng = np.random.default_rng(seed)
        problems = _random_problems(rng, n, dim, k, duplicate)
        _assert_batch_matches_single_solves(
            problems, AdmmParams(epsilon=eps, max_iter=max_iter))

    check()
