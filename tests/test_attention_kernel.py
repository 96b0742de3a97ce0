"""The compiled attention ADMM against the numpy loop it replaced.

oracles.admm_batch is that loop, kept verbatim; every field of every
solve must carry its bits, and a divergence must name its iteration.
"""

import numpy as np
import pytest

from hgdl import hypergraph
from hgdl.attention import (
    AdmmParams,
    attention_objective,
    solve_attention,
    solve_attention_batch,
)
from hgdl.data import make_synthetic
from hgdl.errors import NumericalError
from hgdl.hypergraph import UNLABELED, HypergraphConfig, build_laplacian

from oracles import admm_batch

FIELDS = ("z", "q", "m", "iterations", "converged")


def _normal_equations(problems):
    return (np.stack([P.T @ P for _, P in problems]),
            np.stack([P.T @ x for x, P in problems]))


def _assert_oracle_bits(gram, ptx, params):
    got = solve_attention_batch(gram, ptx, params)
    want = admm_batch(gram, ptx, params.epsilon, params.max_iter)
    for field, value in zip(FIELDS, want):
        mine = getattr(got, field)
        assert mine.dtype == value.dtype, field
        assert mine.shape == value.shape, field
        assert mine.tobytes() == value.tobytes(), field
    return got


def _mixed_problems(rng, k, dim=12):
    """Random problems at three scales, duplicate columns, a center whose
    neighbours all coincide with it, and an all-zero problem."""
    problems = []
    for scale in (0.1, 1.0, 3.0):
        for duplicate in (False, True):
            P = rng.normal(size=(dim, k)) * scale
            if duplicate and k > 1:
                P[:, 1] = P[:, 0]
            problems.append((rng.normal(size=dim), P))
    x = rng.normal(size=dim)
    problems.append((x, np.repeat(x[:, None], k, axis=1)))
    problems.append((np.zeros(dim), np.zeros((dim, k))))
    return problems


@pytest.mark.parametrize("max_iter", [2, 200])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_batch_gives_the_numpy_loop_bits(k, max_iter):
    rng = np.random.default_rng(300 + k)
    gram, ptx = _normal_equations(_mixed_problems(rng, k))
    got = _assert_oracle_bits(gram, ptx,
                              AdmmParams(epsilon=0.05, max_iter=max_iter))
    if max_iter == 200:
        assert len(set(got.iterations.tolist())) > 1  # rows stop apart


def test_saf_batch_gives_the_numpy_loop_bits(monkeypatch):
    """The n = 320, k = 10 batch that build_saf_hypergraph solves for the
    laplacian-export shape, with the default epsilon."""
    captured = []

    def capture(gram, ptx, params):
        captured.append((gram.copy(), ptx.copy(), params))
        return solve_attention_batch(gram, ptx, params)

    monkeypatch.setattr(hypergraph, "solve_attention_batch", capture)
    bundle = make_synthetic(10, 8, 24, 100, 0.3, 1)
    X = np.hstack([bundle.train_features, bundle.test_features])
    labels = np.concatenate([bundle.train_labels,
                             np.full(bundle.test_features.shape[1], UNLABELED)])
    with pytest.warns(RuntimeWarning, match="hit max_iter"):
        build_laplacian(X, labels, HypergraphConfig(
            admm=AdmmParams(epsilon=2.0 ** -6), k_nn=10))
    ((gram, ptx, params),) = captured
    assert gram.shape == (320, 10, 10)
    got = _assert_oracle_bits(gram, ptx, params)
    assert not got.converged.all()


def test_strided_inputs_give_the_bits_of_contiguous_ones():
    rng = np.random.default_rng(310)
    gram, ptx = _normal_equations(_mixed_problems(rng, 4))
    n, k = ptx.shape
    wide_gram = np.zeros((n, 2 * k, 3 * k))
    wide_gram[:, ::2, ::3] = gram
    wide_ptx = np.zeros((k, 2 * n)).T
    wide_ptx[::2] = ptx
    strided_gram, strided_ptx = wide_gram[:, ::2, ::3], wide_ptx[::2]
    assert not strided_gram.flags.c_contiguous
    assert not strided_ptx.flags.c_contiguous
    params = AdmmParams(epsilon=0.05)
    want = solve_attention_batch(gram, ptx, params)
    got = solve_attention_batch(strided_gram, strided_ptx, params)
    for field in FIELDS:
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


@pytest.mark.parametrize("max_iter", [2, 200])
def test_objective_trace_gives_the_numpy_loop_bits(max_iter):
    """A solve capped at t stops with exactly its t-th iterate, so every
    iterate of a solve, and the objective after every iteration, is
    rebuilt from capped solves without the library recording any."""
    rng = np.random.default_rng(320)
    params = AdmmParams(epsilon=0.05, max_iter=max_iter)
    for k in (1, 3, 6):
        for x, P in _mixed_problems(rng, k):
            gram, ptx = (P.T @ P)[None], (P.T @ x)[None]
            iterates = []
            want = admm_batch(gram, ptx, params.epsilon, max_iter,
                              on_iterate=lambda q: iterates.append(q[0]))
            sol = solve_attention(x, P, params)
            assert sol.iterations == want[3][0] == len(iterates)
            for t, q in enumerate(iterates, start=1):
                capped = solve_attention_batch(
                    gram, ptx, AdmmParams(epsilon=params.epsilon, max_iter=t))
                assert capped.q[0].tobytes() == q.tobytes()
            assert sol.objective == attention_objective(x, P, iterates[-1],
                                                        params.epsilon)
            assert sol.q.tobytes() == want[1][0].tobytes()


def test_divergence_names_the_first_iteration_of_any_problem():
    """With P = 0 and P^T x != 0 the iterates grow by about P^T x per
    iteration: z overflows at iteration 4 for 0.5e308 and at iteration 2
    for 1.7e308, while the other problems converge. The batch names the
    earliest, though its problem comes later."""
    rng = np.random.default_rng(330)
    gram, ptx = _normal_equations(_mixed_problems(rng, 3))
    gram[1], ptx[1] = 0.0, 0.5e308
    gram[5], ptx[5] = 0.0, [1.7e308, 1.0, -2.0]
    params = AdmmParams(epsilon=0.05)
    for rows, iteration in (([1], 4), ([5], 2), (slice(None), 2)):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ArithmeticError) as want:
            admm_batch(gram[rows], ptx[rows], params.epsilon)
        with pytest.raises(NumericalError) as got:
            solve_attention_batch(gram[rows], ptx[rows], params)
        assert str(got.value) == str(want.value)
        assert str(got.value) == (
            f"attention solver diverged at iteration {iteration}")
    keep = [i for i in range(len(ptx)) if i not in (1, 5)]
    _assert_oracle_bits(gram[keep], ptx[keep], params)


def test_batch_matches_the_numpy_loop_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        seed=st.integers(0, 2 ** 32 - 1),
        n=st.integers(1, 8),
        k=st.integers(1, 7),
        dim=st.integers(1, 12),
        eps=st.sampled_from([1e-4, 0.01, 0.05, 0.3, 5.0]),
        max_iter=st.sampled_from([1, 2, 7, 200]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def check(seed, n, k, dim, eps, max_iter, scale):
        rng = np.random.default_rng(seed)
        problems = [(rng.normal(size=dim), rng.normal(size=(dim, k)) * scale)
                    for _ in range(n)]
        _assert_oracle_bits(*_normal_equations(problems),
                            AdmmParams(epsilon=eps, max_iter=max_iter))

    check()
