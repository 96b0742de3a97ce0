"""The compiled passes of the hypergraph build at their edges: hgdl_saf
against numpy's row sums, the kNN pair groups against the brute-force
and cdist neighbor lists, and the ADMM lanes against the numpy loop.

hgdl_saf sums each row as np.sum(..., axis=1) does, in numpy's pairwise
order, so its bits are numpy's at every length: below 8 terms, at the
8-term rounds, at the 128-term blocks and past them, where numpy splits
the row. hgdl_knn sums four candidate pairs per pass and hgdl_admm
steps four problems side by side, so the tails of both, and lanes that
stop apart, are checked here.
"""

import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from hgdl._native import kernels
from hgdl.attention import (
    LANES,
    RHO,
    TOL,
    AdmmParams,
    solve_attention_batch,
)
from hgdl.errors import NumericalError
from hgdl.hypergraph import build_saf_hypergraph, knn_neighbors

from oracles import (
    admm_batch,
    brute_force_knn,
    cdist_knn,
    saf_incidence_two_loops,
)

DIMS = [1, 7, 8, 9, 127, 128, 129, 256, 257, 1000]
ADMM_FIELDS = ("z", "q", "m", "iterations", "converged")


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint8).tobytes()


def _saf_sums(X, neighbors, attention):
    """hgdl_saf's distances, P^T x and P^T P, the last two None without
    attention."""
    dim, n = X.shape
    k = neighbors.shape[1]
    dist = np.full((n, k), 7.0)
    ptx = np.full((n, k) if attention else 0, 7.0)
    gram = np.full((n, k, k) if attention else 0, 7.0)
    kernels().hgdl_saf(n, dim, k, np.ascontiguousarray(X.T),
                       np.ascontiguousarray(neighbors, dtype=np.int64),
                       int(attention), dist, ptx, gram)
    return dist, (ptx if attention else None), (gram if attention else None)


def _numpy_sums(X, neighbors):
    """The same sums as numpy row sums of the gathered neighbor rows."""
    Xt = np.ascontiguousarray(X.T)
    n, k = neighbors.shape
    dist, ptx, gram = np.empty((n, k)), np.empty((n, k)), np.empty((n, k, k))
    for a in range(k):
        pa = Xt[neighbors[:, a]]
        diffs = pa - Xt
        dist[:, a] = np.sqrt(np.sum(diffs * diffs, axis=1))
        ptx[:, a] = np.sum(pa * Xt, axis=1)
        for b in range(k):
            gram[:, a, b] = np.sum(pa * Xt[neighbors[:, b]], axis=1)
    return dist, ptx, gram


def _assert_saf_is_numpy(X, neighbors):
    want = _numpy_sums(X, neighbors)
    for attention in (True, False):
        dist, ptx, gram = _saf_sums(X, neighbors, attention)
        assert _bits(dist) == _bits(want[0])
        if attention:
            assert _bits(ptx) == _bits(want[1])
            assert _bits(gram) == _bits(want[2])


def _scaled_columns(rng, dim, n):
    """Columns of normal entries, each scaled by 10^e with e in
    [-150, 150], two of them duplicates."""
    X = rng.normal(size=(dim, n)) * 10.0 ** rng.uniform(-150, 150, size=n)
    X[:, 1] = X[:, 0]
    return X


@pytest.mark.parametrize("dim", DIMS)
def test_saf_sums_are_numpy_row_sums_bitwise(dim):
    rng = np.random.default_rng(500 + dim)
    n = 12
    for X in (rng.normal(size=(dim, n)), _scaled_columns(rng, dim, n)):
        for k in (1, 3, n - 1):
            _assert_saf_is_numpy(X, knn_neighbors(X, k))


@pytest.mark.parametrize("dim", DIMS)
def test_saf_sums_of_negative_zero_products_are_positive_zero(dim):
    """Column 0 is zero and every other entry negative, so a row of
    products with column 0 is all -0.0. numpy starts each row's sum from
    +0.0 and returns +0.0; eight accumulators seeded with the first eight
    products would return -0.0."""
    rng = np.random.default_rng(600 + dim)
    X = -np.abs(rng.normal(size=(dim, 6))) - 0.5
    X[:, 0] = 0.0
    neighbors = np.array([[c for c in range(6) if c != i] for i in range(6)],
                         dtype=np.int64)
    _, ptx, gram = _saf_sums(X, neighbors, True)
    assert np.signbit(X[:, 1:] * 0.0).all()
    assert _bits(ptx[1:, 0]) == _bits(np.zeros(5))
    assert _bits(gram[1:, 0, 1:]) == _bits(np.zeros((5, 4)))
    _assert_saf_is_numpy(X, neighbors)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("k", [1, 3, 11])
@pytest.mark.parametrize("use_attention", [True, False])
def test_saf_incidence_is_the_two_loop_construction_at_every_length(
        dim, k, use_attention):
    rng = np.random.default_rng(700 + dim)
    X = rng.normal(size=(dim, 12))
    X[:, 5] = X[:, 2]
    params = AdmmParams(epsilon=2.0 ** -4, max_iter=30)
    solve = None
    if use_attention:
        def solve(gram, ptx):
            return solve_attention_batch(gram, ptx, params).q
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = build_saf_hypergraph(X, k, params, use_attention)
        want = saf_incidence_two_loops(X, knn_neighbors(X, k), solve)
    assert _bits(got.incidence.toarray()) == _bits(want)


def test_saf_without_attention_leaves_the_attention_sums_alone():
    X = np.random.default_rng(800).normal(size=(5, 8))
    dist, ptx, gram = np.empty((8, 3)), np.full((8, 3), 7.0), np.full(
        (8, 3, 3), 7.0)
    kernels().hgdl_saf(8, 5, 3, np.ascontiguousarray(X.T),
                       knn_neighbors(X, 3), 0, dist, ptx, gram)
    assert (ptx == 7.0).all() and (gram == 7.0).all()


# ---------------------------------------------------------------- knn


@pytest.mark.parametrize("n", range(2, 10))
def test_knn_pair_groups_and_their_tails_match_the_oracles(n):
    """Point i's candidates after it run four at a time, so every n from
    2 to 9 leaves a different tail."""
    rng = np.random.default_rng(900 + n)
    for X in (rng.normal(size=(3, n)),
              rng.integers(-1, 2, size=(2, n)).astype(float),
              rng.normal(size=(4, 2))[:, rng.integers(0, 2, size=n)]):
        for k in range(1, n):
            got = knn_neighbors(X, k)
            assert got.tolist() == brute_force_knn(X, k)
            assert np.array_equal(got, cdist_knn(X, k))


@pytest.mark.parametrize("n", range(2, 10))
def test_knn_pair_group_distances_are_cdist_bits(n):
    rng = np.random.default_rng(950 + n)
    X = rng.normal(size=(37, n)) * np.logspace(-3, 3, 37)[:, None]
    neighbors = np.empty((n, n - 1), dtype=np.int64)
    dist = np.empty((n, n - 1))
    kernels().hgdl_knn(n, 37, n - 1, np.ascontiguousarray(X.T), neighbors,
                       dist)
    want = np.take_along_axis(cdist(X.T, X.T), neighbors, axis=1)
    assert _bits(dist) == _bits(want)


@pytest.mark.parametrize("n", range(4, 10))
def test_knn_pair_groups_rank_infinite_distances_by_index(n):
    """The last three columns lie near 1e200 apart, where every distance
    to them overflows to +inf; those rank by index, after every finite
    one."""
    rng = np.random.default_rng(990 + n)
    X = rng.normal(size=(2, n))
    X[:, -3:] = 1e200 * (1.0 + np.arange(3.0))
    assert np.isinf(cdist(X.T, X.T)[-1, :-1]).all()
    for k in range(1, n):
        got = knn_neighbors(X, k)
        with np.errstate(over="ignore"):
            assert got.tolist() == brute_force_knn(X, k)
        assert got[-1].tolist() == list(range(k))


# ---------------------------------------------------------------- admm


def _problems(rng, n, k, dim=8):
    P = rng.normal(size=(n, dim, k)) * rng.choice([0.1, 1.0, 3.0],
                                                  size=(n, 1, 1))
    x = rng.normal(size=(n, dim))
    return (np.transpose(P, (0, 2, 1)) @ P,
            np.einsum("ndk,nd->nk", P, x))


def _run_kernel(gram, ptx, epsilon, max_iter):
    """hgdl_admm as solve_attention_batch calls it, with its return value
    and every output, whether or not a problem diverged."""
    n, k = ptx.shape
    inverse = np.linalg.inv(gram + RHO * np.eye(k))
    z, q, m = np.zeros((3, n, k))
    iterations = np.zeros(n, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    diverged = kernels().hgdl_admm(
        n, k, inverse, np.ascontiguousarray(ptx), RHO, epsilon, TOL,
        max_iter, z, q, m, iterations, converged,
        np.empty(LANES * (k * k + 5 * k)))
    return diverged, (z, q, m, iterations, converged)


def _assert_admm_bits(gram, ptx, params):
    got = solve_attention_batch(gram, ptx, params)
    want = admm_batch(gram, ptx, params.epsilon, params.max_iter)
    for field, value in zip(ADMM_FIELDS, want):
        assert _bits(getattr(got, field)) == _bits(value), field
    return got


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("k", [1, 3, 10])
def test_admm_lanes_give_the_numpy_loop_bits_in_partial_groups(n, k):
    rng = np.random.default_rng(1000 + 10 * n + k)
    gram, ptx = _problems(rng, n, k)
    for max_iter in (1, 2, 200):
        _assert_admm_bits(gram, ptx,
                          AdmmParams(epsilon=0.05, max_iter=max_iter))


def test_admm_lanes_that_stop_apart_take_the_next_problems():
    """Problems that stop at many different iterations, so each lane
    takes new problems at its own times."""
    rng = np.random.default_rng(1100)
    gram, ptx = _problems(rng, 23, 5)
    gram[::4] *= 1e-3
    got = _assert_admm_bits(gram, ptx, AdmmParams(epsilon=0.05))
    assert len(set(got.iterations.tolist())) > 5
    assert got.converged.any() and not got.converged.all()


@pytest.mark.parametrize("n", [3, 6, 9])
def test_admm_divergence_in_lane_two_names_its_iteration_and_others_run_on(
        n):
    """Problem 2, in the first group's third lane, has P = 0 and
    P^T x = 0.5e308, so z overflows at iteration 4; the batch names
    iteration 4, as the numpy loop does, and every other problem ends as
    it would in a batch without problem 2."""
    rng = np.random.default_rng(1200 + n)
    gram, ptx = _problems(rng, n, 3)
    gram[2], ptx[2] = 0.0, 0.5e308
    params = AdmmParams(epsilon=0.05)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ArithmeticError) as want:
        admm_batch(gram, ptx, params.epsilon)
    with pytest.raises(NumericalError) as got:
        solve_attention_batch(gram, ptx, params)
    assert str(got.value) == str(want.value) == (
        "attention solver diverged at iteration 4")
    with np.errstate(over="ignore", invalid="ignore"):
        diverged, outputs = _run_kernel(gram, ptx, params.epsilon,
                                        params.max_iter)
    assert diverged == 4
    others = [c for c in range(n) if c != 2]
    alone = admm_batch(gram[others], ptx[others], params.epsilon)
    for field, mine, value in zip(ADMM_FIELDS, outputs, alone):
        assert _bits(mine[others]) == _bits(value), field
    assert outputs[3][2] == 0 and not outputs[4][2]


def test_admm_divergence_names_the_earliest_iteration_of_a_later_lane():
    """Problem 2 overflows at its iteration 4, and problem 8, which gets
    a lane only after others stop, at its iteration 2: the batch names
    iteration 2, the earliest of any problem, as the numpy loop does."""
    rng = np.random.default_rng(1300)
    gram, ptx = _problems(rng, 9, 3)
    gram[2], ptx[2] = 0.0, 0.5e308
    gram[8], ptx[8] = 0.0, [1.7e308, 1.0, -2.0]
    params = AdmmParams(epsilon=0.05)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ArithmeticError) as want:
        admm_batch(gram, ptx, params.epsilon)
    with pytest.raises(NumericalError) as got:
        solve_attention_batch(gram, ptx, params)
    assert str(got.value) == str(want.value) == (
        "attention solver diverged at iteration 2")
