"""Hypergraph construction, degrees, and normalized Laplacian."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from hgdl._native import kernels
from hgdl.attention import AdmmParams, solve_attention, solve_attention_batch
from hgdl.data import make_synthetic
from hgdl.errors import InputError, InternalError, ParameterError
from hgdl.harness import ExperimentConfig
from hgdl.hypergraph import (
    LB,
    SAF,
    UNLABELED,
    DegreePair,
    Hypergraph,
    HypergraphConfig,
    Incidence,
    build_laplacian,
    build_lb_hypergraph,
    build_saf_hypergraph,
    degrees,
    fuse,
    knn_neighbors,
    laplacian,
)
from oracles import (
    brute_force_knn,
    cd_lasso,
    cdist_knn,
    hypergraph_laplacian,
    literal_manifold_penalty,
    normalized_graph_laplacian,
    python_degrees,
    random_hypergraph,
    saf_incidence_two_loops,
    scipy_degrees,
    scipy_incidence,
    scipy_laplacian,
)

PARAMS = AdmmParams(epsilon=2.0 ** -6)


# ---------------------------------------------------------------- knn


def test_knn_matches_brute_force():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(7, 25))
    for k in (1, 3, 10):
        got = knn_neighbors(X, k)
        want = brute_force_knn(X, k)
        assert got.shape == (25, k)
        assert np.array_equal(got, np.asarray(want))


def test_knn_neighbors_owns_its_data():
    """No view into a larger buffer, which would keep it alive."""
    X = np.random.default_rng(12).normal(size=(5, 30))
    nbrs = knn_neighbors(X, 4)
    assert nbrs.base is None and nbrs.flags.owndata
    assert nbrs.shape == (30, 4)


def test_knn_tie_break_by_index():
    # columns 1 and 2 are both at distance 1 from column 0
    X = np.array([[0.0, 1.0, -1.0, 2.0], [0.0, 0.0, 0.0, 0.0]])
    nbrs = knn_neighbors(X, 2)
    assert nbrs[0].tolist() == [1, 2]
    # from column 3: distances 1 (col 1), 2 (col 0), 3 (col 2)
    assert nbrs[3].tolist() == [1, 0]


def test_knn_excludes_self():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(4, 12))
    nbrs = knn_neighbors(X, 11)
    for c in range(12):
        assert c not in nbrs[c]
        assert len(set(nbrs[c].tolist())) == 11


def test_knn_validation():
    X = np.zeros((3, 5))
    with pytest.raises(ParameterError):
        knn_neighbors(X, 0)
    with pytest.raises(ParameterError):
        knn_neighbors(X, 5)
    with pytest.raises(ParameterError):
        knn_neighbors(np.zeros(5), 2)
    bad = np.zeros((3, 5))
    bad[1, 2] = np.nan
    with pytest.raises(InputError):
        knn_neighbors(bad, 2)


def _assert_knn_is_cdist_knn(X, k):
    got = knn_neighbors(X, k)
    assert got.dtype == np.int64 and got.shape == (X.shape[1], k)
    assert np.array_equal(got, cdist_knn(X, k))


def test_knn_matches_cdist_on_duplicate_columns():
    rng = np.random.default_rng(13)
    base = rng.normal(size=(5, 6))
    X = base[:, [0, 1, 2, 0, 1, 3, 0, 4, 5, 2, 0]]
    for k in (1, 2, 3, 5, 10):
        _assert_knn_is_cdist_knn(X, k)
    # every column the same: all distances 0, neighbors by index
    _assert_knn_is_cdist_knn(np.ones((3, 7)), 4)


def test_knn_matches_cdist_on_integer_grids_with_exact_ties():
    # the 5 x 5 grid, its points in shuffled order: many exact ties
    grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0))).reshape(2, -1)
    X = grid[:, np.random.default_rng(14).permutation(25)]
    for k in (1, 4, 8, 12, 24):
        _assert_knn_is_cdist_knn(X, k)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        dim, n = int(rng.integers(1, 5)), int(rng.integers(2, 30))
        X = rng.integers(-2, 3, size=(dim, n)).astype(float)
        _assert_knn_is_cdist_knn(X, int(rng.integers(1, n)))


def test_knn_matches_cdist_at_every_other_column():
    rng = np.random.default_rng(15)
    for n in (2, 3, 17):
        _assert_knn_is_cdist_knn(rng.normal(size=(4, n)), n - 1)


def test_knn_matches_cdist_in_one_dimension():
    rng = np.random.default_rng(16)
    _assert_knn_is_cdist_knn(rng.normal(size=(1, 40)), 6)
    _assert_knn_is_cdist_knn(rng.integers(0, 4, size=(1, 30)).astype(float), 9)


def test_knn_overflowing_distances_rank_by_index():
    """A difference past 1e154 squares to +inf. Columns 0-5 lie near 0,
    6-8 near 1e200, too far apart to give a finite distance: each of 6-8
    has only +inf distances, which rank by index."""
    rng = np.random.default_rng(17)
    near = rng.normal(size=(3, 6))
    far = 1e200 * (1.0 + np.arange(3.0)) + rng.normal(size=(3, 3)) * 1e199
    X = np.hstack([near, far])
    assert np.isinf(cdist(X.T, X.T)[6:]).sum() == 3 * 8
    for k in (1, 3, 5):
        _assert_knn_is_cdist_knn(X, k)
    assert knn_neighbors(X, 5)[6:].tolist() == [[0, 1, 2, 3, 4]] * 3


def test_knn_never_ranks_a_column_itself_when_every_distance_overflows():
    """Every pair's distance is +inf, so each list is the other columns
    by index. cdist_knn puts +inf on its diagonal too, so it ranks
    columns 0 and 1 among their own neighbors here; knn_neighbors keeps
    its rule that a column is never its own neighbor."""
    X = np.array([[1e200, -1e200, 3e200, 5e200]])
    got = knn_neighbors(X, 2)
    assert got.tolist() == [[1, 2], [0, 2], [0, 1], [0, 1]]
    assert cdist_knn(X, 2)[:2].tolist() == [[0, 1], [0, 1]]
    assert knn_neighbors(X, 3).tolist() == [
        [c for c in range(4) if c != i] for i in range(4)]


def test_knn_matches_cdist_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        seed=st.integers(0, 2 ** 32 - 1),
        n=st.integers(2, 40),
        dim=st.integers(1, 8),
        k_share=st.floats(0.0, 1.0),
        values=st.sampled_from(["normal", "integers", "duplicates"]),
    )
    def check(seed, n, dim, k_share, values):
        rng = np.random.default_rng(seed)
        if values == "normal":
            X = rng.normal(size=(dim, n))
        elif values == "integers":
            X = rng.integers(-1, 2, size=(dim, n)).astype(float)
        else:
            X = rng.normal(size=(dim, 3))[:, rng.integers(0, 3, size=n)]
        k = 1 + min(n - 2, int(k_share * (n - 1)))
        _assert_knn_is_cdist_knn(X, k)

    check()


def test_knn_kernel_distances_are_cdist_bits():
    """With k = n - 1 the kernel's distances output holds every pair's
    distance, which must be cdist's value bit for bit."""
    rng = np.random.default_rng(18)
    X = rng.normal(size=(100, 60)) * np.logspace(-3, 3, 100)[:, None]
    n = X.shape[1]
    neighbors = np.empty((n, n - 1), dtype=np.int64)
    dist = np.empty((n, n - 1))
    kernels().hgdl_knn(n, X.shape[0], n - 1, np.ascontiguousarray(X.T),
                       neighbors, dist)
    want = np.take_along_axis(cdist(X.T, X.T), neighbors, axis=1)
    assert np.array_equal(dist.view(np.uint64), want.view(np.uint64))
    assert np.all(np.diff(dist, axis=1) >= 0)


@pytest.mark.parametrize("k", [2.5, 2.0, np.float64(2.0), "2", None],
                         ids=["2.5", "2.0", "numpy-2.0", "str", "None"])
def test_knn_rejects_a_non_integer_k_naming_the_flag(k):
    X = np.random.default_rng(19).normal(size=(3, 6))
    with pytest.raises(ParameterError, match="--knn.*integer"):
        knn_neighbors(X, k)
    with pytest.raises(ParameterError, match="--knn.*integer"):
        HypergraphConfig(admm=PARAMS, k_nn=k)


def test_knn_takes_a_numpy_integer_k():
    X = np.random.default_rng(20).normal(size=(3, 6))
    assert np.array_equal(knn_neighbors(X, np.int64(2)), knn_neighbors(X, 2))
    config = HypergraphConfig(admm=PARAMS, k_nn=np.int32(3))
    assert type(config.k_nn) is int and config.k_nn == 3


def test_export_laplacian_imports_neither_scipy_spatial_nor_linalg(tmp_path):
    """kNN is compiled, so an export loads no scipy.spatial, which would
    bring in scipy.linalg, scipy.special and their libraries with it."""
    script = (
        "import sys\n"
        "from hgdl import cli, data\n"
        "b = data.make_synthetic(3, 4, 3, 8, 0.3, 0)\n"
        f"train, test = {str(tmp_path / 'train.csv')!r}, "
        f"{str(tmp_path / 'test.csv')!r}\n"
        "data.save_csv(train, b.train_features, b.train_labels)\n"
        "data.save_csv(test, b.test_features, b.test_labels)\n"
        "assert cli.main(['export-laplacian', '--train', train, '--test',"
        f" test, '--out', {str(tmp_path / 'l.binmat')!r}, '--mode',"
        " 'transductive', '--knn', '3']) == 0\n"
        "loaded = [m for m in ('scipy.spatial', 'scipy.linalg')"
        " if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (tmp_path / "l.binmat").stat().st_size > 0


# ---------------------------------------------------------------- saf modal


def _canonical(H):
    """Whether every column's rows ascend strictly, as in a canonical
    compressed-column matrix: no duplicates, no unsorted entries."""
    edge = H.edge_of_entries()
    return bool(np.all(np.diff(edge * H.shape[0] + H.indices) > 0))


def test_saf_shape_and_center_entries():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(6, 15))
    hg = build_saf_hypergraph(X, 4, PARAMS)
    assert hg.incidence.shape == (15, 15)
    assert np.array_equal(np.diag(hg.incidence.toarray()), np.ones(15))
    assert np.array_equal(hg.edge_weights, np.ones(15))
    assert all(t == SAF for t in hg.modal_tags)
    # each edge touches only the center and its knn
    nbrs = knn_neighbors(X, 4)
    for c in range(15):
        support = set(np.flatnonzero(hg.incidence.toarray()[:, c]).tolist())
        assert support <= set(nbrs[c].tolist()) | {c}


def test_saf_entries_without_attention():
    """With attention off, entries are the plain Gaussian of scaled distance."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(5, 10))
    hg = build_saf_hypergraph(X, 3, PARAMS, use_attention=False)
    H = hg.incidence.toarray()
    nbrs = brute_force_knn(X, 3)
    for c in range(10):
        dists = [float(np.linalg.norm(X[:, v] - X[:, c])) for v in nbrs[c]]
        sigma = sum(dists) / 3.0
        for v, d in zip(nbrs[c], dists):
            if v == c:
                continue
            assert H[v, c] == pytest.approx(
                np.exp(-((d / sigma) ** 2)), abs=1e-12
            )
        assert H[c, c] == 1.0


def test_saf_attention_concentrates_on_duplicate():
    """An exact duplicate neighbor absorbs the weight; orthogonal far
    neighbors are pruned to zero by the sparsity penalty."""
    eps = 2.0 ** -6
    X = np.zeros((8, 6))
    X[0, 0] = 1.0
    X[0, 1] = 1.0  # duplicate of column 0
    for j in range(2, 6):
        X[j, j] = 3.0
    hg = build_saf_hypergraph(X, 5, AdmmParams(epsilon=eps))
    col = hg.incidence.toarray()[:, 0]
    # orthogonal design: the lasso solution is (1 - eps) on the duplicate
    assert col[1] == pytest.approx(1.0 - eps, abs=1e-5)
    assert np.all(col[2:] <= 1e-6)
    assert col[0] == 1.0


def test_saf_entries_match_cd_oracle():
    """Entry formula checked against an independent lasso solver."""
    rng = np.random.default_rng(77)
    X = rng.normal(size=(12, 14))
    k = 6
    eps = 0.05
    hg = build_saf_hypergraph(X, k, AdmmParams(epsilon=eps))
    nbrs = brute_force_knn(X, k)
    for c in (0, 7, 13):
        idx = np.asarray(nbrs[c])
        dist = np.asarray(
            [float(np.linalg.norm(X[:, v] - X[:, c])) for v in idx]
        )
        sigma = float(np.mean(dist))
        q = cd_lasso(X[:, c], X[:, idx], eps)
        want = np.exp(-((dist / sigma) ** 2)) * np.maximum(q, 0.0)
        assert np.allclose(hg.incidence.toarray()[idx, c], want, atol=1e-4)


def test_saf_identical_columns_uses_unit_bandwidth():
    # all-equal columns: every distance is 0, sigma falls back to 1.0
    X = np.ones((4, 5))
    hg = build_saf_hypergraph(X, 2, PARAMS, use_attention=False)
    for c in range(5):
        support = np.flatnonzero(hg.incidence.toarray()[:, c])
        assert np.array_equal(hg.incidence.toarray()[support, c],
                              np.ones(len(support)))
    with_attention = build_saf_hypergraph(X, 2, PARAMS)
    assert np.all(np.isfinite(with_attention.incidence.toarray()))
    assert np.all(with_attention.incidence.toarray() >= 0.0)


def _per_center_incidence(X, k, params):
    """The SAF incidence one center at a time, from single solves."""
    n = X.shape[1]
    nbrs = knn_neighbors(X, k)
    H = np.eye(n)
    for c in range(n):
        idx = nbrs[c]
        dist = np.linalg.norm(X[:, idx] - X[:, [c]], axis=0)
        sigma = float(np.mean(dist)) or 1.0
        sol = solve_attention(X[:, c], X[:, idx], params)
        H[idx, c] = np.exp(-((dist / sigma) ** 2)) * np.maximum(sol.q, 0.0)
    return H


def test_saf_batch_matches_per_center_solves():
    rng = np.random.default_rng(78)
    X = rng.normal(size=(9, 16))
    X[:, 1:4] = X[:, [0]]  # center 0's three neighbors coincide with it
    X[:, 5] = X[:, 6]  # a duplicate pair
    for params in (PARAMS, AdmmParams(epsilon=0.05, max_iter=2)):
        want = _per_center_incidence(X, 3, params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = build_saf_hypergraph(X, 3, params).incidence.toarray()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [83, 84, 85])
@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("use_attention", [True, False])
def test_saf_incidence_matches_the_two_loop_construction_bitwise(
        seed, k, use_attention):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(9, 24))
    X[:, 3] = X[:, 4]  # a duplicate pair
    params = AdmmParams(epsilon=2.0 ** -4, max_iter=30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = build_saf_hypergraph(X, k, params, use_attention)
        solve = None
        if use_attention:
            def solve(gram, ptx):
                return solve_attention_batch(gram, ptx, params).q
        want = saf_incidence_two_loops(X, knn_neighbors(X, k), solve)
    assert np.array_equal(got.incidence.toarray(), want)


def test_saf_warns_once_with_the_capped_count():
    rng = np.random.default_rng(79)
    X = rng.normal(size=(6, 12))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_saf_hypergraph(X, 4, AdmmParams(epsilon=0.05, max_iter=2))
    messages = [str(w.message) for w in caught]
    assert messages == [
        "12 of 12 attention solves hit max_iter (2); "
        "they keep their last iterate"
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_saf_hypergraph(X, 4, PARAMS, use_attention=False)


def test_saf_incidence_is_csc_with_k_plus_one_entries_per_edge():
    rng = np.random.default_rng(82)
    X = rng.normal(size=(6, 20))
    for use_attention in (True, False):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            hg = build_saf_hypergraph(X, 4, PARAMS, use_attention)
        H = hg.incidence
        assert isinstance(H, Incidence)
        # zero attention weights stay stored: the pattern is the knn one
        assert H.nnz == 20 * 5
        assert np.array_equal(np.diff(H.indptr), np.full(20, 5))
        assert _canonical(H)


def test_saf_rejects_k_nn_not_below_vertex_count():
    X = np.random.default_rng(80).normal(size=(4, 6))
    for k in (6, 10):
        with pytest.raises(ParameterError,
                           match=rf"--knn.*vertices \(6\), got {k}"):
            build_saf_hypergraph(X, k, PARAMS)


# ---------------------------------------------------------------- label modal


def test_lb_basic():
    labels = np.array([0, 1, 0, UNLABELED, 2])
    hg = build_lb_hypergraph(labels)
    assert hg.incidence.shape == (5, 3)
    assert np.array_equal(
        hg.incidence.toarray(),
        np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        ),
    )
    assert all(t == LB for t in hg.modal_tags)
    assert np.array_equal(hg.edge_weights, np.ones(3))


def test_lb_skips_absent_classes():
    labels = np.array([0, 2, 0])
    hg = build_lb_hypergraph(labels)  # class 1 never appears
    assert hg.incidence.shape == (3, 2)


def test_lb_all_unlabeled_is_empty():
    hg = build_lb_hypergraph(np.full(4, UNLABELED))
    assert hg.incidence.shape == (4, 0)
    assert hg.n_edges == 0


def test_lb_validation():
    with pytest.raises(InputError):
        build_lb_hypergraph(np.array([0.0, 1.0]))
    with pytest.raises(InputError):
        build_lb_hypergraph(np.array([0, -2]))
    with pytest.raises(ParameterError):
        build_lb_hypergraph(np.array([], dtype=int))


# ---------------------------------------------------------------- fuse


def test_fuse_concatenates_in_order():
    a = Hypergraph(np.eye(3), np.ones(3), np.asarray([SAF] * 3))
    b = Hypergraph(np.ones((3, 2)), np.full(2, 2.0), np.asarray([LB] * 2))
    fused = fuse(a, b)
    assert fused.incidence.shape == (3, 5)
    assert np.array_equal(fused.incidence.toarray()[:, :3], np.eye(3))
    assert np.array_equal(fused.incidence.toarray()[:, 3:], np.ones((3, 2)))
    assert fused.edge_weights.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0]
    assert fused.modal_tags.tolist() == [SAF, SAF, SAF, LB, LB]


def test_fuse_rejects_vertex_mismatch():
    a = Hypergraph(np.eye(3), np.ones(3), np.asarray([SAF] * 3))
    b = Hypergraph(np.eye(4), np.ones(4), np.asarray([LB] * 4))
    with pytest.raises(ParameterError):
        fuse(a, b)


def test_hypergraph_validation():
    with pytest.raises(InputError):
        Hypergraph(-np.eye(2), np.ones(2), np.asarray([SAF] * 2))
    with pytest.raises(InputError):
        Hypergraph(np.eye(2), np.array([1.0, 0.0]), np.asarray([SAF] * 2))
    with pytest.raises(ParameterError):
        Hypergraph(np.eye(2), np.ones(3), np.asarray([SAF] * 3))
    with pytest.raises(ParameterError):
        Hypergraph(np.ones(3), np.ones(1), np.asarray([SAF]))


def test_dense_and_csc_inputs_reduce_identically():
    rng = np.random.default_rng(37)
    for _ in range(5):
        H, W = random_hypergraph(rng, 11, 6)
        tags = np.asarray([SAF] * 6)
        dense_hg, dense_deg = degrees(Hypergraph(H, W, tags))
        sparse_hg, sparse_deg = degrees(Hypergraph(sp.csc_array(H), W, tags))
        for a, b in ((dense_deg.vertex_degrees, sparse_deg.vertex_degrees),
                     (dense_deg.edge_degrees, sparse_deg.edge_degrees),
                     (laplacian(dense_hg, dense_deg),
                      laplacian(sparse_hg, sparse_deg))):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_sparse_input_is_validated_and_canonicalized():
    bad = sp.csc_array(np.eye(2))
    bad.data[1] = -1.0
    with pytest.raises(InputError):
        Hypergraph(bad, np.ones(2), np.asarray([SAF] * 2))
    bad.data[1] = np.inf
    with pytest.raises(InputError):
        Hypergraph(bad, np.ones(2), np.asarray([SAF] * 2))
    # unsorted rows and a duplicate entry, as COO triplets would give
    raw = sp.csc_array((np.array([0.25, 1.0, 0.5]), np.array([1, 0, 1]),
                        np.array([0, 3])), shape=(2, 1))
    hg = Hypergraph(raw, np.ones(1), np.asarray([SAF]))
    assert _canonical(hg.incidence)
    assert hg.incidence.toarray().tolist() == [[1.0], [0.75]]
    assert raw.nnz == 3  # the input is left as it was


def test_sparse_input_with_a_row_index_past_its_shape_is_refused():
    """scipy keeps such an index; the compiled Laplacian would write past
    its (n, n) output with it."""
    bad = sp.csc_array((np.array([1.0, 0.5]), np.array([0, 5]),
                        np.array([0, 1, 2])), shape=(2, 2))
    with pytest.raises(ParameterError, match="indices outside its shape"):
        Hypergraph(bad, np.ones(2), np.asarray([SAF] * 2))


def test_a_csr_input_with_a_column_index_past_its_shape_is_refused():
    """scipy's constructor does not check the index, and its own tocsc()
    writes through it: the process crashed before any check of hgdl."""
    bad = sp.csr_array((np.array([1.0, 0.5]), np.array([0, 10 ** 6]),
                        np.array([0, 1, 2])), shape=(2, 2))
    with pytest.raises(ParameterError, match="indices outside its shape"):
        Hypergraph(bad, np.ones(2), np.asarray([SAF] * 2))
    assert bad.indices.tolist() == [0, 10 ** 6]


def test_all_unlabeled_label_graph_fuses_and_reduces():
    rng = np.random.default_rng(71)
    X = rng.normal(size=(5, 12))
    saf = build_saf_hypergraph(X, 3, PARAMS)
    lb = build_lb_hypergraph(np.full(12, UNLABELED))
    fused = fuse(saf, lb)
    assert isinstance(fused.incidence, Incidence)
    assert fused.incidence.shape == (12, 12)
    assert fused.modal_tags.tolist() == [SAF] * 12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hg, deg = degrees(fused)
    assert np.array_equal(laplacian(hg, deg), laplacian(*degrees(saf)))
    config = HypergraphConfig(admm=PARAMS, k_nn=3)
    assert np.array_equal(
        build_laplacian(X, np.full(12, UNLABELED), config),
        build_laplacian(X, None, config))


# ---------------------------------------------------------------- degrees


def test_degrees_match_python_loops_exactly():
    rng = np.random.default_rng(31)
    for _ in range(10):
        H, W = random_hypergraph(rng, 9, 6)
        hg = Hypergraph(H, W, np.asarray([SAF] * 6))
        same, deg = degrees(hg)
        assert same is hg
        vertex, edge = python_degrees(H, W)
        # cumsum folds in the same ascending order as the loops
        assert np.array_equal(deg.edge_degrees, np.asarray(edge))
        assert np.array_equal(deg.vertex_degrees, np.asarray(vertex))


def test_degrees_drop_zero_edges_with_warning():
    H = np.array([[1.0, 0.0, 0.5], [0.5, 0.0, 1.0]])
    hg = Hypergraph(H, np.ones(3), np.asarray([SAF, LB, SAF]))
    with pytest.warns(RuntimeWarning, match="zero degree"):
        kept, deg = degrees(hg)
    assert kept.n_edges == 2
    assert kept.modal_tags.tolist() == [SAF, SAF]
    assert deg.edge_degrees.tolist() == [1.5, 1.5]


def test_degrees_zero_vertex_is_internal_error():
    H = np.array([[1.0], [0.0]])  # vertex 1 sits in no edge
    hg = Hypergraph(H, np.ones(1), np.asarray([SAF]))
    with pytest.raises(InternalError):
        degrees(hg)


# ---------------------------------------------------------------- laplacian


def test_laplacian_single_all_vertex_edge():
    n = 6
    hg = Hypergraph(np.ones((n, 1)), np.ones(1), np.asarray([SAF]))
    hg, deg = degrees(hg)
    lap = laplacian(hg, deg)
    want = np.eye(n) - np.full((n, n), 1.0 / n)
    assert np.allclose(lap, want, atol=1e-15)


def test_laplacian_size2_edges_match_graph_oracle():
    # every hyperedge of size two: the hypergraph laplacian equals half
    # the usual normalized graph laplacian
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 2)]
    n = 4
    H = np.zeros((n, len(edges)))
    for e, (u, v) in enumerate(edges):
        H[u, e] = 1.0
        H[v, e] = 1.0
    hg = Hypergraph(H, np.ones(len(edges)), np.asarray([SAF] * len(edges)))
    hg, deg = degrees(hg)
    lap = laplacian(hg, deg)
    want = normalized_graph_laplacian(n, edges) / 2.0
    assert np.allclose(lap, want, atol=1e-12)


def test_laplacian_symmetric_psd_and_null_vector():
    rng = np.random.default_rng(47)
    for _ in range(20):
        H, W = random_hypergraph(rng, 12, 7)
        hg = Hypergraph(H, W, np.asarray([SAF] * 7))
        hg, deg = degrees(hg)
        lap = laplacian(hg, deg)
        assert np.array_equal(lap, lap.T)
        eigs = np.linalg.eigvalsh(lap)
        assert eigs.min() >= -1e-8
        # sqrt of the vertex degrees spans the exact null space
        null = np.sqrt(deg.vertex_degrees)
        assert np.max(np.abs(lap @ null)) <= 1e-10


def test_trace_identity_matches_literal_double_sum():
    rng = np.random.default_rng(53)
    for _ in range(8):
        H, W = random_hypergraph(rng, 10, 5)
        hg = Hypergraph(H, W, np.asarray([SAF] * 5))
        hg, deg = degrees(hg)
        lap = laplacian(hg, deg)
        S = rng.normal(size=(3, 10))
        fast = float(np.sum((S @ lap) * S))
        slow = literal_manifold_penalty(H, W, S)
        assert fast == pytest.approx(slow, rel=1e-9)


def test_laplacian_matches_dense_oracle():
    rng = np.random.default_rng(59)
    cases = [random_hypergraph(rng, n, m) for n, m in ((6, 3), (15, 8),
                                                       (30, 12))]
    H, W = random_hypergraph(rng, 10, 5)
    cases.append((np.insert(H, 2, 0.0, axis=1), np.insert(W, 2, 1.5)))
    for H, W in cases:
        hg = Hypergraph(H, W, np.asarray([SAF] * H.shape[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            lap = laplacian(*degrees(hg))
        assert lap.dtype == np.float64 and isinstance(lap, np.ndarray)
        np.testing.assert_allclose(lap, hypergraph_laplacian(H, W),
                                   rtol=0, atol=1e-12)


def test_build_laplacian_matches_dense_oracle():
    """Fused SAF + label graph with UNLABELED vertices, the label columns
    written out by hand."""
    rng = np.random.default_rng(83)
    X = rng.normal(size=(7, 24))
    labels = np.tile([0, 2, UNLABELED, 1, UNLABELED, 2], 4)
    config = HypergraphConfig(admm=PARAMS, k_nn=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = build_laplacian(X, labels, config)
        saf = build_saf_hypergraph(X, 5, PARAMS).incidence.toarray()
    label_columns = [(labels == c).astype(float) for c in (0, 1, 2)]
    H = np.column_stack([saf] + label_columns)
    want = hypergraph_laplacian(H, np.ones(H.shape[1]))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(got, got.T)


def test_laplacian_rejects_bad_degrees():
    hg = Hypergraph(np.ones((3, 2)), np.ones(2), np.asarray([SAF] * 2))
    with pytest.raises(ParameterError):
        laplacian(hg, DegreePair(np.ones(2), np.ones(2)))
    with pytest.raises(InternalError):
        laplacian(hg, DegreePair(np.zeros(3), np.ones(2)))


# ---------------------------------------------------------------- scipy oracle


def _same_bits(*pairs):
    return all(np.asarray(a).shape == np.asarray(b).shape
               and np.asarray(a).tobytes() == np.asarray(b).tobytes()
               for a, b in pairs)


def _reduced_both_ways(H, W):
    """degrees() and laplacian() of the incidence H, and the scipy
    oracles of the same, as (vertex, edge, L) triples."""
    hg, deg = degrees(Hypergraph(H, W, np.asarray([SAF] * len(W))))
    got = (deg.vertex_degrees, deg.edge_degrees, laplacian(hg, deg))
    H, W, vertex, edge = scipy_degrees(scipy_incidence(H), np.asarray(W))
    return got, (vertex, edge, scipy_laplacian(H, W, vertex, edge))


def _with_stored_zeros(rng, H, stored=None):
    """H as COO triplets, with a stored 0.0 in about a third of the
    places where H is zero, as zero attention weights are stored, or
    else in the places where the boolean mask stored is set."""
    if stored is None:
        stored = rng.random(H.shape) < 0.3
    rows, cols = np.nonzero((H != 0) | stored)
    return sp.coo_array((H[rows, cols], (rows, cols)), shape=H.shape)


def test_degrees_and_laplacian_match_scipy_with_stored_zeros():
    rng = np.random.default_rng(90)
    for n, m in ((5, 3), (12, 7), (40, 25), (60, 80)):
        H, W = random_hypergraph(rng, n, m, density=0.3)
        sparse = _with_stored_zeros(rng, H)
        assert sparse.nnz > np.count_nonzero(H)
        hg = Hypergraph(sparse, W, np.asarray([SAF] * m))
        assert hg.incidence.nnz == sparse.nnz
        got, want = _reduced_both_ways(sparse, W)
        assert _same_bits(*zip(got, want))


def test_dropped_zero_degree_edges_match_scipy():
    """An edge of stored zeros and an empty edge are dropped, as the
    scipy code dropped them, and the rest reduce to its bits."""
    rng = np.random.default_rng(91)
    H, W = random_hypergraph(rng, 14, 6, density=0.4)
    H = np.insert(H, [1, 4], 0.0, axis=1)  # zero columns 1 and 5
    W = np.insert(W, [1, 4], [2.0, 0.5])
    stored = rng.random(H.shape) < 0.3
    stored[:, 1] = True
    stored[:, 5] = False
    sparse = _with_stored_zeros(rng, H, stored)
    with pytest.warns(RuntimeWarning, match="dropping 2 hyperedge"):
        got, want = _reduced_both_ways(sparse, W)
    assert _same_bits(*zip(got, want))


@pytest.mark.parametrize("form", ["csc", "csr", "coo"])
def test_scipy_inputs_with_unsorted_rows_and_duplicates_match_scipy(form):
    """Each entry split into up to three stored parts, in shuffled
    order: the input's own tocsc and sum_duplicates add them up, as the
    scipy code's csc_array copy did."""
    rng = np.random.default_rng(92)
    H, W = random_hypergraph(rng, 20, 9)
    rows, cols = np.nonzero(H)
    parts = rng.integers(1, 4, rows.size)
    rows, cols = np.repeat(rows, parts), np.repeat(cols, parts)
    values = H[rows, cols] * rng.random(rows.size)
    order = rng.permutation(rows.size)
    rows, cols, values = rows[order], cols[order], values[order]
    if form == "coo":
        sparse = sp.coo_array((values, (rows, cols)), shape=H.shape)
    else:
        major, minor = (cols, rows) if form == "csc" else (rows, cols)
        by_major = np.argsort(major, kind="stable")
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(major, minlength=H.shape[
                1 if form == "csc" else 0]))])
        make = sp.csc_array if form == "csc" else sp.csr_array
        sparse = make((values[by_major], minor[by_major], indptr),
                      shape=H.shape)
        assert not sparse.has_canonical_format
    nnz = sparse.nnz
    got, want = _reduced_both_ways(sparse, W)
    assert _same_bits(*zip(got, want))
    assert sparse.nnz == nnz  # the input is left as it was


@pytest.mark.parametrize("per_class", [6, 32, 100])
def test_build_laplacian_matches_the_scipy_oracle_bitwise(per_class):
    """The fused SAF + label Laplacian of 60, 320 and 1000 synthetic
    columns, each modal's incidence rebuilt as scipy triplets, reduces to
    the scipy code's bits."""
    bundle = make_synthetic(10, per_class, 0, 100, 0.3, 1)
    X, labels = bundle.train_features, bundle.train_labels
    config = ExperimentConfig().hypergraph_config()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = build_laplacian(X, labels, config)
        modals = [build_saf_hypergraph(X, config.k_nn, config.admm),
                  build_lb_hypergraph(labels)]
    triplets = [
        sp.csc_array((H.data, (H.indices, H.edge_of_entries())), shape=H.shape)
        for H in (hg.incidence for hg in modals)
    ]
    H = sp.hstack(triplets, format="csc")
    W = np.concatenate([hg.edge_weights for hg in modals])
    want = scipy_laplacian(*scipy_degrees(scipy_incidence(H), W))
    assert _same_bits((got, want))


# ---------------------------------------------------------------- composition


def test_build_laplacian_independent_of_memory_layout():
    rng = np.random.default_rng(81)
    X = rng.normal(size=(11, 30))
    labels = np.repeat([0, 1, 2, UNLABELED, UNLABELED], 6)
    config = HypergraphConfig(admm=PARAMS, k_nn=4)
    want = build_laplacian(X, labels, config)
    for variant in (np.asfortranarray(X), np.repeat(X, 2, axis=1)[:, ::2]):
        got = build_laplacian(variant, labels, config)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_build_laplacian_matches_manual_composition():
    rng = np.random.default_rng(61)
    X = rng.normal(size=(6, 18))
    labels = np.asarray([0, 1, 2] * 6)
    config = HypergraphConfig(admm=PARAMS, k_nn=4)
    got = build_laplacian(X, labels, config)
    saf = build_saf_hypergraph(X, 4, PARAMS)
    hg, deg = degrees(fuse(saf, build_lb_hypergraph(labels)))
    want = laplacian(hg, deg)
    assert np.array_equal(got, want)


def test_build_laplacian_without_labels():
    rng = np.random.default_rng(67)
    X = rng.normal(size=(5, 12))
    config = HypergraphConfig(admm=PARAMS, k_nn=3, use_labels=False)
    got = build_laplacian(X, np.zeros(12, dtype=int), config)
    also = build_laplacian(X, None, HypergraphConfig(admm=PARAMS, k_nn=3))
    assert np.array_equal(got, also)
    saf = build_saf_hypergraph(X, 3, PARAMS)
    hg, deg = degrees(saf)
    assert np.array_equal(got, laplacian(hg, deg))


def test_config_validation():
    with pytest.raises(ParameterError):
        HypergraphConfig(admm=PARAMS, k_nn=0)
