"""The threads of the beta = 0 kernels and numpy's BLAS: hgdl_lasso_sweep
and hgdl_encode give one thread's bits, statuses and counts on two, and
hgdl's calls hold numpy's BLAS to one thread while they run, then put
the caller's count back."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from hgdl import _native, dictlearn, harness
from hgdl._native import kernels
from hgdl.data import make_synthetic
from hgdl.dictlearn import (
    CURVATURE_FLOOR,
    ENCODE_REL_TOL,
    DictLearnParams,
    NumericalError,
    train,
    update_codes,
)
from hgdl.harness import ExperimentConfig


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _dictionary(rng, dim, n_atoms):
    D = rng.normal(size=(dim, n_atoms))
    return D / np.linalg.norm(D, axis=0)


def _sweep(D, X, S, alpha, threads):
    """(status, codes, field) of one hgdl_lasso_sweep from the codes S,
    with the field formed as update_codes forms it."""
    gram = D.T @ D
    gdiag = gram.diagonal().copy()
    np.fill_diagonal(gram, 0.0)
    codes = np.array(S, order="C")
    field = np.ascontiguousarray((D.T @ X).T - codes.T @ gram)
    status = kernels().hgdl_lasso_sweep(
        X.shape[1], D.shape[1], gram, gdiag, alpha, CURVATURE_FLOOR, codes,
        field, threads)
    return status, codes, field


def _encode(D, Y, gamma, max_sweeps, threads):
    """(status, codes, sweeps, change) of one hgdl_encode call."""
    (dim, n), n_atoms = Y.shape, D.shape[1]
    codes = np.empty((n_atoms, n))
    sweeps = np.zeros(1, dtype=np.int64)
    change = np.zeros(1)
    status = kernels().hgdl_encode(
        dim, n_atoms, n, np.ascontiguousarray(D), np.ascontiguousarray(Y),
        gamma, CURVATURE_FLOOR, ENCODE_REL_TOL, max_sweeps, codes,
        np.empty((n, n_atoms)), np.empty((n, n_atoms)),
        np.empty((n_atoms, n_atoms)), np.empty(n_atoms), np.empty(n),
        np.empty((2, n)), sweeps, change, threads)
    return status, codes, int(sweeps[0]), change


# a partial block, one block, one column past it, two blocks and one,
# and 25 blocks, split 13 to 12; at 1, 15 and 16 columns one thread runs
COLUMNS = [1, 15, 16, 17, 33, 400]


@pytest.mark.parametrize("n_atoms", [11, 200])
@pytest.mark.parametrize("n", COLUMNS)
def test_two_thread_lasso_sweeps_give_one_threads_bits(n, n_atoms):
    rng = np.random.default_rng(n * n_atoms)
    D = _dictionary(rng, 30, n_atoms)
    X = rng.normal(size=(30, n))
    S = rng.normal(size=(n_atoms, n)) * (rng.random((n_atoms, n)) < 0.3)
    for _ in range(3):
        status, codes, field = _sweep(D, X, S, 0.05, 1)
        assert status == -1
        for threads in (2, 3):
            got = _sweep(D, X, S, 0.05, threads)
            assert got[0] == status
            assert _same_bits(got[1], codes) and _same_bits(got[2], field)
        S = codes


@pytest.mark.parametrize("n_atoms", [11, 200])
@pytest.mark.parametrize("n", COLUMNS)
@pytest.mark.parametrize("max_sweeps", [3, 40])
def test_two_thread_encoding_gives_one_threads_bits(n, n_atoms, max_sweeps):
    """The codes, the status, the sweeps run and the last change: capped
    at 3 sweeps, and at 40, by which the smaller problems converge."""
    rng = np.random.default_rng(n + n_atoms)
    D = _dictionary(rng, 30, n_atoms)
    Y = D[:, rng.integers(n_atoms, size=n)] + 0.3 * rng.normal(size=(30, n))
    status, codes, sweeps, change = _encode(D, Y, 0.05, max_sweeps, 1)
    if max_sweeps == 3:
        assert (status, sweeps) == (-2, 3)
    for threads in (2, 3):
        got = _encode(D, Y, 0.05, max_sweeps, threads)
        assert got[0] == status and got[2] == sweeps
        assert _same_bits(got[1], codes) and _same_bits(got[3], change)


def _failing_columns(failing):
    """(Y, D): 40 columns, so blocks 0-1 (columns 0-31) are part 0 and
    block 2 part 1, on a dictionary whose atoms 0 and 2 have curvature
    9e-12; failing maps a column to the atom at which its step on a
    linear term of 3e299 overflows."""
    D = np.diag([3e-6, 1.0, 3e-6])
    Y = np.random.default_rng(53).normal(size=(3, 40))
    for column, atom in failing.items():
        Y[:, column] = 0.0
        Y[atom, column] = 1e305
    return Y, D


@pytest.mark.parametrize("failing, first", [
    ({1: 2, 35: 0}, (1, 2)),    # in both parts: part 0's, though later
    ({35: 0}, (35, 0)),         # in part 1 only
    ({33: 2, 35: 0}, (33, 2)),  # two in part 1: the first in sample order
])
def test_a_failure_in_either_part_is_reported_in_sample_order(failing, first):
    Y, D = _failing_columns(failing)
    want = first[0] * 3 + first[1]
    with np.errstate(over="ignore"):
        for threads in (1, 2):
            assert _sweep(D, Y, np.zeros((3, 40)), 0.1, threads)[0] == want
            status, _, sweeps, _ = _encode(D, Y, 0.1, 500, threads)
            assert (status, sweeps) == (want, 1)


def _in_threads(work, count):
    """work(i) on count Python threads at once, with a short switch
    interval so that they interleave often; joins each within a minute."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_two_thread_encodings_give_one_threads_bits():
    """Four callers at once, each with its own second thread, on two
    CPUs or fewer: the kernels share no state between calls."""
    rng = np.random.default_rng(55)
    D = _dictionary(rng, 30, 11)
    Y = D[:, rng.integers(11, size=40)] + 0.3 * rng.normal(size=(30, 40))
    want = _encode(D, Y, 0.05, 200, 1)
    got = [None] * 4

    def work(i):
        got[i] = [_encode(D, Y, 0.05, 200, 2) for _ in range(5)]

    _in_threads(work, 4)
    for results in got:
        for status, codes, sweeps, change in results:
            assert (status, sweeps) == want[::2]
            assert _same_bits(codes, want[1]) and _same_bits(change, want[3])


def test_the_work_floor_keeps_small_sweeps_on_one_thread():
    assert _native.lasso_threads(120, 60) == 1
    want = 1 if _native.blas_threads() is None else min(
        2, len(os.sched_getaffinity(0)))
    assert _native.lasso_threads(400, 200) == want


needs_blas_threads = pytest.mark.skipif(
    _native.blas_threads() is None,
    reason="numpy's BLAS has no thread count that hgdl can set")


@pytest.fixture
def blas_count():
    """numpy's BLAS set to two threads for the test, if it takes two, and
    put back after it; yields the count the test starts with."""
    get, put = _native.blas_threads()
    before = get()
    put(2)
    yield get()
    put(before)


@needs_blas_threads
def test_harness_run_puts_the_callers_blas_count_back(blas_count,
                                                      monkeypatch):
    get = _native.blas_threads()[0]
    inside = []
    fit = dictlearn.fit_classifier

    def recording(*args, **kwargs):
        inside.append(get())
        return fit(*args, **kwargs)

    monkeypatch.setattr(dictlearn, "fit_classifier", recording)
    bundle = make_synthetic(3, 4, 3, 8, 0.3, 3)
    harness.run(ExperimentConfig(beta=0.0, dict_size=12, seed=3), bundle)
    assert inside == [1]
    assert get() == blas_count


@needs_blas_threads
def test_train_puts_the_callers_blas_count_back(blas_count):
    get = _native.blas_threads()[0]
    inside = []
    X = np.random.default_rng(5).normal(size=(8, 30))
    params = DictLearnParams(n_atoms=6, alpha=0.05, beta=0.0,
                             max_outer_iter=3)
    train(X, None, params, callback=lambda *args: inside.append(get()))
    assert inside == [1] * 4
    assert get() == blas_count


@needs_blas_threads
def test_a_call_that_raises_puts_the_callers_blas_count_back(blas_count):
    Y, D = _failing_columns({1: 2})
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        update_codes(Y, D, np.zeros((3, 40)), None, 0.1, 0.0)
    assert _native.blas_threads()[0]() == blas_count


@needs_blas_threads
def test_concurrent_calls_share_one_pin(blas_count):
    """Four Python threads in and out of pinned calls at once: each call
    sees one BLAS thread, and the last to leave puts the count back."""
    get = _native.blas_threads()[0]
    seen = []
    pinned = _native.one_blas_thread(lambda: seen.append(get()))

    def work(i):
        for _ in range(200):
            pinned()

    _in_threads(work, 4)
    assert seen == [1] * 800
    assert get() == blas_count


TRAIN = """
import hashlib
import numpy as np
from hgdl.dictlearn import DictLearnParams, train
from hgdl.data import make_synthetic
X = make_synthetic(10, 40, 1, 100, 0.3, 2).train_features
D, S, trace = train(X, None, DictLearnParams(
    n_atoms=200, alpha=2.0 ** -6, beta=0.0, max_outer_iter=5, seed=3))
print(hashlib.sha256(D.tobytes() + S.tobytes()
                     + trace.tobytes()).hexdigest())
"""


@needs_blas_threads
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one usable CPU runs BLAS on one thread anyway")
def test_beta_zero_train_gives_the_same_bits_whatever_blas_count():
    """K = 200 atoms on n = 400 columns, as the fit-beta0 workload trains:
    OpenBLAS splits these products over its threads, which moved bits
    before hgdl held it to one."""
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                           "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    digests = [
        subprocess.run([sys.executable, "-c", TRAIN], env={**env, **extra},
                       check=True, capture_output=True,
                       text=True).stdout
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})]
    assert digests[0] == digests[1] != ""
