"""The kernels' array arguments: each kind is checked before its kernel
runs, and read-only inputs are accepted."""

import ctypes

import numpy as np
import pytest

from hgdl._native import kernels
from hgdl.attention import RHO, TOL
from hgdl.dictlearn import CURVATURE_FLOOR


def _admm_args():
    """A valid hgdl_admm call on two problems of three neighbors; its
    outputs hold sentinels."""
    rng = np.random.default_rng(0)
    P = rng.normal(size=(2, 5, 3))
    gram = np.transpose(P, (0, 2, 1)) @ P
    inverse = np.linalg.inv(gram + RHO * np.eye(3))
    ptx = rng.normal(size=(2, 3))
    z, q, m = np.full((3, 2, 3), 7.0)
    return [2, 3, inverse, ptx, RHO, 0.1, TOL, 50, z, q, m,
            np.full(2, -7, dtype=np.int64), np.ones(2, dtype=bool),
            np.full(3, 7.0), np.full(3, 7.0)]


def _sweep_args():
    """A valid hgdl_sweep call on three samples, two atoms and a path
    Laplacian; its scratch holds sentinels."""
    rng = np.random.default_rng(1)
    D = rng.normal(size=(4, 2))
    gram = D.T @ D
    gram_cols = gram.T.copy()
    np.fill_diagonal(gram_cols, 0.0)
    target = (D.T @ rng.normal(size=(4, 3))).T.copy()
    indptr = np.array([0, 2, 5, 7], dtype=np.int64)
    indices = np.array([0, 1, 0, 1, 2, 1, 2], dtype=np.int64)
    data = np.array([1.0, -0.5, -0.5, 1.0, -0.5, -0.5, 1.0])
    return [3, 2, target, gram_cols, gram.diagonal().copy(), indptr,
            indices, data, 0.1, 0.5, CURVATURE_FLOOR,
            rng.normal(size=(3, 2)), np.full(2, 7.0), np.full(2, 7.0)]


# each kind of array argument, at one position of one kernel
KINDS = {
    "real": ("hgdl_admm", _admm_args, 2),
    "index": ("hgdl_sweep", _sweep_args, 5),
    "out": ("hgdl_admm", _admm_args, 8),
    "count": ("hgdl_admm", _admm_args, 11),
    "flag": ("hgdl_admm", _admm_args, 12),
}
OTHER_DTYPE = {np.dtype(np.float64): np.float32, np.dtype(np.int64): np.int32,
               np.dtype(np.bool_): np.uint8}


def _faulty(array, fault):
    if fault == "dtype":
        return array.astype(OTHER_DTYPE[array.dtype])
    if fault == "strided":
        wide = np.zeros(array.shape + (2,), dtype=array.dtype)
        view = wide[..., 0]
        view[...] = array
        return view
    if fault == "read-only":
        copy = array.copy()
        copy.flags.writeable = False
        return copy
    return array.tolist()  # not an ndarray


def _snapshot(args):
    return [a.tobytes() for a in args if isinstance(a, np.ndarray)]


# an input may be read-only; an output may not
@pytest.mark.parametrize("kind, fault", [
    (kind, fault) for kind in KINDS
    for fault in ("dtype", "strided", "read-only", "list")
    if fault != "read-only" or kind not in ("real", "index")])
def test_a_bad_array_argument_raises_before_the_kernel_runs(kind, fault):
    name, make, position = KINDS[kind]
    args = make()
    args[position] = _faulty(args[position], fault)
    before = _snapshot(args)
    with pytest.raises(ctypes.ArgumentError,
                       match=f"argument {position + 1}: TypeError"):
        getattr(kernels(), name)(*args)
    assert _snapshot(args) == before


@pytest.mark.parametrize("kind", ["real", "index"])
def test_a_read_only_input_gives_the_writeable_inputs_bits(kind):
    name, make, position = KINDS[kind]
    want, args = make(), make()
    getattr(kernels(), name)(*want)
    args[position] = _faulty(args[position], "read-only")
    getattr(kernels(), name)(*args)
    assert _snapshot(args) == _snapshot(want)


def test_every_kernel_array_argument_is_checked():
    """No kernel takes an array through an unchecked argtype: every
    argument is a C integer, a C double or one of the checked kinds."""
    library = kernels()
    checked = {type(t) for n, make, p in KINDS.values()
               for t in [getattr(library, n).argtypes[p]]}
    assert len(checked) == 1
    for name in ("hgdl_sweep", "hgdl_dictionary", "hgdl_encode",
                 "hgdl_admm", "hgdl_knn"):
        for argtype in getattr(library, name).argtypes:
            assert argtype in (ctypes.c_int64, ctypes.c_double) or (
                type(argtype) in checked)
