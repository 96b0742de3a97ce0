"""The kernels' arguments: each is typed from its C prototype, each kind
of array is checked before its kernel runs, and read-only inputs are
accepted."""

import ctypes
import re

import numpy as np
import pytest

from hgdl._native import _SOURCE, Bound, _Array, _prototypes, kernels
from hgdl.errors import InternalError
from hgdl.attention import LANES, RHO, TOL
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
            np.full(LANES * (3 * 3 + 5 * 3), 7.0)]


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
BAD_ARRAYS = [(kind, fault) for kind in KINDS
              for fault in ("dtype", "strided", "read-only", "list")
              if fault != "read-only" or kind not in ("real", "index")]


@pytest.mark.parametrize("kind, fault", BAD_ARRAYS)
def test_a_bad_array_argument_raises_before_the_kernel_runs(kind, fault):
    name, make, position = KINDS[kind]
    args = make()
    args[position] = _faulty(args[position], fault)
    before = _snapshot(args)
    with pytest.raises(ctypes.ArgumentError,
                       match=f"argument {position + 1}: TypeError"):
        getattr(kernels(), name)(*args)
    assert _snapshot(args) == before


@pytest.mark.parametrize("kind, fault", BAD_ARRAYS)
def test_binding_a_bad_array_raises_as_a_direct_call_does(kind, fault):
    """Bound checks each argument once, as a direct call checks it: the
    same ArgumentError, before the kernel runs."""
    name, make, position = KINDS[kind]
    args = make()
    args[position] = _faulty(args[position], fault)
    before = _snapshot(args)
    kernel = getattr(kernels(), name)
    with pytest.raises(ctypes.ArgumentError) as direct:
        kernel(*args)
    with pytest.raises(ctypes.ArgumentError) as bound:
        Bound(kernel, *args)
    assert str(bound.value) == str(direct.value)
    assert _snapshot(args) == before


def test_a_bound_kernel_reads_its_arrays_at_each_call():
    """A bound call returns what a direct call returns and writes the same
    bits, and it reads what was written into its arrays in place after
    it was bound."""
    want, args = _sweep_args(), _sweep_args()
    bound = Bound(kernels().hgdl_sweep, *args)
    for scale in (1.0, 3.0):
        for target in (want[2], args[2]):
            target *= scale
        assert bound() == kernels().hgdl_sweep(*want)
        assert _snapshot(args) == _snapshot(want)


def test_binding_the_wrong_number_of_arguments_raises():
    args = _sweep_args()
    with pytest.raises(TypeError, match="hgdl_sweep takes 14 arguments"):
        Bound(kernels().hgdl_sweep, *args[:-1])


@pytest.mark.parametrize("kind", ["real", "index"])
def test_a_read_only_input_gives_the_writeable_inputs_bits(kind):
    name, make, position = KINDS[kind]
    want, args = make(), make()
    getattr(kernels(), name)(*want)
    args[position] = _faulty(args[position], "read-only")
    getattr(kernels(), name)(*args)
    assert _snapshot(args) == _snapshot(want)


# every line of _kernels.c that starts with code, not a space, comment or
# directive, and names an hgdl_ function: each exported definition,
# whatever its form, with its return type and parameter list
LOOSE_DEFINITION = re.compile(
    r"^(?![\s/*#])(.*?)\b(hgdl_\w+)\s*\(([^)]*)\)", re.M)
DEFINED = {name: (ret.strip(), params) for ret, name, params
           in LOOSE_DEFINITION.findall(_SOURCE.read_text())}
SCALARS = {"void": None, "int64_t": ctypes.c_int64,
           "double": ctypes.c_double}
POINTEES = {"int64_t": np.int64, "double": np.float64,
            "unsigned char": np.bool_, "char": np.uint8}


def test_every_kernel_definition_matches_the_parser():
    """A kernel whose definition the parser does not match would reach its
    first call untyped."""
    assert set(_prototypes(_SOURCE.read_text())) == set(DEFINED)


@pytest.mark.parametrize("definition", [
    "CLONED int64_t hgdl_x(int64_t n)\n{",
    "int64_t\nhgdl_x(int64_t n)\n{",
    "int64_t  hgdl_x(int64_t n)\n{",
    "int64_t hgdl_x(int64_t n) {",
])
def test_a_definition_in_another_form_is_found_but_not_parsed(definition):
    assert _prototypes(definition) == {}
    found = LOOSE_DEFINITION.findall(definition)
    assert [name for _, name, _ in found] == ["hgdl_x"]


def test_every_kernel_array_argument_is_checked():
    """Every kernel of _kernels.c takes each parameter through its C
    type: a const pointer as an input that may be read-only, any other
    pointer as a writeable output, a scalar as a C integer or double;
    it returns its C return type."""
    library = kernels()
    assert DEFINED
    for name, (ret, params) in DEFINED.items():
        kernel = getattr(library, name)
        assert kernel.restype is SCALARS[ret], name
        params = [" ".join(p.split()[:-1]) for p in
                  params.replace("*", " * ").split(",")]
        assert len(kernel.argtypes) == len(params), name
        for param, argtype in zip(params, kernel.argtypes):
            pointee = param.removeprefix("const ").removesuffix(" *")
            if param.endswith("*"):
                assert type(argtype) is _Array, (name, param)
                assert argtype.dtype == POINTEES[pointee], (name, param)
                assert argtype.writeable == (
                    not param.startswith("const ")), (name, param)
            else:
                assert argtype is SCALARS[param], (name, param)


def test_every_kernel_called_is_typed():
    called = {name for path in _SOURCE.parent.glob("*.py")
              for name in re.findall(r"kernels\(\)\.(hgdl_\w+)",
                                     path.read_text())}
    assert called and called <= set(_prototypes(_SOURCE.read_text()))


@pytest.mark.parametrize("ret, param, ctype", [
    ("int64_t", "int32_t *x", "int32_t *"),
    ("int64_t", "float x", "float"),
    ("int64_t", "const unsigned char *x", "const unsigned char *"),
    ("float", "double x", "float"),
])
def test_a_c_type_outside_the_map_raises_naming_kernel_and_type(
        ret, param, ctype):
    source = f"{ret} hgdl_bad(int64_t n,\n    {param})\n{{\n}}\n"
    with pytest.raises(InternalError,
                       match=f"hgdl_bad.*{re.escape(repr(ctype))}"):
        _prototypes(source)
