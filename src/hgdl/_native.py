"""The kernels that the header of _kernels.c lists, built on first use.

_FLAGS pin the rounding (no FMA contraction), so each kernel rounds
every operation as its source is written, and start every function on
a 64-byte boundary and every loop on a 32-byte one, so that a kernel's
speed does not hang on the size of the code before it. The built file
is portable across the CPUs of its platform: on x86-64 the
coordinate-descent kernels and the attention ADMM carry an AVX2 clone
beside the baseline one, the dynamic loader picks one for the CPU, and
both clones give the same bits.
Importing hgdl compiles and loads nothing; the first kernel call does.

one_blas_thread runs hgdl's dictionary-learning calls with numpy's BLAS
on one thread, and lasso_threads gives the threads of a beta = 0 sweep.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import re
import shlex
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

from .errors import InternalError

_SOURCE = Path(__file__).with_name("_kernels.c")
# CI's warnings check reads these too, and adds -Werror
_FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-pthread",
          "-falign-functions=64", "-falign-loops=32")
_library = None
# a beta = 0 sweep or test encoding of fewer code entries (columns times
# atoms) runs on one thread, where a second thread's start and its barrier
# per sweep cost the most CPU for the time they save: 100 encoding sweeps
# of 7200 entries (fit-inductive's) took 8.2 ms of CPU for 4.5 ms of wall
# on two threads, against 6.6 ms of both on one; of 20000, 52.6 ms for
# 29.7 ms against 47.2 ms (best of 7, 2-core Xeon)
LASSO_THREAD_WORK = 20000


def kernels():
    """The library of _kernels.c, compiled on the first call of the
    process, with each kernel its header lists typed by _prototypes.

    The build runs sysconfig's CC with _FLAGS. It is cached in
    $XDG_CACHE_HOME/hgdl, by default ~/.cache/hgdl, created with mode
    0700, as kernels-<platform>-<sha256>.so, the hash being that of the
    source, the compile command and the platform, so a warm cache loads
    with no compiler run. A build removes no other file: the cache
    keeps one library per source, compiler and platform, so versions
    run in turn each load their own, and the directory may be deleted at
    any time. A build that cannot run or fails raises InternalError
    naming the command and giving its error output; a cached file that
    cannot be loaded raises InternalError naming the file.
    """
    global _library
    if _library is not None:
        return _library
    compiler = [*shlex.split(sysconfig.get_config_var("CC") or "cc"),
                *_FLAGS]
    platform = sysconfig.get_platform()
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source
                         + shlex.join(compiler).encode()
                         + platform.encode()).hexdigest()
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):
        cache = Path.home() / ".cache"
    path = Path(cache) / "hgdl" / f"kernels-{platform}-{key}.so"
    if not path.exists():
        _build(compiler, path)
    try:
        library = ctypes.CDLL(str(path))
    except OSError as exc:
        raise InternalError(
            f"cannot load the compiled kernels {path}: {exc}; "
            "the file may be deleted and is rebuilt on the next run"
        ) from exc
    for name, (restype, argtypes) in _prototypes(source.decode()).items():
        kernel = getattr(library, name)
        kernel.restype, kernel.argtypes = restype, argtypes
    _library = library
    return library


class _Array:
    """A kernel argument that is an ndarray of one dtype, C-contiguous and,
    for an output, writeable; anything else raises TypeError, which
    ctypes reports as an ArgumentError naming the argument, before the
    kernel runs. The kernel gets the array's data pointer, as a c_void_p:
    ctypes would pass a bare int as a 32-bit C int. numpy's own pointer
    argtype makes the same checks at about twice the cost per call."""

    __slots__ = ("dtype", "writeable")

    def __init__(self, dtype, writeable=False):
        self.dtype = np.dtype(dtype)
        self.writeable = writeable

    def from_param(self, array):
        if not isinstance(array, np.ndarray):
            raise TypeError(f"expected an ndarray, got {type(array).__name__}")
        if array.dtype != self.dtype:
            raise TypeError(f"expected {self.dtype}, got {array.dtype}")
        flags = array.flags
        if not flags.c_contiguous:
            raise TypeError("expected a C-contiguous array")
        if self.writeable and not flags.writeable:
            raise TypeError("expected a writeable array")
        return ctypes.c_void_p(array.ctypes.data)


class Bound:
    """kernel(*args), its arguments converted and checked once.

    Each argument goes through its argtype's from_param, as in a direct
    call: an array argument must be an ndarray of the right dtype,
    C-contiguous and, for an output, writeable, so a bad one raises
    ctypes.ArgumentError naming it, as a direct call does, before any
    kernel runs. Calling the binding runs the kernel on those C values,
    with no conversion, through an untyped twin of the kernel that
    takes them as they are and keeps its restype. The kernel reads the
    arrays' memory at each call, so what was written into them in place
    since is seen; the binding holds them, so their memory lives as
    long as it does.
    """

    __slots__ = ("_twin", "_converted", "_arrays")

    def __init__(self, kernel, *args):
        if len(args) != len(kernel.argtypes):
            raise TypeError(f"{kernel.__name__} takes {len(kernel.argtypes)}"
                            f" arguments ({len(args)} given)")
        converted = []
        for position, (argtype, arg) in enumerate(
                zip(kernel.argtypes, args), 1):
            try:
                converted.append(argtype.from_param(arg))
            except TypeError as exc:
                raise ctypes.ArgumentError(
                    f"argument {position}: TypeError: {exc}") from None
        self._twin = kernels()[kernel.__name__]
        self._twin.restype = kernel.restype
        self._converted = converted
        self._arrays = args

    def __call__(self):
        return self._twin(*self._converted)


# a const pointer is an input, so may be read-only; numpy bools are bytes,
# and char is a byte of text
_CTYPES = {"void": None, "int64_t": ctypes.c_int64, "double": ctypes.c_double,
           "const int64_t *": _Array(np.int64),
           "const double *": _Array(np.float64),
           "const char *": _Array(np.uint8),
           "int64_t *": _Array(np.int64, True),
           "double *": _Array(np.float64, True),
           "unsigned char *": _Array(np.bool_, True),
           "char *": _Array(np.uint8, True)}


def _prototypes(source):
    """{name: (restype, argtypes)} of each kernel the C source text
    defines in the form the header of _kernels.c states; a C type outside
    _CTYPES raises InternalError naming the kernel and the type."""
    kernels = {}
    for ret, name, params in re.findall(
            r"^(\w+) (hgdl_\w+)\(([^)]*)\)\n\{", source, re.M):
        # "const double *values" -> "const double *"
        types = [" ".join(re.sub(r"\w+\s*$", "", p).split())
                 for p in params.split(",")]
        try:
            kernels[name] = _CTYPES[ret], [_CTYPES[t] for t in types]
        except KeyError as exc:
            raise InternalError(f"kernel {name} has the C type {exc}, "
                                "which hgdl._native does not map") from None
    return kernels


def _build(compiler, path):
    """Compile _kernels.c in a temporary directory beside path, then move
    the result into place, so no process ever loads a partial file."""
    command = [*compiler, str(_SOURCE), "-o"]
    try:
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
            partial = os.path.join(tmp, path.name)
            command.append(partial)
            built = subprocess.run(command, capture_output=True, text=True)
            if built.returncode != 0:
                raise InternalError(
                    "cannot build the compiled kernels: "
                    f"{shlex.join(command)} exited with {built.returncode}:"
                    f"\n{built.stderr}"
                )
            os.replace(partial, path)
    except OSError as exc:
        raise InternalError(
            f"cannot build the compiled kernels in {path.parent}: "
            f"{shlex.join(command)} failed: {exc}"
        ) from exc


@functools.lru_cache(maxsize=None)
def blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy itself
    loaded, found by name through numpy's _multiarray_umath, which links
    it: scipy_openblas_{get,set}_num_threads64_ (numpy 2), else
    openblas_{get,set}_num_threads64_ (numpy 1.24); None where numpy's
    BLAS has neither, as with another BLAS."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        library = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        try:
            get = getattr(library, f"{prefix}_get_num_threads64_")
            put = getattr(library, f"{prefix}_set_num_threads64_")
        except AttributeError:
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        return get, put
    return None


class _Inside(threading.local):
    """Whether this thread is inside a one_blas_thread call."""

    pinned = False


_inside = _Inside()
_pin_lock = threading.Lock()
# threads inside a one_blas_thread call, and the count the first found
_pin = {"threads": 0, "count": None}


def one_blas_thread(function):
    """function, run with numpy's BLAS on one thread (blas_threads): the
    caller's count is put back when the outermost such call returns or
    raises, and a nested call costs one check. The count is process-wide,
    so calls from several Python threads at once share one pin, which the
    last to leave undoes. The beta = 0 products are then summed alike
    whatever count the caller set, and OpenBLAS's idle worker, which
    spins for about 134 ms after each product, leaves the second core to
    hgdl's own second thread (lasso_threads)."""

    @functools.wraps(function)
    def pinned(*args, **kwargs):
        if _inside.pinned:
            return function(*args, **kwargs)
        _enter_pin()
        _inside.pinned = True
        try:
            return function(*args, **kwargs)
        finally:
            _inside.pinned = False
            _leave_pin()

    return pinned


def _enter_pin():
    with _pin_lock:
        if _pin["threads"] == 0 and blas_threads() is not None:
            get, put = blas_threads()
            _pin["count"] = get()
            put(1)
        _pin["threads"] += 1


def _leave_pin():
    with _pin_lock:
        _pin["threads"] -= 1
        if _pin["threads"] == 0 and blas_threads() is not None:
            _, put = blas_threads()
            put(_pin["count"])


@functools.lru_cache(maxsize=None)
def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else 1


def lasso_threads(n, n_atoms):
    """The threads, 1 or 2, of hgdl_lasso_sweep and hgdl_encode on n
    columns of n_atoms codes: 2 where this process may run on two CPUs or
    more, numpy's BLAS can be held to one thread (blas_threads) and the
    sweep has LASSO_THREAD_WORK code entries or more; else 1. The codes
    are the same bits either way."""
    if n * n_atoms < LASSO_THREAD_WORK or blas_threads() is None:
        return 1
    return min(2, _usable_cpus())
