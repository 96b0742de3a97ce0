"""The compiled kernels of _kernels.c, built on first use.

_FLAGS pin the rounding (no FMA contraction), so each kernel rounds
every operation as its source is written. The built file is portable
across the CPUs of its platform: on x86-64 the coordinate-descent
kernels carry an AVX2 clone beside the baseline one, the dynamic loader
picks one for the CPU, and both clones give the same bits.
Importing hgdl compiles and loads nothing: a kNN search (so every
hypergraph), an attention solve, a Laplacian, a β > 0 code sweep or
objective, a dictionary sweep (so every train) and a test encoding call
kernels().
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from .errors import InternalError

_SOURCE = Path(__file__).with_name("_kernels.c")
# CI's warnings check reads these too, and adds -Werror
_FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
_library = None


def kernels():
    """The library of _kernels.c, with hgdl_sweep, hgdl_dictionary,
    hgdl_encode, hgdl_admm, hgdl_knn, hgdl_laplacian and hgdl_csr_product
    typed, compiled on the first call of the process.

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
    key = hashlib.sha256(_SOURCE.read_bytes()
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
    real, index = _Array(np.float64), _Array(np.int64)
    out, count = _Array(np.float64, True), _Array(np.int64, True)
    flag = _Array(np.bool_, True)
    size, double = ctypes.c_int64, ctypes.c_double
    library.hgdl_sweep.argtypes = [size, size, real, real, real, index,
                                   index, real, double, double, double,
                                   out, out, out]
    library.hgdl_sweep.restype = size
    library.hgdl_dictionary.argtypes = [size, size, size, real, real, double,
                                        out, out]
    library.hgdl_dictionary.restype = size
    library.hgdl_encode.argtypes = [size, size, size, real, real, double,
                                    double, double, size, out, out, out, out,
                                    out, out, count, out]
    library.hgdl_encode.restype = size
    library.hgdl_admm.argtypes = [size, size, real, real, double, double,
                                  double, size, out, out, out, count, flag,
                                  out, out]
    library.hgdl_admm.restype = size
    library.hgdl_knn.argtypes = [size, size, size, real, count, out]
    library.hgdl_knn.restype = None
    library.hgdl_laplacian.argtypes = [size, size, index, index, real, real,
                                       real, out, out, out]
    library.hgdl_laplacian.restype = None
    library.hgdl_csr_product.argtypes = [size, size, index, index, real,
                                         real, out]
    library.hgdl_csr_product.restype = None
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
