"""The two LAPACK routines the laboratory calls, from numpy's own OpenBLAS.

numpy >= 2 wheels bundle OpenBLAS as libscipy_openblas64_, which exports
LAPACK with 64-bit integers under scipy_<name>_64_ symbols.  Both routines
are bound from that one library through ctypes: scipy.linalg reaches the
same code, but importing it loads a second BLAS and adds ~28 MB to the
resident memory of a run.

- DSTEVR, the symmetric tridiagonal eigensolver of the acoustic operator.
- DGTSV, the tridiagonal solve of the implicit viscous step.  Every
  argument is a raw address (ctypes.c_void_p): the step passes buffers it
  allocated once, and an ndpointer check would cost several microseconds
  per argument on each call.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

# where numpy wheels keep their bundled OpenBLAS: numpy.libs/ beside the
# package (Linux, Windows), numpy/.dylibs/ inside it (macOS)
_LIB_DIRS = (
    os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs"),
    os.path.join(os.path.dirname(np.__file__), ".dylibs"),
)


def _find_library() -> ctypes.CDLL:
    """The libscipy_openblas64_ library of numpy's wheel."""
    paths = [
        os.path.join(folder, name)
        for folder in _LIB_DIRS
        if os.path.isdir(folder)
        for name in sorted(os.listdir(folder))
        if name.startswith("libscipy_openblas64_")
    ]
    if not paths:
        raise ImportError(
            "anelastic_lab needs LAPACK from the libscipy_openblas64_ "
            f"library of a numpy>=2 wheel; none found in {', '.join(_LIB_DIRS)}"
        )
    return ctypes.CDLL(paths[0])


def _bind(lib: ctypes.CDLL, name: str, argtypes: list):
    fn = getattr(lib, f"scipy_{name}_64_")
    fn.argtypes, fn.restype = argtypes, None
    return fn


_LIB = _find_library()

_char, _size = ctypes.c_char_p, ctypes.c_size_t
_i64, _f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
_ints = np.ctypeslib.ndpointer(np.int64, flags="F_CONTIGUOUS,WRITEABLE")
_reals = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS,WRITEABLE")
# JOBZ RANGE N D E VL VU IL IU ABSTOL M W Z LDZ ISUPPZ WORK LWORK IWORK
# LIWORK INFO, then the hidden lengths of the two strings
DSTEVR = _bind(_LIB, "dstevr", [
    _char, _char, _i64, _reals, _reals, _f64, _f64, _i64, _i64, _f64, _i64,
    _reals, _reals, _i64, _ints, _reals, _i64, _ints, _i64, _i64, _size, _size,
])
# N NRHS DL D DU B LDB INFO
DGTSV = _bind(_LIB, "dgtsv", [ctypes.c_void_p] * 8)
