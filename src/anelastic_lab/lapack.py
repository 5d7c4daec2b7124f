"""The three LAPACK routines the laboratory calls, from numpy's own OpenBLAS,
and that library's thread count.

numpy >= 2 wheels bundle OpenBLAS as libscipy_openblas64_, which exports
LAPACK with 64-bit integers under scipy_<name>_64_ symbols.  Every routine
is bound from that one library through ctypes: scipy.linalg reaches the
same code, but importing it loads a second BLAS and adds ~28 MB to the
resident memory of a run.

- DSTEVR, the symmetric tridiagonal eigensolver of the acoustic operator.
- DLARRC, the O(n) Sturm count of that operator's eigenvalues in an
  interval, which sizes DSTEVR's eigenvector output by the modes it keeps.
- DGTSV, the tridiagonal solve of the implicit viscous step.  Every
  argument is a raw address (ctypes.c_void_p): the step passes buffers it
  allocated once, and an ndpointer check would cost several microseconds
  per argument on each call.

Importing the module also sets the library's thread count to 1, whatever
OPENBLAS_NUM_THREADS says, so every BLAS call of a run stays on the
calling thread.  The only dense products the laboratory forms are small:
per block of rows, (8 x 30) @ (30 x 512) in the relative-energy audit and
(8 x 30) @ (30 x 2048) in the Strichartz measurement at n = 2048.  Two
threads make such products dearer, not cheaper.  On a 2-core x86-64 host
with numpy 2.4 the whole (206 x 30) @ (30 x 512) and (282 x 30) @
(30 x 2048) products, formed before the measurements walked blocks, took
10-17 ms each on two threads against 0.2 ms and 1 ms on one, and after
each product the idle helper thread spun on the second core, so a
`dispersion` benchmark flow spent 0.31 s of CPU in 0.17 s of wall time
(0.17 s of CPU on one thread).  The arithmetic does not depend on the
count: the artifacts are byte-identical on one thread and on two.
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
# JOBT N VL VU D E PIVMIN EIGCNT LCNT RCNT INFO, then the hidden length of JOBT;
# D and E are only read
_reals_in = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
DLARRC = _bind(_LIB, "dlarrc", [
    _char, _i64, _f64, _f64, _reals_in, _reals_in, _f64, _i64, _i64, _i64, _i64, _size,
])
# N NRHS DL D DU B LDB INFO
DGTSV = _bind(_LIB, "dgtsv", [ctypes.c_void_p] * 8)

# run every BLAS call on the calling thread; see the module docstring
_set_num_threads = _LIB.scipy_openblas_set_num_threads64_
_set_num_threads.argtypes, _set_num_threads.restype = [ctypes.c_int], None
_set_num_threads(1)
