"""LAPACK and BLAS called without the GIL, and the thread that runs half a factor.

``scipy.linalg.lapack``'s wrappers hold the GIL for the whole call.  The
same routines are exported as function pointers in the capsules of
``scipy.linalg.cython_lapack`` and ``cython_blas``; called through
``ctypes``, which releases the GIL, two threads run them at once.  The
spectral module imports this one on its first factorization, so that
importing the package binds nothing and imports no scipy.linalg; the
worker thread starts when a split factor first runs its halves at once.
"""

import ctypes
import os
import queue
import threading

import numpy as np
from scipy.linalg import cython_blas, cython_lapack

# argument kinds of the routines called: c a char *, i an LP64 int *, d a double *
ARGUMENTS = {"dpbtrf": "ciidii", "dtbtrs": "ccciiididii", "dtbsv": "ccciididi",
             "dpttrf": "iddi", "dpttrs": "iidddii"}


def bind(capsules):
    """ctypes functions, by name, for the ``ARGUMENTS`` routines among ``capsules``.

    ``capsules`` are Cython capsules by name, such as
    ``cython_lapack.__pyx_capi__``.  Each capsule's name is its C
    signature; one whose integers are not ``int *`` raises ImportError,
    since every call passes 32-bit integers.
    """
    api = ctypes.pythonapi
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    kinds = {"char *": "c", "int *": "i"}
    bound = {}
    for name, want in ARGUMENTS.items():
        signature = name_of(capsules[name])
        arguments = signature.decode().partition("(")[2].rstrip(")").split(", ")
        got = "".join(kinds.get(a, "d" if a.endswith("_d *") else "?") for a in arguments)
        if got != want:
            raise ImportError(f"scipy's {name} is {signature.decode()!r}, not the LP64 int * "
                              "arguments tubespectra calls it with")
        function = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(want))
        bound[name] = function(pointer_of(capsules[name], signature))
    return bound


ROUTINES = bind({**cython_lapack.__pyx_capi__, **cython_blas.__pyx_capi__})


def _ints(*values):
    return [ctypes.byref(ctypes.c_int(v)) for v in values]


def address(array):
    """The address of a float64 array that LAPACK reads and writes in place, in Fortran order."""
    if array.dtype != np.float64 or not (array.flags.f_contiguous and array.flags.writeable):
        raise TypeError("LAPACK needs a writeable, Fortran-contiguous float64 array")
    return array.ctypes.data


def pbtrf(band):
    """Cholesky factor of a lower band, in place (dpbtrf); its info, 0 when it exists."""
    kd, n = band.shape[0] - 1, band.shape[1]
    info = ctypes.c_int()
    ROUTINES["dpbtrf"](b"L", *_ints(n, kd), address(band), *_ints(kd + 1), ctypes.byref(info))
    return info.value


def tbtrs(band, b):
    """b <- L^-1 b in place for L a lower band, one right-hand side per column of b (dtbtrs)."""
    kd, n = band.shape[0] - 1, band.shape[1]
    info = ctypes.c_int()
    ROUTINES["dtbtrs"](b"L", b"N", b"N", *_ints(n, kd, b.shape[1]), address(band),
                       *_ints(kd + 1), address(b), *_ints(max(1, n)), ctypes.byref(info))


def tbsv(band, reverse=False):
    """``sweep(address, trans)``: x <- L^-1 x, or L^-T x with ``trans`` b"T", in place (dtbsv).

    L is the lower band ``band``, its arguments made once for every sweep,
    and x the band's order of doubles from ``address``, last first with
    ``reverse``.  BLAS dtbsv, not LAPACK dtbtrs: dtbtrs first reads the
    diagonal for a zero, one cache line per row, and took 10 % longer on a
    core band.
    """
    kd, routine = band.shape[0] - 1, ROUTINES["dtbsv"]
    head = (*_ints(band.shape[1], kd), address(band), *_ints(kd + 1))
    step = ctypes.byref(ctypes.c_int(-1 if reverse else 1))
    # the default argument keeps the band alive as long as the sweep
    return lambda at, trans, band=band: routine(b"L", trans, b"N", *head, at, step)


def pttrf(d, e):
    """LDL^T factor of tridiag(e, d, e), in place (dpttrf); its info, 0 when it exists."""
    info = ctypes.c_int()
    ROUTINES["dpttrf"](*_ints(d.size), address(d), address(e), ctypes.byref(info))
    return info.value


def pttrs(d, e):
    """``solve(address)``: b <- tridiag(e, d, e)^-1 b, in place, from ``pttrf``'s factor (dpttrs).

    b is ``d.size`` doubles from ``address``; the arguments are made once
    for every solve.
    """
    routine, info = ROUTINES["dpttrs"], ctypes.c_int()
    head = (*_ints(d.size, 1), address(d), address(e))
    tail = (*_ints(max(1, d.size)), ctypes.byref(info))
    return lambda at, factor=(d, e): routine(*head, at, *tail)


class Worker:
    """A daemon thread that runs one call while the calling thread runs another."""

    def __init__(self):
        self.calls, self.results = queue.SimpleQueue(), queue.SimpleQueue()
        self.busy = threading.Lock()
        threading.Thread(target=self._serve, name="tubespectra-half", daemon=True).start()

    def _serve(self):
        while True:
            call = self.calls.get()
            try:
                self.results.put((call(), None))
            except BaseException as exc:  # raised again in the caller
                self.results.put((None, exc))
            # an idle worker holds nothing: the call's closure may reach a factor
            del call

    def both(self, here, there):
        """``(here(), there())``, ``there`` on the worker; both here while another caller has it."""
        if not self.busy.acquire(blocking=False):
            return here(), there()
        try:
            self.calls.put(there)
            try:
                mine = here()
            finally:
                theirs, exc = self.results.get()
        finally:
            self.busy.release()
        if exc is not None:
            raise exc
        return mine, theirs


_WORKER = []                       # the one Worker, made when first needed
_WORKER_LOCK = threading.Lock()
os.register_at_fork(after_in_child=_WORKER.clear)  # a forked child has no worker thread


def usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pair(here, there, threaded):
    """``(here(), there())``, at the same time on the worker thread when ``threaded``."""
    if not threaded:
        return here(), there()
    with _WORKER_LOCK:
        if not _WORKER:
            _WORKER.append(Worker())
    return _WORKER[0].both(here, there)
