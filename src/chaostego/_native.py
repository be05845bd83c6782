"""Builds and loads ``_native.c``, the package's one C source, and decides
whether its kernels may run: the orbit of :mod:`chaos` and the four grading
kernels of :mod:`analysis` are wrapped as one :class:`Kernels` record, which
:func:`kernels` keeps only if it reproduces the references' bits on fixed
check inputs, so all five run or all five fall back.
Also takes ``renameat2`` from the C library, for :func:`exchange`."""

import ctypes
import errno
import functools
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .imagery import RasterImage, check_pair

#: Compiler flags that keep C's binary64 arithmetic identical to CPython's.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("_native.c")

#: Linux's ``AT_FDCWD`` and ``RENAME_EXCHANGE``.
_AT_FDCWD = -100
_RENAME_EXCHANGE = 2
#: Errors by which ``renameat2`` says it cannot swap names here: no such system
#: call, or a filesystem that does not support the flag.
_NO_EXCHANGE = {errno.ENOSYS, errno.EINVAL, errno.EOPNOTSUPP}

#: The gamma expansions' term cap and convergence tolerance, in C and in
#: :mod:`analysis`'s Python expansions alike.
GAMMA_MAX_ITER = 1000
GAMMA_EPS = 1e-16


@functools.cache
def library():
    """:data:`_SOURCE` built and loaded with ctypes, the argument and result
    types of its five functions, ``orbit``, ``count_values``,
    ``count_differences``, ``pair_sums`` and ``gamma_expansions``, declared;
    None if it cannot be built or loaded or lacks one."""
    try:
        lib = ctypes.CDLL(str(_build(_SOURCE)))
        lib.orbit.argtypes = [ctypes.c_double] * 5 + [ctypes.c_int64] * 4 + [ctypes.c_void_p]
        lib.orbit.restype = ctypes.c_int64
        lib.count_values.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 3
        lib.count_differences.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 3 + [ctypes.c_void_p]
        lib.pair_sums.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
        lib.gamma_expansions.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2 + [ctypes.c_double] + \
            [ctypes.c_void_p] * 2
        lib.count_values.restype = lib.count_differences.restype = lib.pair_sums.restype = None
        lib.gamma_expansions.restype = ctypes.c_int64
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    return lib


def _build(source: Path) -> Path:
    """Path of the shared object built from ``source`` with the system ``cc``
    into the ``__pycache__`` beside it, compiling it first if this source,
    compiler and flag set have no build yet.  It is named after the source's
    stem: ``_native.c`` builds ``native-<sha256>.so``.  A new build deletes the
    stem's older builds; on Linux and macOS a process that mapped one keeps it."""
    cache = source.parent / "__pycache__"
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler on PATH")
    # The flags and the compiler decide the arithmetic as much as the source.
    build = hashlib.sha256(source.read_bytes())
    build.update("\0".join((os.path.realpath(cc), *_CFLAGS)).encode())
    stem = source.stem.lstrip("_")
    lib = cache / f"{stem}-{build.hexdigest()}.so"
    if lib.exists():
        return lib
    cache.mkdir(exist_ok=True)
    # Build beside the target and rename, so a concurrent build or load
    # never sees a half-written file.
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        built = os.path.join(tmp, lib.name)
        subprocess.run([cc, *_CFLAGS, "-o", built, str(source)], check=True, capture_output=True, timeout=120)
        os.chmod(built, 0o755)  # loadable by other users whatever the umask
        os.replace(built, lib)
    for old in cache.glob(f"{stem}-{'[0-9a-f]' * 64}.so"):
        if old != lib:
            old.unlink(missing_ok=True)
    return lib


class Kernels(NamedTuple):
    """The five computations of ``_native.c`` with numpy arguments and
    results: :func:`kernels` wraps the compiled ones, and :mod:`chaos` and
    :mod:`analysis` hold the references that run where those do not."""

    orbit: Callable
    value_counts: Callable
    difference_counts: Callable
    pair_sums: Callable
    expansions: Callable


#: The orbit's check cases, its arguments ``(x, y, alpha1, alpha2, r, rows, cols, count, cap)`` on a
#: 16x16 grid (28391 is its iteration cap), one for each way the loop ends.
_ORBIT_CASES = (
    (0.31, 0.72, 1.3, 1.7, 0.97, 16, 16, 256, 28391),  # a chaotic key: full cover, 256 cells
    (0.31, 0.72, 3.0, 2.5, 0.9, 16, 16, 256, 28391),  # a collapsing key: its state repeats at 78 cells
    (0.31, 0.72, 1.3, 1.7, 0.97, 16, 16, 256, 100),  # the cap: 74 cells
)


def _counts_check_input() -> tuple[np.ndarray, np.ndarray]:
    """Samples and segment bounds the compiled counters must treat as numpy
    does: values scattered over the whole range, runs of 0 and of 255, 0
    next to 255, and an empty segment; running counts with 0, 2, 55 and 128
    pairs above 4, the edges of numpy's summation, and a tail of uneven counts
    whose 128 terms sum to other bits in another order; 22 rows of 60, so 20
    pixels of 3 channels."""
    samples = (np.arange(1320) * 131 % 256).astype(np.uint8)
    tail = np.arange(620)
    samples[700:] = (tail * 11 + tail * tail // 11) % 256
    samples[40:90] = 0
    samples[90:130] = 255
    samples[200:260:2] = 0
    samples[201:260:2] = 255
    return samples, np.array([0, 17, 17, 300, 700, 1320], dtype=np.int64)


def _gamma_check_input() -> tuple[np.ndarray, np.ndarray]:
    """``(a, x)`` on which the compiled expansions must give the Python ones'
    bits.  Ten of the attack's shapes a = dof / 2, from 0.5 to 63.5, each at
    four x: inside the series branch, just below x = a + 1 (where the series
    takes its most terms, 78 at a = 63.5), on it (where the continued
    fraction starts) and in the continued fraction's tail.  Then x = 0, the
    continued fraction's most terms found (100, at a = 0.5), and one shape
    on each branch that does not converge."""
    shapes = [n / 2.0 for n in (1, 2, 3, 8, 17, 32, 63, 100, 126, 127)]
    x = [a / 3.0 for a in shapes] + [a + 1.0 for a in shapes] + [math.nextafter(a + 1.0, 0.0) for a in shapes]
    x += [3.0 * a + 7.0 for a in shapes] + [0.0, 1.51974025, 99999.0, 1e7 + 1.0]
    return np.array(4 * shapes + [0.5, 0.5, 1e5, 1e7]), np.array(x)


def _check_digest(kernels: Kernels) -> str:
    """SHA-256 of what ``kernels`` give on the check inputs, each part as
    explicit little-endian bytes (so -0.0 is not 0.0, on any host): the
    orbit's stream on each of :data:`_ORBIT_CASES`, its length first (the
    lengths keep streams of different lengths apart), the value counts, the
    differences at steps 1 and 3 and the pair sums of the samples against
    themselves rolled by 40, then the expansions with None marked."""
    samples, bounds = _counts_check_input()
    grid = samples.reshape(22, 60)
    rolled = np.concatenate((samples[-40:], samples[:-40]))  # np.roll's result, at a tenth of its first call
    pair = RasterImage(22, 20, 3, samples), RasterImage(22, 20, 3, rolled)
    found = kernels.expansions(*_gamma_check_input())
    streams = [kernels.orbit(*case) for case in _ORBIT_CASES]
    parts = [(part, "<i8") for stream in streams for part in ([len(stream)], stream)]
    parts += [*zip(kernels.value_counts(samples, bounds), ("<i8", "<f8", "<i8")),
              (kernels.difference_counts(grid, 1), "<i8"), (kernels.difference_counts(grid, 3), "<i8"),
              (kernels.pair_sums(*pair), "<i8"), ([value is None for value in found], "u1"),
              ([0.0 if value is None else value for value in found], "<f8")]
    return hashlib.sha256(b"".join(np.asarray(part, dtype).tobytes() for part, dtype in parts)).hexdigest()


#: :func:`_check_digest` of the references: ``chaos._orbit_python``, numpy's counters and the
#: Python expansions, None where they raise.  Re-freeze it from them, never from the kernels.
_SELF_CHECK = "03572ecac01c8584f653309c1602f235dbc58349fbeb171cc0f857ed4df3f723"


@functools.cache
def kernels() -> Kernels | None:
    """The kernels of :func:`library` as a :class:`Kernels`, or None: None
    where there is no library, or where their :func:`_check_digest` is not
    the frozen :data:`_SELF_CHECK`, so one wrong kernel drops all five.  The
    check runs no reference.  ``orbit`` raises MemoryError where it cannot
    allocate its seen-map; ``expansions`` gives, for arrays ``a`` and ``x``,
    the series or continued fraction at each point, or None where it does
    not converge within :data:`GAMMA_MAX_ITER` terms."""
    lib = library()
    if lib is None:
        return None

    def orbit(x, y, alpha1, alpha2, r, rows, cols, count, cap):
        out = np.empty(count, dtype=np.int64)
        found = lib.orbit(x, y, alpha1, alpha2, r, rows, cols, count, cap, out.ctypes.data)
        if found < 0:
            raise MemoryError(f"no memory for the seen-map of a {rows}x{cols} grid")
        return out[:found]

    def value_counts(flat, bounds):
        flat = np.ascontiguousarray(flat, dtype=np.uint8)
        bounds = np.ascontiguousarray(bounds, dtype=np.int64)
        hist = np.empty(256, dtype=np.int64)
        chis = np.empty(bounds.size - 1, dtype=np.float64)
        pairs = np.empty(bounds.size - 1, dtype=np.int64)
        lib.count_values(flat.ctypes.data, bounds.ctypes.data, chis.size, hist.ctypes.data, chis.ctypes.data,
                         pairs.ctypes.data)
        return hist, chis, pairs

    def difference_counts(samples, step):
        samples = np.ascontiguousarray(samples, dtype=np.uint8)
        out = np.empty(511, dtype=np.int64)
        lib.count_differences(samples.ctypes.data, samples.shape[0], samples.shape[1], step, out.ctypes.data)
        return out

    def pair_sums(cover, stego):
        check_pair(cover, stego)  # the kernel reads as many samples from each
        out = np.empty(2, dtype=np.int64)
        lib.pair_sums(cover.samples.ctypes.data, stego.samples.ctypes.data, cover.samples.size, out.ctypes.data)
        return int(out[0]), int(out[1])

    def expansions(a, x):
        a = np.ascontiguousarray(a, dtype=np.float64)
        x = np.ascontiguousarray(x, dtype=np.float64)
        out = np.empty(a.size, dtype=np.float64)
        iters = np.empty(a.size, dtype=np.int64)
        failed = lib.gamma_expansions(a.ctypes.data, x.ctypes.data, a.size, GAMMA_MAX_ITER, GAMMA_EPS,
                                      out.ctypes.data, iters.ctypes.data)
        values = out.tolist()
        if failed:
            values = [value if n >= 0 else None for value, n in zip(values, iters.tolist())]
        return values

    compiled = Kernels(orbit, value_counts, difference_counts, pair_sums, expansions)
    return compiled if _check_digest(compiled) == _SELF_CHECK else None


@functools.cache
def _renameat2():
    """The C library's ``renameat2``, its types declared, or None where it has none."""
    try:
        fn = ctypes.CDLL(None, use_errno=True).renameat2
    except (OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint]
    fn.restype = ctypes.c_int
    return fn


def exchange(a, b) -> bool:
    """Swap the names ``a`` and ``b``, both existing, in one atomic step, and
    return True; return False where the system cannot (no ``renameat2``, or
    ENOSYS, EINVAL or EOPNOTSUPP from it).  Any other failure raises OSError."""
    renameat2 = _renameat2()
    if renameat2 is None:
        return False
    if renameat2(_AT_FDCWD, os.fsencode(a), _AT_FDCWD, os.fsencode(b), _RENAME_EXCHANGE) == 0:
        return True
    err = ctypes.get_errno()
    if err in _NO_EXCHANGE:
        return False
    raise OSError(err, os.strerror(err), os.fsdecode(a), None, os.fsdecode(b))
