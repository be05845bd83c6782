"""Builds and loads ``_native.c``, the package's one C source: the orbit of
:mod:`chaos` and the four kernels of :mod:`analysis`, each module checking
what it takes as one set that runs or falls back whole.
Also takes ``renameat2`` from the C library, for :func:`exchange`."""

import ctypes
import errno
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

#: Compiler flags that keep C's binary64 arithmetic identical to CPython's.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("_native.c")

#: Linux's ``AT_FDCWD`` and ``RENAME_EXCHANGE``.
_AT_FDCWD = -100
_RENAME_EXCHANGE = 2
#: Errors by which ``renameat2`` says it cannot swap names here: no such system
#: call, or a filesystem that does not support the flag.
_NO_EXCHANGE = {errno.ENOSYS, errno.EINVAL, errno.EOPNOTSUPP}


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
