"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark's host is shared: for stretches of 5 s to over a minute the
same code runs up to 1.9x faster or slower.  Such a shift moves every
session of a run alike, so a run's median follows it.  Each untimed gap
before a session times one of these kernels, and the gated round time is
taken in units of it (``round_ref``).  The kernels share no code with
chaostego, so a change to the program moves the ratio and a change of host
speed mostly does not.

Host speed does not scale all work alike: pure-Python loops slowed 1.9x
where numpy calls slowed 1.4x.  So there are two kernels, and each workload
uses the one shaped like its hot path.  Measured with kernels of the same
shape on 10 s windows over 2 minutes (spread is the largest window median
over the smallest):

- ``python``: a float recurrence feeding a set, like the orbit and its
  dedup.  The orbit's raw time spread 2.0x; divided by this kernel, 1.10x.
  short-messages sessions (keygen's probe is an orbit) spread 1.84x raw
  and 1.16x divided by it.
- ``numpy``: bincount, sort and integer arithmetic over a 256 KiB array,
  like netpbm parsing and the analysis layer.  The chi-square attack's raw
  time spread 1.41x; divided by this kernel, 1.06x.
"""

from __future__ import annotations

import numpy as np

_DATA = np.random.default_rng(0).integers(0, 256, 1 << 18, dtype=np.uint8)


def python_kernel() -> int:
    x, y, seen = 0.123456789, 0.987654321, set()
    for _ in range(15000):
        x = 3.99 * x * (1.0 - x)
        y = 3.97 * y * (1.0 - y)
        cell = int(x * 512) * 512 + int(y * 512)
        if cell not in seen:
            seen.add(cell)
    return len(seen)


def numpy_kernel() -> int:
    total = 0
    for _ in range(3):
        total += int(np.bincount(_DATA, minlength=256)[0])
        total += int(np.sort(_DATA[:65536])[-1])
        total += int((_DATA.astype(np.int32) * 3).sum())
    return total


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}
