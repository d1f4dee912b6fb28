"""Speed-corrected timing for a shared host whose speed drifts.

On the 2-core virtual machine this benchmark was written on, the same
fixed piece of work runs up to 2x slower from one second to the next,
because other tenants share the physical cores.  A wall-clock time of
one build then says more about the neighbours than about snowdim: five
runs of one workload spread by 17-36% between their quartiles.

``SpeedProbe`` measures the machine's current speed while an operation
runs.  An interval timer interrupts the operation every INTERVAL_S
seconds of wall time and times a fixed kernel that does not touch
snowdim; EDGE_SAMPLES more samples are taken just before and just after
the operation.  The operation's calibrated time is its wall time, less
the time spent in the samples, times REF_S over the mean sample: the
seconds it would have taken had the kernel run in REF_S throughout.  Any
change that speeds snowdim up lowers the calibrated time by the same
share as the wall time.

The kernel has to slow down the way the operation does, and on that machine
different code slows by different amounts: a tight interpreter loop runs
up to 1.6x faster in some phases while snowdim runs only about 1.15x
faster.  Audits are a few hundred numpy calls on arrays of a few hundred
kilobytes to a few hundred megabytes, and follow ``numpy_kernel``, the
same kind of calls on small arrays.  Builds mix interpreted bookkeeping
with many small numpy calls, and follow ``build_kernel``, half of each
kernel.  Set-up runs before numpy is imported, so it follows
``interpreter_kernel`` alone.  Over two minutes of back-to-back audits,
cut into 1.5 s windows, the spread of the windows' medians fell from 0.20
in wall time to 0.03-0.06 with ``numpy_kernel``; a 16 MB memory copy as
the kernel left it at 0.13-0.18, and ``interpreter_kernel`` made it
worse.  Over sixteen back-to-back builds each of l1-line10 and
l2-ultra128, the spread fell from 0.17-0.21 in wall time to 0.05-0.08
with the two kernels summed, as ``build_kernel`` does.  Sampling costs 1-3% of the operation's time.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time

#: seconds between samples while an operation runs
INTERVAL_S = 0.1
#: samples just before and just after the operation; they carry the
#: estimate for operations too short to be interrupted often
EDGE_SAMPLES = 5
#: the calibrated second: a kernel takes REF_S at the reference speed
REF_S = 0.001


def interpreter_kernel(rounds: int = 2000) -> int:
    """Fixed interpreter work of about a millisecond."""
    acc = 0
    table: dict = {}
    for t in range(rounds):
        key = (t & 15, t % 7)
        table[key] = table.get(key, 0) + t * 3 // 5
        acc += len(table) + (t ^ (acc & 255))
    return acc


def numpy_kernel(widths: int = 8) -> float:
    """Fixed small-array numpy work of under a millisecond: Gram-trick
    pair distances of 96 points at eight widths, gathered above the
    diagonal.  The arrays stay under the allocator's 128 KB threshold for
    mapping fresh pages.  The kernel allocates its temporaries on purpose:
    the large audits spend much of their time in the allocator and in
    page faults, and a version that wrote into buffers made once tracked
    the linf-ball32 audit badly (a spread of 0.22 over ten runs, against
    0.09 with this one)."""
    np, points, upper = _numpy_input()
    acc = 0.0
    for width in range(8, 8 + 8 * widths, 8):
        x = points[:, :width]
        sq = np.einsum("ij,ij->i", x, x)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        acc += float(np.sqrt(np.maximum(d2, 0.0))[upper].sum())
    return acc


def build_kernel() -> float:
    """Half of ``interpreter_kernel`` then half of ``numpy_kernel``."""
    return interpreter_kernel(1000) + numpy_kernel(4)


@functools.cache
def _numpy_input():
    # numpy is imported on first use, so that importing this module does
    # not import it before a set-up measurement that times its import
    import numpy as np
    return (np, np.random.default_rng(0).random((96, 64)),
            np.triu_indices(96, k=1))


class SpeedProbe:
    """Samples ``kernel`` while the ``with`` block runs (main thread only)."""

    def __init__(self, kernel=interpreter_kernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self.spent = 0.0              # seconds of sampling inside the block
        self._previous = None

    def _edge(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def _sample(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_timer(self, signum, frame) -> None:
        self.spent += self._sample()

    def __enter__(self):
        self.samples.clear()
        self.spent = 0.0
        self.kernel()                 # unsampled: lazy set-up of the kernel
        self._edge()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._edge()

    def calibrated(self, wall_s: float) -> float:
        """``wall_s`` timed inside the block, at the reference speed."""
        return (wall_s - self.spent) * REF_S / statistics.fmean(self.samples)


def timed(kernel, fn, *args, **kwargs):
    """(result, calibrated seconds, wall seconds) of one call."""
    with SpeedProbe(kernel) as probe:
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
    return out, probe.calibrated(wall), wall
