"""Host-speed calibration: a fixed reference kernel, timed in-process.

On a shared host the speed of a core drifts by a third or more over
seconds to minutes, and the hypervisor takes the core away now and
then for tens of milliseconds; every CPU-bound figure drifts with
both.  The benchmark therefore reports its timings in seconds at a
reference speed, at which this kernel takes ``REFERENCE_S``; the
kernel is timed on the process CPU clock, which stops while the core
is taken away.

* Closed loops read their own times on the process CPU clock too,
  time the kernel every ``EVERY_S`` CPU seconds between packets, and
  convert their intervals with :class:`benchstats.ReferenceClock`: an
  interval the core ran at half speed counts half.
* The open loop times the kernel as its window opens and then in its
  slack before due times, stretches the gaps between its due times by
  the host's slowness (the median of the latest samples), so that it
  offers its rate at the reference speed, and converts its wall-clock
  times with :class:`benchstats.ReferenceClock` at that same slowness.
* A set-up probe times the kernel after its first event and scales
  its wall-clock set-up time by it.

The kernel is the benchmark's own code, so no change to the program
under test changes what it measures.

It mixes interpreted Python (integer arithmetic, a dict) with NumPy
FFTs, a convolution and small-array cumulative sums, as the gateway's
PHY and tag code do.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time (s) that defines the reference speed: figures are
#: reported as if every kernel call had taken exactly this long.
REFERENCE_S = 1.0e-3

#: Kernel calls per calibration sample; the sample is their median.
CALLS = 5

#: CPU seconds of measured window between two calibration samples.
EVERY_S = 0.25

#: Samples a set-up probe takes after its first event.
SETUP_SAMPLES = 60

#: Samples an open loop takes as its window opens; its dilation is the
#: median of this many latest samples (about 4 s of run).
OPEN_LOOP_SAMPLES = 16

#: Slack (s) before a due time that an open loop needs to take a sample.
OPEN_LOOP_SLACK_S = 0.02

_rng = np.random.default_rng(0)
_x = _rng.standard_normal(4096) + 1j * _rng.standard_normal(4096)
_taps = _rng.standard_normal(33)


def kernel() -> float:
    """One fixed unit of mixed Python and NumPy work."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        acc += (i * 7) % 13
        table[i & 63] = acc
    y = np.fft.ifft(np.fft.fft(_x) * 0.5)
    z = np.convolve(np.abs(y), _taps, mode="same")
    for _ in range(40):
        z = np.cumsum(z[:2048]) * 1e-3
        z = np.concatenate([z, z])
    return acc + float(z[0])


def sample() -> float:
    """Median process CPU time (s) of :data:`CALLS` kernel calls."""
    times = []
    for _ in range(CALLS):
        t = time.process_time()
        kernel()
        times.append(time.process_time() - t)
    return statistics.median(times)


def record() -> tuple[float, float, float]:
    """One calibration sample as ``(start, end, kernel_s)`` on
    ``time.process_time``."""
    start = time.process_time()
    kernel_s = sample()
    return start, time.process_time(), kernel_s
