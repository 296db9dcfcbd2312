"""Memoized low-pass filter designs for the receive chains.

The tag ADC's anti-aliasing filter and the BLE pre-detection channel
filter are fixed 4th-order Butterworth low-passes whose normalized
cutoff takes only a handful of values per run, yet designing one
(``butter`` plus ``sosfilt_zi``) costs more than filtering a packet.
The designs are cached by ``(order, normalized cutoff)`` and hold the
very arrays a fresh ``scipy.signal`` call returns, so filtered outputs
are bit-identical.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["butter_lowpass"]


@lru_cache(maxsize=32)
def _design(order: int, wn: float) -> tuple[np.ndarray, np.ndarray]:
    from scipy import signal as sp_signal

    sos = sp_signal.butter(order, wn, output="sos")
    zi = sp_signal.sosfilt_zi(sos)
    sos.flags.writeable = False
    zi.flags.writeable = False
    return sos, zi


def butter_lowpass(order: int, wn: float) -> tuple[np.ndarray, np.ndarray]:
    """``(sos, zi)`` of ``scipy.signal.butter(order, wn, output="sos")``.

    ``wn`` is the cutoff normalized to Nyquist and ``zi`` is
    ``sosfilt_zi(sos)``.  ``sos`` is a fresh writable copy, because
    ``scipy.signal.sosfilt`` rejects read-only coefficients; ``zi`` is
    the shared cached array and is read-only (scale it into a new one).
    """
    sos, zi = _design(order, wn)
    return sos.copy(), zi
