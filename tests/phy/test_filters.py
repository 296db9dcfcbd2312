"""Memoized receive-filter designs vs fresh scipy designs."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.core.adc import Adc
from repro.core.rectifier import RectifierOutput
from repro.phy import filters


@pytest.mark.parametrize("wn", [0.08, 0.175, 0.35, 0.8])
def test_cached_design_matches_fresh_design(wn):
    sos = sp_signal.butter(4, wn, output="sos")
    zi = sp_signal.sosfilt_zi(sos)
    for _ in range(2):  # first call misses, second hits the cache
        got_sos, got_zi = filters.butter_lowpass(4, wn)
        assert np.array_equal(got_sos, sos)
        assert np.array_equal(got_zi, zi)


def test_zi_is_read_only_and_sos_is_a_writable_copy():
    sos, zi = filters.butter_lowpass(4, 0.3)
    with pytest.raises(ValueError):
        zi[0, 0] = 1.0
    sos[0, 0] = 99.0  # sosfilt needs writable coefficients
    assert filters.butter_lowpass(4, 0.3)[0][0, 0] != 99.0


def test_adc_bandlimit_matches_fresh_design():
    rng = np.random.default_rng(4)
    analog = RectifierOutput(
        voltage=0.1 + 0.02 * rng.standard_normal(400), sample_rate=80e6
    )
    adc = Adc(sample_rate=20e6)
    sos = sp_signal.butter(4, 0.4 * 20e6 / 40e6, output="sos")
    want, _ = sp_signal.sosfilt(
        sos, analog.voltage, zi=sp_signal.sosfilt_zi(sos) * analog.voltage[0]
    )
    for _ in range(2):
        assert np.array_equal(adc._bandlimit(analog), want)
