"""Tag ADC model (AD9235 in the prototype, §3).

Samples a rectifier's baseband voltage at a configurable rate and
resolution.  Three paper-relevant behaviours:

* **rate**: 20 Msps down to 1 Msps (the Fig 7/8 sweeps);
* **reference voltage tuning** (§2.3 note 3): codes are spread over
  [0, v_ref], so matching v_ref to the input's full-scale range uses
  more of the output codes;
* **EN duty-cycling** (§2.3 note 1): the FPGA gates the ADC between
  packets; modeled as an enable window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types import FloatArray, Hertz, Seconds, Volts
from scipy import signal as sp_signal

from repro.core.rectifier import RectifierOutput
from repro.phy import filters

__all__ = ["Adc", "AdcCapture"]


@dataclass
class AdcCapture:
    """Digitized baseband: integer codes plus acquisition metadata."""

    codes: np.ndarray
    sample_rate: Hertz
    v_ref: Volts
    n_bits: int

    def volts(self) -> FloatArray:
        """Codes converted back to volts."""
        full_scale = (1 << self.n_bits) - 1
        return self.codes.astype(float) * self.v_ref / full_scale


@dataclass(frozen=True)
class Adc:
    """A sampling + quantization stage.

    ``sample_rate`` is the output rate (samples are taken at uniform
    times via linear interpolation of the analog trace, so any
    rectifier-side rate is accepted).  ``n_bits`` is the code width
    (the paper's correlator uses 9 of the AD9235's bits).
    """

    sample_rate: Hertz = 20e6
    n_bits: int = 9
    v_ref: Volts = 0.25
    antialias: bool = True

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not 1 <= self.n_bits <= 16:
            raise ValueError("n_bits must be in 1..16")
        if self.v_ref <= 0:
            raise ValueError("v_ref must be positive")

    def _bandlimit(self, analog: RectifierOutput) -> FloatArray:
        """Anti-aliasing low-pass of the ADC driver stage.

        The converter's input network band-limits the envelope to
        ~0.4x the sampling rate; without this, sub-sample timing
        jitter aliases the fast DSSS/OFDM envelope ripple into noise
        and template correlation collapses at low rates.
        """
        cutoff = 0.4 * self.sample_rate
        nyq = analog.sample_rate / 2.0
        if not self.antialias or cutoff >= nyq or not analog.voltage.size:
            return analog.voltage
        # The design depends only on the normalized cutoff, so it is
        # memoized rather than redone per capture.
        sos, zi = filters.butter_lowpass(4, cutoff / nyq)
        # Start the filter in steady state at the first sample's level
        # so the capture window is not polluted by a startup ramp.
        filtered, _ = sp_signal.sosfilt(
            sos, analog.voltage, zi=zi * analog.voltage[0]
        )
        return filtered

    def capture(
        self,
        analog: RectifierOutput,
        *,
        start_s: Seconds = 0.0,
        duration_s: Seconds | None = None,
        phase_s: Seconds = 0.0,
    ) -> AdcCapture:
        """Digitize ``analog`` from ``start_s`` for ``duration_s``.

        ``phase_s`` offsets the sampling grid (sub-sample timing is not
        synchronized to the packet in a real tag).
        """
        total_s = analog.voltage.size / analog.sample_rate
        if duration_s is None:
            duration_s = total_s - start_s
        t0 = start_s + phase_s
        n_out = max(int(np.floor(duration_s * self.sample_rate)), 0)
        times = t0 + np.arange(n_out) / self.sample_rate
        times = np.clip(times, 0.0, total_s - 1.0 / analog.sample_rate)
        src_t = np.arange(analog.voltage.size) / analog.sample_rate
        volts = np.interp(times, src_t, self._bandlimit(analog))
        full_scale = (1 << self.n_bits) - 1
        codes = np.clip(
            np.round(volts / self.v_ref * full_scale), 0, full_scale
        ).astype(np.int32)
        return AdcCapture(
            codes=codes,
            sample_rate=self.sample_rate,
            v_ref=self.v_ref,
            n_bits=self.n_bits,
        )

    def tuned_to(self, full_scale_v: Volts) -> "Adc":
        """Reference-voltage tuning (§2.3 note 3): match v_ref to the
        input's full-scale range so more output codes are used."""
        if full_scale_v <= 0:
            raise ValueError("full_scale_v must be positive")
        return Adc(
            sample_rate=self.sample_rate, n_bits=self.n_bits, v_ref=full_scale_v
        )
