"""Envelope-detector (rectifier) behavioral models (paper §2.2.1).

Three front ends are modeled:

* :class:`BasicRectifier` -- single diode + RC (Fig 3a).  Output is the
  envelope minus the diode turn-on voltage; weak signals never turn the
  diode on.
* :class:`ClampRectifier` -- the paper's design (Fig 3c): a clamp stage
  roughly doubles the swing and removes most of the turn-on loss, and
  the RC time constant is tuned for 20 MHz baseband
  (1/f_c << tau << 1/f_b), at the cost of a resistive divider that
  halves the output (the 6 dB SNR sacrifice of §2.2.1).
* :class:`WispRectifier` -- the WISP 5.0 reference: tuned for RFID-rate
  (40-160 kbps) baseband, so its long time constant smears high-
  bandwidth envelopes (Fig 4b).

The simulation operates on the complex-baseband envelope |iq|, which is
exactly what an ideal square-law front end extracts from the 2.4 GHz
carrier.  Two front-end physics effects are included because the
identification results depend on them:

* **FM-to-AM conversion** (``fm_am_slope``): the antenna/matching
  network's response is not flat across the channel, so constant-
  envelope FSK/OQPSK signals (BLE, ZigBee) acquire a data-dependent
  amplitude ripple -- without it their envelopes would be featureless
  and Fig 5a's distinguishable shapes impossible.
* **Output noise** (``noise_v_rms``): diode shot/flicker plus following
  stage noise, which sets the envelope SNR at a given incident power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types import DbmPower, FloatArray, Hertz, Seconds, Volts

from repro.phy.waveform import Waveform
from repro.rng import fallback_rng

__all__ = [
    "RectifierOutput",
    "BasicRectifier",
    "ClampRectifier",
    "WispRectifier",
    "incident_peak_voltage",
    "recommended_tau",
]

#: Antenna reference impedance.
_R_ANTENNA_OHM = 50.0


def incident_peak_voltage(power_dbm: DbmPower, *, matching_boost: float = 4.0) -> Volts:
    """Peak RF voltage at the rectifier input for a given incident power.

    ``matching_boost`` models the passive voltage gain of the antenna
    matching network (moderate-Q LC step-up).
    """
    power_w = 10.0 ** ((power_dbm - 30.0) / 10.0)
    return float(np.sqrt(2.0 * power_w * _R_ANTENNA_OHM) * matching_boost)


def recommended_tau(f_carrier_hz: Hertz = 2.4e9, f_baseband_hz: Hertz = 20e6) -> Seconds:
    """Geometric-mean RC constant satisfying 1/f_c << tau << 1/f_b."""
    if f_carrier_hz <= f_baseband_hz:
        raise ValueError("carrier must exceed baseband frequency")
    return float(1.0 / np.sqrt(f_carrier_hz * f_baseband_hz))


@dataclass
class RectifierOutput:
    """Baseband voltage trace produced by a rectifier."""

    voltage: np.ndarray
    sample_rate: Hertz

    @property
    def mean_v(self) -> Volts:
        return float(self.voltage.mean()) if self.voltage.size else 0.0


def _instantaneous_freq(iq: np.ndarray, fs: float) -> FloatArray:
    """Instantaneous frequency in Hz from phase differences."""
    if iq.size < 2:
        return np.zeros(iq.size)
    dphi = np.angle(iq[1:] * np.conj(iq[:-1]))
    f = dphi * fs / (2.0 * np.pi)
    return np.concatenate([[f[0]], f])


def _diode_rc(v_in: np.ndarray, fs: float, tau_s: float) -> FloatArray:
    """Ideal-diode peak detector with exponential discharge.

    The diode charges the capacitor instantly (charge time constant
    << 1/fs) and the resistor discharges it with ``tau_s``:
    v[n] = max(v_in[n], v[n-1] * exp(-dt/tau)).  Computed exactly in
    blocks via a weighted running maximum.
    """
    if v_in.size == 0:
        return v_in.copy()
    rate = 1.0 / (fs * tau_s)
    if rate > 25.0:
        # Discharge completes within one sample: output tracks input.
        return v_in.copy()
    decay = np.exp(-rate)
    out = np.empty_like(v_in)
    # Keep decay**-block within float range (exp(600) ~ 1e260).
    block = max(int(min(512.0, 600.0 / max(rate, 1e-12))), 1)
    carry = 0.0
    inv_decay_pow = decay ** -np.arange(block, dtype=float)
    decay_pow = decay ** np.arange(block, dtype=float)
    for start in range(0, v_in.size, block):
        seg = v_in[start : start + block]
        n = seg.size
        cand = np.maximum(seg * inv_decay_pow[:n], carry * inv_decay_pow[:n] * decay)
        running = np.maximum.accumulate(cand)
        res = running * decay_pow[:n]
        out[start : start + n] = res
        carry = res[-1]
    return out


class _EnvelopeRectifier:
    """Shared machinery for all three rectifier models."""

    #: Effective turn-on voltage subtracted from the input swing.
    turn_on_v: Volts
    #: Input swing multiplier (clamp stage ~= 2, plain diode = 1).
    swing_gain: float
    #: Resistive divider after detection (loading of the tuned R1).
    output_divider: float
    #: Discharge time constant.
    tau_s: Seconds
    #: FM-to-AM conversion slope (fractional amplitude per MHz).
    fm_am_slope: float
    #: Output-referred noise, volts RMS.
    noise_v_rms: Volts

    def rectify(
        self,
        wave: Waveform,
        incident_power_dbm: float | None,
        *,
        rng: np.random.Generator | None = None,
        matching_boost: float = 4.0,
    ) -> RectifierOutput:
        """Produce the baseband voltage for a waveform.

        With ``incident_power_dbm`` given, the waveform's own scale is
        normalized away and power is set by that value.  With ``None``
        the waveform is taken as already being in antenna volts --
        composite (multi-packet) scenes are built that way so relative
        interferer powers survive (Fig 16).
        """
        rms = np.sqrt(wave.mean_power())
        if rms <= 0:
            env = np.zeros(wave.n_samples)
            f_inst = np.zeros(wave.n_samples)
        else:
            if incident_power_dbm is None:
                env = np.abs(wave.iq) * matching_boost
            else:
                scale = incident_peak_voltage(
                    incident_power_dbm, matching_boost=matching_boost
                )
                env = np.abs(wave.iq) / rms * scale
            f_inst = _instantaneous_freq(wave.iq, wave.sample_rate)
        # FM-to-AM conversion in the matching network.
        env = env * (1.0 + self.fm_am_slope * f_inst / 1e6)
        env = np.clip(env, 0.0, None)

        swing = np.clip(self.swing_gain * env - self.turn_on_v, 0.0, None)
        detected = _diode_rc(swing, wave.sample_rate, self.tau_s)
        out = detected * self.output_divider
        if self.noise_v_rms > 0:
            rng = fallback_rng(rng)
            out = out + rng.normal(scale=self.noise_v_rms, size=out.size)
        return RectifierOutput(voltage=out, sample_rate=wave.sample_rate)

    def output_for_constant_input(self, incident_power_dbm: DbmPower, *, matching_boost: float = 4.0) -> Volts:
        """Steady-state output for an unmodulated carrier (no noise)."""
        v = incident_peak_voltage(incident_power_dbm, matching_boost=matching_boost)
        return max(self.swing_gain * v - self.turn_on_v, 0.0) * self.output_divider


class BasicRectifier(_EnvelopeRectifier):
    """Single-diode detector (Fig 3a): loses the diode turn-on voltage."""

    def __init__(self, *, tau_s: float | None = None, noise_v_rms: float = 2.3e-3) -> None:
        self.turn_on_v = 0.25
        self.swing_gain = 1.0
        self.output_divider = 1.0
        self.tau_s = tau_s if tau_s is not None else recommended_tau()
        self.fm_am_slope = 0.3
        self.noise_v_rms = noise_v_rms


class ClampRectifier(_EnvelopeRectifier):
    """The paper's clamp + tuned-RC design (Fig 3c).

    The clamp doubles the usable swing and reduces the effective
    turn-on to the clamp diode's residual; the tuned (small) R1 both
    speeds the detector up (tau for 20 MHz baseband) and divides the
    output -- the deliberate SNR-for-bandwidth trade of §2.2.1.
    """

    def __init__(self, *, tau_s: float | None = None, noise_v_rms: float = 1.0e-3) -> None:
        self.turn_on_v = 0.02
        self.swing_gain = 2.0
        self.output_divider = 0.2
        self.tau_s = tau_s if tau_s is not None else recommended_tau()
        self.fm_am_slope = 0.3
        self.noise_v_rms = noise_v_rms


class WispRectifier(_EnvelopeRectifier):
    """WISP 5.0 reference front end: RFID-rate RC, high output, slow.

    Its time constant suits 40-160 kbps reader signaling, so a 1 Mbps /
    11 Mchip 802.11b envelope is heavily smeared (Fig 4b).
    """

    def __init__(self, *, tau_s: float = 2e-6, noise_v_rms: float = 1e-3) -> None:
        self.turn_on_v = 0.25
        self.swing_gain = 1.0
        self.output_divider = 1.0
        self.tau_s = tau_s
        self.fm_am_slope = 0.3
        self.noise_v_rms = noise_v_rms
