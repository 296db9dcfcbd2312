"""FPGA resource and power models (paper Tables 2 and 5).

The paper motivates 1-bit quantization by counting D-flip-flops: a
9x9 multiplier costs 259 DFFs and a 9x9 adder 19 DFFs, so naive
4-template correlation at template size 120 needs 133,364 DFFs --
far beyond the AGLN250's 6,144.  Quantizing samples to +-1 turns the
correlator into adder trees (2,860 DFFs).

Table 5 reports simulated Artix-7 power/LUTs for three identification
variants; the LUT and power coefficients here are fitted once to the
paper's published triples and then used for every configuration the
benchmarks sweep (an affine model in tap count and toggle rate).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import Hertz, Microseconds, Milliwatts, Samples

__all__ = [
    "DFF_PER_MULT_9X9",
    "DFF_PER_ADD_9X9",
    "AGLN250_DFF",
    "AGLN250_STORAGE_BITS",
    "naive_correlator_dffs",
    "quantized_correlator_dffs",
    "CorrelatorDesign",
    "identification_power_mw",
    "identification_luts",
]

#: Per-element DFF costs quoted in §2.3.1.
DFF_PER_MULT_9X9 = 259
DFF_PER_ADD_9X9 = 19

#: Igloo nano AGLN250 limits (§2.1, §2.3).
AGLN250_DFF = 6144
AGLN250_STORAGE_BITS = 36 * 1024

#: Fitted quantized-correlator DFF cost per template tap (calibrated to
#: the paper's 2,860 DFFs for 4 x 120 taps: popcount trees plus shared
#: control).
_DFF_PER_QUANT_TAP = 2860 / (4 * 120)

# Table 5 fit: LUTs = _LUT_BASE + taps * per-tap cost.
_LUT_BASE = 230.0
_LUT_PER_TAP_QUANT = (1574.0 - 230.0) / 640.0  # 2.1
_LUT_PER_TAP_FULL = (34751.0 - 230.0) / 640.0  # 53.9

# Table 5 fit: power = static + c * LUTs * f_sample (multipliers toggle
# harder than adder trees).
_POWER_STATIC_MW = 1.07
_POWER_PER_LUT_MHZ_QUANT = 3.472e-4
_POWER_PER_LUT_MHZ_FULL = 8.09e-4


def naive_correlator_dffs(
    template_size_samples: Samples, n_protocols: int = 4
) -> dict[str, int]:
    """Table 2's naive implementation: full-precision correlation.

    Returns the per-protocol and total resource counts.
    """
    if template_size_samples < 1 or n_protocols < 1:
        raise ValueError("template_size_samples and n_protocols must be positive")
    mults = template_size_samples
    adds = template_size_samples - 1
    per_protocol = mults * DFF_PER_MULT_9X9 + adds * DFF_PER_ADD_9X9
    return {
        "multipliers": mults * n_protocols,
        "adders": adds * n_protocols,
        "dffs_per_protocol": per_protocol,
        "dffs_total": per_protocol * n_protocols,
    }


def quantized_correlator_dffs(
    template_size_samples: Samples, n_protocols: int = 4
) -> int:
    """The nano implementation: +-1 samples, adders only (Table 2)."""
    if template_size_samples < 1 or n_protocols < 1:
        raise ValueError("template_size_samples and n_protocols must be positive")
    return round(_DFF_PER_QUANT_TAP * template_size_samples * n_protocols)


def identification_luts(total_taps: int, *, quantized: bool) -> int:
    """Artix-7 LUT estimate for a correlator with ``total_taps`` taps
    across all templates (Table 5 fit)."""
    if total_taps < 1:
        raise ValueError("total_taps must be positive")
    per_tap = _LUT_PER_TAP_QUANT if quantized else _LUT_PER_TAP_FULL
    return round(_LUT_BASE + per_tap * total_taps)


def identification_power_mw(
    total_taps: int, sample_rate_hz: Hertz, *, quantized: bool
) -> Milliwatts:
    """Artix-7 dynamic+static power estimate (Table 5 fit)."""
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    luts = identification_luts(total_taps, quantized=quantized)
    c = _POWER_PER_LUT_MHZ_QUANT if quantized else _POWER_PER_LUT_MHZ_FULL
    return _POWER_STATIC_MW + c * luts * (sample_rate_hz / 1e6)


@dataclass(frozen=True)
class CorrelatorDesign:
    """A concrete identification design point.

    ``window_us`` and ``sample_rate_hz`` determine the per-template tap
    count; resource properties answer "does this fit the AGLN250?" and
    "what would it cost on the Artix-7?".
    """

    sample_rate_hz: Hertz
    window_us: Microseconds
    quantized: bool
    n_protocols: int = 4

    @property
    def taps_per_template(self) -> int:
        return max(int(round(self.window_us * 1e-6 * self.sample_rate_hz)), 1)

    @property
    def total_taps(self) -> int:
        return self.taps_per_template * self.n_protocols

    @property
    def dffs(self) -> int:
        if self.quantized:
            return quantized_correlator_dffs(self.taps_per_template, self.n_protocols)
        return naive_correlator_dffs(self.taps_per_template, self.n_protocols)[
            "dffs_total"
        ]

    @property
    def template_storage_bits(self) -> int:
        """1 bit per tap per template when quantized, 9 bits otherwise."""
        bits = 1 if self.quantized else 9
        return self.total_taps * bits

    def fits_agln250(self) -> bool:
        return (
            self.dffs <= AGLN250_DFF
            and self.template_storage_bits <= AGLN250_STORAGE_BITS
        )

    @property
    def luts(self) -> int:
        return identification_luts(self.total_taps, quantized=self.quantized)

    @property
    def power_mw(self) -> float:
        return identification_power_mw(
            self.total_taps, self.sample_rate_hz, quantized=self.quantized
        )
