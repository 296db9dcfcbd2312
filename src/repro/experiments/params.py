"""Typed parameter dataclasses for every registered experiment.

One frozen dataclass per experiment, holding everything a run depends
on -- trial counts, seeds, sweep grids, worker counts.  Field names
match the keyword arguments of the implementing module's ``run``
exactly: the registry dispatches ``run(**fields)``.

This module is deliberately **stdlib-only** (no NumPy, no repro
subpackages): the registry imports it to describe experiments, and
``python -m repro list`` must never pull in implementation code.
Array-valued sweeps are therefore declared as ``(start, stop, step)``
scalars and materialized inside the implementation; enum-valued
parameters (e.g. occlusion material) are declared by value string.

Every dataclass is frozen so preset instances in the registry are
shared safely; derive variants with :func:`dataclasses.replace` (or
``ExperimentSpec.params(preset, **overrides)``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Fig04Params",
    "Fig05Params",
    "Fig07Params",
    "Fig08Params",
    "Fig09Params",
    "Fig12Params",
    "Fig13Params",
    "Fig14Params",
    "Fig15Params",
    "Fig16Params",
    "Fig17Params",
    "Fig18Params",
    "ValidationBerParams",
    "Table2Params",
    "Table3Params",
    "Table4Params",
    "Table5Params",
]


@dataclass(frozen=True)
class Fig04Params:
    """Rectifier comparison: input-power sweep bounds (dBm)."""

    p_start_dbm: float = -35.0
    p_stop_dbm: float = 1.0
    p_step_db: float = 2.5


@dataclass(frozen=True)
class Fig05Params:
    """Envelope distinguishability and (L_p, L_t) accuracy at 20 Msps."""

    n_traces: int = 12
    grid: tuple[tuple[int, int], ...] = ((20, 60), (40, 120), (60, 100))
    seed: int = 5
    n_workers: int | None = None


@dataclass(frozen=True)
class Fig07Params:
    """Blind vs ordered matching at 10 Msps with +-1 quantization."""

    n_traces: int = 12
    n_train: int = 16
    sample_rate_hz: float = 10e6
    power_drop_db: float = 4.0
    seed: int = 7
    n_workers: int | None = None


@dataclass(frozen=True)
class Fig08Params:
    """Low-rate sampling with the extended matching window."""

    n_traces: int = 12
    n_train: int = 8
    seed: int = 8
    n_workers: int | None = None


@dataclass(frozen=True)
class Fig09Params:
    """Two-receiver baseline defects: occlusion BER and offsets."""

    n_packets: int = 400
    seed: int = 9


@dataclass(frozen=True)
class Fig12Params:
    """Mode 1/2/3 productive-vs-tag throughput tradeoffs."""

    n_locations: int = 100
    max_distance_m: float = 8.0
    seed: int = 12


@dataclass(frozen=True)
class Fig13Params:
    """LoS range sweep bounds (metres)."""

    d_start_m: float = 1.0
    d_stop_m: float = 32.0
    d_step_m: float = 1.0


@dataclass(frozen=True)
class Fig14Params:
    """NLoS range sweep bounds (metres)."""

    d_start_m: float = 1.0
    d_stop_m: float = 32.0
    d_step_m: float = 1.0


@dataclass(frozen=True)
class Fig15Params:
    """Occluded-original-channel throughput comparison.

    ``material`` is a :class:`repro.channel.occlusion.Material` value
    string (``"drywall"``, ``"wooden wall"``, ``"concrete wall"``,
    ``"none"``).
    """

    material: str = "drywall"
    distance_m: float = 2.0
    n_packets: int = 500
    seed: int = 15


@dataclass(frozen=True)
class Fig16Params:
    """Time/frequency excitation collisions."""

    n_trials: int = 16
    seed: int = 16


@dataclass(frozen=True)
class Fig17Params:
    """Tag BER across reference-symbol modulations."""

    snr_11b_db: float = 3.0
    snr_11n_db: float = 12.0
    n_packets: int = 6
    seed: int = 17


@dataclass(frozen=True)
class Fig18Params:
    """Excitation diversity: duty-cycled carriers + carrier pick."""

    duration_s: float = 4.0
    duty_period_s: float = 1.0
    seed: int = 18


@dataclass(frozen=True)
class ValidationBerParams:
    """Simulated modem BER vs the analytic waterfalls."""

    ebn0_grid_db: tuple[float, ...] = (4.0, 8.0, 12.0)
    n_packets: int = 4
    payload_bytes: int = 30
    seed: int = 77


@dataclass(frozen=True)
class Table2Params:
    """FPGA resource comparison for identification."""

    template_size_samples: int = 120


@dataclass(frozen=True)
class Table3Params:
    """COTS prototype power breakdown."""

    adc_rate_hz: float = 20e6


@dataclass(frozen=True)
class Table4Params:
    """Solar-harvesting exchange times (no free parameters)."""


@dataclass(frozen=True)
class Table5Params:
    """Identification power/LUT variants (no free parameters)."""
