"""Seeded excitation schedules and the closed/open-loop packet source.

The gateway receives only an :class:`~repro.sim.traffic.ExcitationSchedule`
built here from the run's seed; all load is generated in the
benchmark's own process.

* **Warm-up.**  The first packets cycle through every protocol of the
  workload and are handed over as fast as the air loop asks for them.
  They fill the per-protocol caches and are excluded from every
  statistic; measurement starts once their events have been delivered
  (or delivery has gone quiet, since a partial decode batch waits for
  the next packets).
* **Closed loop** (``rate=None``): the next packet is handed over as
  soon as the air loop asks for it, until the measured window has
  lasted ``seconds`` and at least ``min_packets`` packets went out.
* **Open loop** (``rate`` in packets/s): packet ``i`` is due at the
  absolute time ``t0 + offset[i]``, where the offsets are the first
  ``n`` arrivals of a Poisson process at ``rate``.  The source never shifts a due time: when
  the air loop pulls late, the packet is handed over at once and its
  lateness stays on the books, so a stall is charged to every packet
  behind it.
* **Calibration** (optional): a ``calibrate`` callable times the
  reference kernel of ``calibrate.py``.  A closed loop samples it as the
  window opens and then every ``calibrate_every_s`` seconds of process
  CPU time, between two hand-overs.  A sample blocks the event loop, so
  everything in flight pauses for it; the caller counts its time as
  zero (:class:`benchstats.ReferenceClock`).  Hand-overs are also
  stamped on the process CPU clock (``handed_cpu``, ``t0_cpu``) for the
  caller to read through that clock.
* **Dilation** (open loop with ``calibrate``): the kernel is sampled
  ``calibrate.OPEN_LOOP_SAMPLES`` times as the window opens and then
  every ``calibrate_every_s`` wall seconds, in slack before a due time.
  ``dilation``, the host's slowness against the reference speed (the
  median of the latest ``calibrate.OPEN_LOOP_SAMPLES`` samples),
  stretches each gap between due times: on a host running at 2/3 speed
  the packets come 1.5 times further apart, as the work takes 1.5 times
  longer, so the offered load stays the workload's rate at the
  reference speed.  Every value the dilation takes is logged in
  ``speed_log`` as a zero-length sample at the wall time it took
  effect, for the caller to convert wall-clock times with.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from typing import AsyncIterator, Callable, Sequence

import numpy as np

import calibrate

from repro.phy.protocols import Protocol
from repro.sim.traffic import (
    ExcitationSchedule,
    ExcitationSource,
    ScheduledPacket,
    packet_airtime_s,
)

#: Warm-up packets per protocol of the workload.
WARMUP_PER_PROTOCOL = 3

#: Delivery silence (s) after which warm-up is taken as finished even
#: though some warm-up events are still held in a partial decode batch.
WARMUP_QUIET_S = 0.3

#: Give up waiting for warm-up delivery after this long (s).
WARMUP_TIMEOUT_S = 30.0


def n_measured(rate: float, seconds: float, min_packets: int) -> int:
    """Packets an open-loop run offers: ``rate * seconds``, raised to
    ``min_packets`` so the tail percentile has its samples."""
    return max(math.ceil(rate * seconds), min_packets)


def make_schedule(
    protocols: Sequence[Protocol],
    *,
    n_warmup: int,
    n: int,
    rate: float,
    seed: int,
) -> tuple[ExcitationSchedule, list[float]]:
    """The schedule and the measured packets' due offsets (s from t0).

    Warm-up packets come first, cycling through ``protocols``.
    Measured packets take their protocols in blocks of
    ``len(protocols)`` that hold every protocol once, each block in a
    seeded order, so every seed offers the same mix; their offsets are
    the arrival times of a Poisson process at ``rate`` (exponential
    gaps).  Gaps and protocols come from separate streams spawned from
    ``seed``, so the first packets are the same whatever ``n`` is.
    Start times are simulation times: warm-up packets are spaced at
    ``1/rate`` and measured ones start at their due offsets after the
    warm-up, so the schedule the gateway sees is the one replayed on
    the wall clock.
    """
    gaps_rng, pick_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    )
    offsets = np.cumsum(gaps_rng.exponential(1.0 / rate, size=n))
    k = len(protocols)
    picks = np.concatenate([pick_rng.permutation(k) for _ in range(-(-n // k))])[:n]
    sources = {
        p: ExcitationSource(protocol=p, rate_pkts=rate / len(protocols), periodic=False)
        for p in protocols
    }
    warm_span = n_warmup / rate
    packets = []
    for i in range(n_warmup):
        p = protocols[i % len(protocols)]
        packets.append(_packet(sources[p], i / rate))
    for offset, pick in zip(offsets, picks):
        packets.append(_packet(sources[protocols[int(pick)]], warm_span + float(offset)))
    schedule = ExcitationSchedule(
        duration_s=warm_span + float(offsets[-1]), packets=packets
    )
    return schedule, [float(x) for x in offsets]


def _packet(source: ExcitationSource, start_s: float) -> ScheduledPacket:
    return ScheduledPacket(
        protocol=source.protocol,
        start_s=start_s,
        airtime_s=packet_airtime_s(source.protocol, source.resolved_payload()),
        source=source,
    )


class PacedSource:
    """What :meth:`repro.gateway.Gateway.serve` iterates: the schedule,
    handed over closed- or open-loop.

    Per handed packet it records the due time and the time it was
    handed over (``handed``), both on ``time.perf_counter``.  In a
    closed loop a packet is due when it is handed over.  ``on_start`` is called as the measured
    window opens, right after warm-up.  ``calibrate`` returns one
    ``(start, end, kernel_s)`` sample on the process CPU clock; the
    samples are kept in ``calibrations``.
    """

    def __init__(
        self,
        schedule: ExcitationSchedule,
        *,
        n_warmup: int,
        delivered: Callable[[], int],
        offsets: Sequence[float] | None = None,
        seconds: float = 0.0,
        min_packets: int = 0,
        on_start: Callable[[], None] | None = None,
        calibrate: Callable[[], tuple[float, float, float]] | None = None,
        calibrate_every_s: float = calibrate.EVERY_S,
    ) -> None:
        self.schedule = schedule
        self.n_warmup = n_warmup
        self.offsets = offsets
        self.seconds = seconds
        self.min_packets = min_packets
        self._delivered = delivered
        self._on_start = on_start
        self._calibrate = calibrate
        self._calibrate_every_s = calibrate_every_s
        #: Calibration samples taken in the window, in time order.
        self.calibrations: list[tuple[float, float, float]] = []
        #: Open loop: the factor due-time gaps are stretched by, and
        #: ``(t, t, dilation * REFERENCE_S)`` each time it changed.
        self.dilation = 1.0
        self.speed_log: list[tuple[float, float, float]] = []
        self._stopped = False
        self.t0: float | None = None
        self.t0_cpu: float | None = None
        self.due: list[float] = []
        self.handed: list[float] = []
        self.handed_cpu: list[float] = []

    @property
    def n_handed(self) -> int:
        return len(self.handed)

    def stop(self) -> None:
        self._stopped = True

    async def _settle(self) -> None:
        """Wait until the warm-up events are out (or delivery is quiet)."""
        clock = time.perf_counter
        start = last_change = clock()
        seen = self._delivered()
        while seen < self.n_warmup and clock() - start < WARMUP_TIMEOUT_S:
            await asyncio.sleep(0.01)
            now, count = clock(), self._delivered()
            if count != seen:
                seen, last_change = count, now
            elif now - last_change >= WARMUP_QUIET_S:
                return

    def _dilate(self) -> None:
        """Sample the kernel and update the dilation (open loop)."""
        self.calibrations.append(self._calibrate())
        recent = self.calibrations[-calibrate.OPEN_LOOP_SAMPLES :]
        self.dilation = statistics.median(k for _, _, k in recent) / calibrate.REFERENCE_S
        t = time.perf_counter()
        self.speed_log.append((t, t, self.dilation * calibrate.REFERENCE_S))

    async def __aiter__(self) -> AsyncIterator[ScheduledPacket]:
        clock = time.perf_counter
        for i, packet in enumerate(self.schedule.packets):
            if self._stopped:
                return
            pulled = clock()
            if i == self.n_warmup:
                await self._settle()
                if self._on_start is not None:
                    self._on_start()
                if self._calibrate is not None and self.offsets is None:
                    self.calibrations.append(self._calibrate())
                elif self._calibrate is not None:
                    for _ in range(calibrate.OPEN_LOOP_SAMPLES):
                        self._dilate()
                self.t0 = due = pulled = clock()
                self.t0_cpu = time.process_time()
            measured = i - self.n_warmup
            if measured >= 0 and self.offsets is not None:
                if measured >= len(self.offsets):
                    return
                gap = self.offsets[measured] - (self.offsets[measured - 1] if measured else 0.0)
                due += gap * self.dilation
                if (
                    self._calibrate is not None
                    and due - clock() > calibrate.OPEN_LOOP_SLACK_S
                    and clock() - self.speed_log[-1][0] >= self._calibrate_every_s
                ):
                    self._dilate()
                delay = due - clock()
                # Always yield to the loop, even when late: subscribers
                # and the control-plane sweep interleave with the air
                # loop as they would at speed.
                await asyncio.sleep(delay if delay > 0 else 0)
                handed = clock()
            else:
                if (
                    measured >= self.min_packets
                    and pulled - self.t0 >= self.seconds
                ):
                    return
                if (
                    self._calibrate is not None
                    and measured > 0
                    and time.process_time() - self.calibrations[-1][1]
                    >= self._calibrate_every_s
                ):
                    self.calibrations.append(self._calibrate())
                await asyncio.sleep(0)
                due = handed = clock()
            self.due.append(due)
            self.handed.append(handed)
            self.handed_cpu.append(time.process_time())
            yield packet
