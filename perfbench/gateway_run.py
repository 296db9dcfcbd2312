"""One gateway run of one workload, in its own process.

Started by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src``.  Prints one JSON object on its last stdout line:
the run's raw measurements, the output checks and, with ``--trace``,
the per-layer figures.  Modes:

* ``setup``: start, register the tags, serve until the first packet
  event reaches a subscriber, stop.  Reports ``setup_s`` only: from
  ``--spawned-at`` (the parent's ``time.monotonic()`` just before it
  started this process) to the first published packet event, so it
  covers interpreter start-up, imports, tag registration, template
  banks, pool spawn and the first-packet caches.  It is scaled to the
  reference host speed by the kernel's speed just after (the
  wall-clock figure is kept as ``setup_wall_s``).
* ``run``: start, warm up and measure for ``--seconds``.  With
  ``--calibrate`` the run also times the reference kernel of
  ``calibrate.py`` (a closed loop between packets, the open loop in its
  slack, which also paces its due times by it) and reports its
  throughput and latency in seconds at the reference host speed; the
  wall-clock figures are kept beside them under ``"wall"``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import benchstats
import calibrate
import loadgen
from workloads import DEFAULT_SEED, WORKLOADS, Workload

from repro.core import wavecache
from repro.gateway import Gateway, GatewayConfig, PacketEvent
from repro.phy.protocols import Protocol
from repro.sim.traffic import ExcitationSchedule

#: Samples the end-to-end p99 needs (10 beyond it).
MIN_PACKETS = benchstats.min_samples(99)

#: Packets at the head of the stream covered by the outcome digest.
DIGEST_PACKETS = 32

#: Simulation-time spacing of a closed-loop schedule (packets/s); it
#: only sets the packets' start times, never the hand-over pace.
CLOSED_LOOP_NOMINAL_RATE = 100.0

#: Most packets/s a closed loop is expected to reach; sizes its schedule.
CLOSED_LOOP_MAX_RATE = 1000.0

HERE = Path(__file__).resolve().parent


def build_schedule(wl: Workload, seed: int, seconds: float, min_packets: int):
    protocols = [Protocol[p] for p in wl.protocols]
    n_warmup = loadgen.WARMUP_PER_PROTOCOL * len(protocols)
    if wl.rate is not None:
        n = loadgen.n_measured(wl.rate, seconds, min_packets)
        rate = wl.rate
    else:
        n = max(int(CLOSED_LOOP_MAX_RATE * seconds), min_packets)
        rate = CLOSED_LOOP_NOMINAL_RATE
    schedule, offsets = loadgen.make_schedule(
        protocols, n_warmup=n_warmup, n=n, rate=rate, seed=seed
    )
    return schedule, (offsets if wl.rate is not None else None), n_warmup


def outcome_digest(events: list[PacketEvent]) -> str:
    """SHA-256 over the outcomes' protocol, identification, backscatter
    flag, bit counts and decoded tag bits -- no wall-clock field."""
    h = hashlib.sha256()
    for ev in events:
        o = ev.outcome
        ident = o.identified.name if o.identified is not None else "-"
        h.update(
            f"{ev.stream_seq}|{o.protocol.name}|{ident}|{int(o.backscattered)}|"
            f"{o.tag_bits_sent}|{o.tag_bits_correct}|{o.productive_bits_correct}|"
            f"{o.productive_bits_total}|".encode()
        )
        h.update(np.asarray(o.tag_bits_decoded, dtype=np.uint8).tobytes())
        h.update(b"\n")
    return h.hexdigest()


class Receipts:
    """What each subscriber received, stamped on arrival."""

    def __init__(self, n_subscribers: int, on_first=None) -> None:
        self.times: list[dict[int, float]] = [{} for _ in range(n_subscribers)]
        #: The same receipts on the process CPU clock.
        self.cpu_times: list[dict[int, float]] = [{} for _ in range(n_subscribers)]
        self.order: list[list[int]] = [[] for _ in range(n_subscribers)]
        self.events: list[PacketEvent] = []
        self._on_first = on_first

    def delivered(self) -> int:
        return min(len(t) for t in self.times)

    async def consume(self, j: int, sub) -> None:
        times, cpu_times, order = self.times[j], self.cpu_times[j], self.order[j]
        async for ev in sub:
            if not isinstance(ev, PacketEvent):
                continue
            times[ev.stream_seq] = time.perf_counter()
            cpu_times[ev.stream_seq] = time.process_time()
            order.append(ev.stream_seq)
            if j == 0:
                self.events.append(ev)
                if self._on_first is not None:
                    self._on_first()
                    self._on_first = None


async def serve(
    wl: Workload,
    schedule,
    *,
    seed: int,
    n_warmup: int,
    offsets=None,
    seconds: float = 0.0,
    min_packets: int = 0,
    decode_workers: int | None = None,
    decode_batch: int | None = None,
    on_first=None,
    on_start=None,
    calibrate_fn=None,
    stop_on_first: bool = False,
):
    """Serve ``schedule`` through a fresh gateway configured for ``wl``."""
    # A long keepalive timeout: registering 256 tags runs without
    # yielding to the sweep, and no workload may evict a live tag.
    gw = Gateway(
        GatewayConfig(
            seed=seed,
            keepalive_timeout_s=30.0,
            decode_workers=wl.decode_workers if decode_workers is None else decode_workers,
            decode_batch=wl.decode_batch if decode_batch is None else decode_batch,
        )
    )
    for i in range(wl.n_tags):
        await gw.register_tag(f"tag-{i:04d}")
    subs = [gw.subscribe(f"sub-{j}") for j in range(wl.n_subscribers)]
    source = None

    def first() -> None:
        if on_first is not None:
            on_first()
        if stop_on_first:
            gw.request_stop()
            source.stop()

    receipts = Receipts(len(subs), on_first=first)
    source = loadgen.PacedSource(
        schedule,
        n_warmup=n_warmup,
        delivered=receipts.delivered,
        offsets=offsets,
        seconds=seconds,
        min_packets=min_packets,
        on_start=on_start,
        calibrate=calibrate_fn,
    )
    consumers = [
        asyncio.ensure_future(receipts.consume(j, sub)) for j, sub in enumerate(subs)
    ]
    try:
        stats = await gw.serve(source)
    finally:
        results = await asyncio.gather(*consumers, return_exceptions=True)
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return stats, source, receipts


def check_stream(schedule, source, receipts, stats) -> list[str]:
    """The stream invariants; returns the violations found."""
    errors = []
    n = source.n_handed
    expect = list(range(1, n + 1))
    for j, order in enumerate(receipts.order):
        if order != expect:
            errors.append(
                f"sub-{j}: stream_seq not contiguous from 1 to {n} "
                f"(got {len(order)} events)"
            )
    for ev in receipts.events:
        packet = schedule.packets[ev.stream_seq - 1]
        if ev.outcome.protocol is not packet.protocol or ev.time_s != packet.start_s:
            errors.append(f"stream_seq {ev.stream_seq} is not packet {ev.stream_seq - 1}")
            break
    if stats.n_packets != n or stats.n_published != n:
        errors.append(
            f"handed {n} packets, gateway counted {stats.n_packets} "
            f"and published {stats.n_published}"
        )
    for field in ("n_dropped_events", "n_subscriber_evictions", "n_tag_evictions", "n_collisions"):
        if getattr(stats, field):
            errors.append(f"{field} = {getattr(stats, field)}")
    if not stats.drained_clean:
        errors.append("drained_clean is false")
    return errors


def replay_digest(wl: Workload, seed: int) -> str:
    """Digest of an inline, unbatched replay of the schedule's head."""
    schedule, _, _ = build_schedule(wl, seed, 0.0, DIGEST_PACKETS)
    head = ExcitationSchedule(
        duration_s=schedule.duration_s, packets=schedule.packets[:DIGEST_PACKETS]
    )
    _, _, replay = asyncio.run(
        serve(
            wl,
            head,
            seed=seed,
            n_warmup=DIGEST_PACKETS,
            decode_workers=0,
            decode_batch=1,
        )
    )
    return outcome_digest(replay.events)


def check_digests(wl: Workload, seed: int, head: list[PacketEvent]) -> tuple[str, list[str], bool]:
    """The run's head digest, the violations found, and whether the
    book records this seed.

    The run's stream must equal an inline, unbatched replay of the same
    packets, and a recorded seed must reproduce its recorded digest.
    Every run also replays the default seed's head against the book, so
    a change that alters decoded outcomes fails on any seed.
    """
    with open(HERE / "digests.json") as fh:
        book = json.load(fh)["digests"][wl.name]
    digest = outcome_digest(head)
    errors = []
    if replay_digest(wl, seed) != digest:
        errors.append("outcome digest differs from an inline unbatched replay")
    recorded = book.get(str(seed))
    if recorded is not None and recorded != digest:
        errors.append(f"outcome digest {digest[:12]} != recorded {recorded[:12]}")
    if seed != DEFAULT_SEED and replay_digest(wl, DEFAULT_SEED) != book[str(DEFAULT_SEED)]:
        errors.append(f"seed {DEFAULT_SEED} replay no longer matches its recorded digest")
    return digest, errors, recorded is not None


def environment(wl: Workload) -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "decode_workers": wl.decode_workers,
    }


def cache_totals() -> tuple[int, int]:
    hits = misses = 0
    for s in wavecache.cache_stats().values():
        hits += s["hits"]
        misses += s["misses"]
    return hits, misses


def measure(args, wl: Workload, tracer=None) -> dict:
    schedule, offsets, n_warmup = build_schedule(
        wl, args.seed, args.seconds, args.min_packets
    )
    if tracer is not None:
        tracer.install(schedule)
    marks: dict = {}

    def on_start() -> None:
        marks["cpu0"] = time.process_time()
        marks["cache0"] = cache_totals()

    loop_factory = tracer.event_loop if tracer is not None else None
    with asyncio.Runner(loop_factory=loop_factory) as runner:
        stats, source, receipts = runner.run(
            serve(
                wl,
                schedule,
                seed=args.seed,
                n_warmup=n_warmup,
                offsets=offsets,
                seconds=args.seconds,
                min_packets=args.min_packets,
                on_start=on_start,
                calibrate_fn=calibrate.record if args.calibrate else None,
            )
        )
    cpu_s = time.process_time() - marks["cpu0"]
    if source.calibrations and offsets is None:
        source.calibrations.append(calibrate.record())
    cache1 = cache_totals()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    errors = check_stream(schedule, source, receipts, stats)

    # Measured packets: everything handed over after the warm-up.
    first = n_warmup
    seqs = range(first + 1, source.n_handed + 1)
    due = source.due[first:]
    received = [
        max(t.get(s, float("inf")) for t in receipts.times) for s in seqs
    ]
    delivered = [r for r in received if r != float("inf")]
    attempted = len(due)
    failed = attempted - len(delivered)
    t0 = source.t0
    wall = max(delivered) - t0 if delivered else float("nan")
    by_seq = {ev.stream_seq: ev for ev in receipts.events}
    tag_bits = sum(by_seq[s].outcome.tag_bits_correct for s in seqs if s in by_seq)
    lat = benchstats.latencies(
        [d for d, r in zip(due, received) if r != float("inf")], delivered
    )

    def figures(start, due, received, clock=lambda t: t) -> dict:
        """Throughput over the window from ``start`` to the last receipt,
        and latency from due time to receipt, every time read through
        ``clock``."""
        ok = [(d, r) for d, r in zip(due, received) if r != float("inf")]
        window = clock(max(r for _, r in ok)) - clock(start) if ok else float("nan")
        lat = [clock(r) - clock(d) for d, r in ok]
        return {
            "pkt_per_s": len(ok) / window,
            "tag_goodput_kbps": tag_bits / window / 1000.0,
            "latency_p50_s": benchstats.percentile_or_none(lat, 50),
            "latency_p99_s": benchstats.percentile_or_none(lat, 99),
        }

    out = {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "t0": t0,
        "wall_s": wall,
        "cpu_s": cpu_s,
        **figures(t0, due, received),
        "latency_n": len(lat),
        "peak_rss_mb": peak_rss_mb,
        "cache_delta": [cache1[0] - marks["cache0"][0], cache1[1] - marks["cache0"][1]],
    }
    samples = source.calibrations
    if samples:
        # Calibrated: the figures are reported at the reference speed;
        # the wall-clock ones (which include a closed loop's calibration
        # pauses) are kept beside them.
        out["wall"] = figures(t0, due, received)
        out["calibration"] = {
            "reference_ms": 1e3 * calibrate.REFERENCE_S,
            "samples": len(samples),
            "kernel_ms_median": 1e3 * statistics.median(k for _, _, k in samples),
        }
        if offsets is None:
            # Closed loop: read on the process CPU clock.
            received_cpu = [
                max(t.get(s, float("inf")) for t in receipts.cpu_times) for s in seqs
            ]
            clock = benchstats.ReferenceClock(samples, calibrate.REFERENCE_S)
            out.update(figures(source.t0_cpu, source.handed_cpu[first:], received_cpu, clock))
            # The first sample precedes the window, the last follows it.
            out["calibration"]["paused_s"] = sum(e - b for b, e, _ in samples[1:-1])
        else:
            # Open loop: the wall clock slowed by the dilation the due
            # times were stretched by.
            clock = benchstats.ReferenceClock(source.speed_log, calibrate.REFERENCE_S)
            out.update(figures(t0, due, received, clock))
            out["calibration"]["dilation_median"] = statistics.median(
                k / calibrate.REFERENCE_S for _, _, k in source.speed_log
            )
    if offsets is not None:
        out["backlogged"], out["backlog_pkts"] = benchstats.backlogged(due, received)
        if out["backlogged"]:
            errors.append(
                f"backlog grew: {out['backlog_pkts']} packets behind at the last "
                f"due time (limit {benchstats.backlog_limit(attempted)})"
            )
    if out["latency_p99_s"] is None:
        errors.append(f"only {len(lat)} latency samples; p99 needs {MIN_PACKETS}")

    head = [by_seq[s] for s in range(1, DIGEST_PACKETS + 1) if s in by_seq]
    out["digest"], digest_errors, out["digest_recorded"] = check_digests(
        wl, args.seed, head
    )
    errors += digest_errors
    if tracer is not None:
        out["layers"] = tracer.report(
            source=source,
            stats=stats,
            wall_s=wall,
            cache_delta=out["cache_delta"],
            n_warmup=n_warmup,
        )
        tracer.dump(args.trace_out, t0)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument(
        "--min-packets",
        type=int,
        default=MIN_PACKETS,
        help="measure at least this many packets (default: the %(default)s a p99 needs)",
    )
    parser.add_argument("--trace-out", default=None)
    parser.add_argument(
        "--calibrate",
        action="store_true",
        help="closed loop: report figures at the reference host speed",
    )
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    result: dict = {"env": environment(wl)}
    if args.mode == "setup":
        setup: dict = {}
        schedule, _, n_warmup = build_schedule(wl, args.seed, 1.0, 1)

        def on_first() -> None:
            setup["setup_s"] = time.monotonic() - args.spawned_at

        asyncio.run(
            serve(
                wl,
                schedule,
                seed=args.seed,
                n_warmup=n_warmup,
                on_first=on_first,
                stop_on_first=True,
            )
        )
        # Scaled to the reference speed by the kernel's speed right after.
        kernel_s = statistics.median(calibrate.sample() for _ in range(calibrate.SETUP_SAMPLES))
        result["setup_wall_s"] = setup["setup_s"]
        result["setup_s"] = setup["setup_s"] * calibrate.REFERENCE_S / kernel_s
    else:
        tracer = None
        if args.trace_out:
            import spans

            tracer = spans.Tracer()
        result.update(measure(args, wl, tracer))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
