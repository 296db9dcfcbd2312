"""Per-layer tracing of a gateway run, timed from outside the program.

:class:`Tracer` wraps the public function each layer exposes (the
table in :data:`LAYER_CALLS`), records one span per call -- layer
name, start, end, parent span, packet id -- in memory, and restores
the originals when the run ends.  Parents come from a context variable,
so each asyncio task nests its own spans.

From the spans and the load generator's records, :meth:`Tracer.report`
derives per-layer metrics over the measured window:

* ``<layer>.calls``, ``<layer>.self_s`` and ``<layer>.total_s`` for
  every timed layer.  Each instant of the window is charged to the
  innermost span running at that instant, so self times exclude child
  spans and never add up to more than the wall time.  A coroutine's
  span (``gateway.publish``) is charged only for the steps it runs,
  never while it is suspended and other tasks run; ``total_s`` is its
  whole wall span.  ``gateway.idle`` is the event loop blocked in its
  selector with nothing to run (due-time waits on the open loop, waits
  on decode-pool results).  What no span covers -- the event loop's
  own code, untraced gateway code, the benchmark's subscribers -- is
  the residue ``trace.untraced_s``.
* ``<layer>.calls``, ``.p50_s`` and ``.p99_s`` for the wait layers
  (``gateway.source_wait``, ``gateway.batch_wait``, ``gateway.pool``);
  these overlap the timed layers and are not part of the self-time
  account.  A p99 reads 0 when fewer than 1000 samples (``.calls``)
  support it, and every wait layer reads 0 when it has no samples.
* Ratios, each beside its base count, and counters.

Decode-pool workers inherit the wrappers when they fork but the
tracer is switched off in them (``os.register_at_fork``): with
``decode_workers > 0`` demodulation and Viterbi run out of sight and
show only as ``gateway.pool``.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import heapq
import importlib
import json
import os
import pickle
import selectors
import time
from typing import Any, Callable

import benchstats

#: (layer, module, attribute path) of every wrapped public call.
LAYER_CALLS = (
    ("sim.stage", "repro.sim.pipeline", "AirlinkPipeline.excite_and_react"),
    ("phy.modulate", "repro.core.overlay", "OverlayCodec.build_carrier"),
    ("core.identify", "repro.core.identification", "ProtocolIdentifier.identify"),
    ("core.rectifier", "repro.core.rectifier", "_EnvelopeRectifier.rectify"),
    ("core.adc", "repro.core.adc", "Adc.capture"),
    ("core.matching", "repro.core.identification", "score_capture"),
    ("core.tag_modulate", "repro.core.tag_modulation", "TagModulator.modulate"),
    ("channel", "repro.core.tag_modulation", "TagModulator.received_at_shifted_channel"),
    ("channel", "repro.sim.pipeline", "awgn"),
    ("sim.decode", "repro.gateway.service", "decode_pending_many"),
    ("phy.demod.wifi_b", "repro.phy.wifi_b", "demodulate_batch"),
    ("phy.demod.wifi_n", "repro.phy.wifi_n", "demodulate_batch"),
    ("phy.demod.ble", "repro.phy.ble", "demodulate_batch"),
    ("phy.demod.zigbee", "repro.phy.zigbee", "demodulate_batch"),
    ("phy.viterbi", "repro.phy.viterbi", "decode_batch"),
    ("core.overlay_decode", "repro.core.overlay", "OverlayCodec.decode_symbols"),
    ("gateway.mac", "repro.gateway.mac", "MacArbiter.arbitrate"),
    ("gateway.sweep", "repro.gateway.control", "ControlPlane.keepalive"),
    ("gateway.sweep", "repro.gateway.control", "ControlPlane.evict_stale"),
    ("gateway.publish", "repro.gateway.subscriptions", "SubscriptionHub.publish"),
)

IDLE = "gateway.idle"

#: Pickle one decode-pool payload in this many to size it.
PAYLOAD_SAMPLE = 10

#: Every layer of the self-time account, in report order.
TIMED_LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in LAYER_CALLS)) + (IDLE,)

WAIT_LAYERS = ("gateway.source_wait", "gateway.batch_wait", "gateway.pool")

DEMOD_LAYERS = tuple(l for l in TIMED_LAYERS if l.startswith("phy.demod."))


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a report carries."""
    names = []
    for layer in TIMED_LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"), (f"{layer}.total_s", "s")]
    names += [
        ("core.identify.hit_frac", "ratio"),
        ("sim.backscatter_frac", "ratio"),
        *[(f"{layer}.batch_mean", "pkt") for layer in DEMOD_LAYERS],
        ("gateway.mac.draws", "count"),
        ("gateway.subscriber.depth_max", "count"),
        ("gateway.subscriber.dropped", "count"),
    ]
    for layer in WAIT_LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.p50_s", "s"), (f"{layer}.p99_s", "s")]
    names += [
        ("gateway.pool.payload_kib", "KiB"),
        ("gateway.pool.retries", "count"),
        ("core.wavecache.lookups", "count"),
        ("core.wavecache.hit_frac", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.untraced_s", "s"),
        ("explained_frac", "ratio"),
        ("trace.untraced_cpu_ms_per_pkt", "ms"),
        ("trace.cpu_ms_per_pkt", "ms"),
        ("trace_overhead_frac", "ratio"),
    ]
    return names


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class _Steps:
    """Await ``coro``, recording (start, end) of every step it runs --
    from being resumed to suspending or finishing -- in ``out``."""

    def __init__(self, coro, out: list[tuple[float, float]]) -> None:
        self._coro = coro
        self._out = out

    def __await__(self):
        value, exc = None, None
        while True:
            start = time.perf_counter()
            try:
                if exc is None:
                    yielded = self._coro.send(value)
                else:
                    yielded = self._coro.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                self._out.append((start, time.perf_counter()))
            try:
                value, exc = (yield yielded), None
            except BaseException as err:  # cancellation goes to the coroutine
                value, exc = None, err


class Tracer:
    """In-memory span recorder installed around the layers' calls."""

    def __init__(self) -> None:
        self.enabled = True
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self.layer: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.packet: list[int] = []
        #: One number per span where a layer counts something
        #: (batch size, identification hit, contended draw, ...).
        self.extra: dict[int, float] = {}
        #: Spans charged only for the steps they run, and those steps.
        self.stepped: set[int] = set()
        self.steps: list[tuple[str, float, float]] = []
        #: (start, end) of every blocking wait of the event loop's selector.
        self.idle: list[tuple[float, float]] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self._packet_of: dict[int, int] = {}
        self.schedule = None
        #: packet -> end of the staging call that produced a reception.
        self.staged_at: dict[int, float] = {}
        #: packet -> time its reception was handed to decode.
        self.dispatched_at: dict[int, float] = {}
        #: packet -> publish start (pooled packets only).
        self.published_at: dict[int, float] = {}
        #: Packets whose reception went to the decode pool.
        self.pooled: set[int] = set()
        self.n_payloads = 0
        self.payload_bytes: list[int] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # -- recording -------------------------------------------------------
    def _open(self, layer: str, packet: int | None = None) -> tuple[int, contextvars.Token]:
        idx = len(self.start)
        parent = self._current.get()
        if packet is None:
            packet = self.packet[parent] if parent >= 0 else -1
        self.layer.append(layer)
        self.parent.append(parent)
        self.packet.append(packet)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx, self._current.set(idx)

    def _close(self, idx: int, token: contextvars.Token) -> None:
        self.end[idx] = time.perf_counter()
        self._current.reset(token)

    def _sync(self, layer: str, fn: Callable, packet_of=None, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            packet = packet_of(args) if packet_of is not None else None
            idx, token = tracer._open(layer, packet)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, token)
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    def _publish(self, fn: Callable) -> Callable:
        """``SubscriptionHub.publish``: a coroutine, so its span stays
        open while it waits on a full subscriber queue; only the steps
        it runs count as its self time.  Records the deepest subscriber
        queue seen on entry or exit and, for pooled packets, the end of
        their ``gateway.pool`` wait."""
        tracer = self

        @functools.wraps(fn)
        async def traced(hub, event, *args, **kwargs):
            if not tracer.enabled:
                return await fn(hub, event, *args, **kwargs)
            packet = getattr(event, "stream_seq", 0) - 1
            depth = max((s.qsize() for s in hub.subscribers), default=0)
            idx, token = tracer._open("gateway.publish", packet)
            if packet in tracer.pooled:
                tracer.published_at[packet] = tracer.start[idx]
            tracer.stepped.add(idx)
            steps: list[tuple[float, float]] = []
            try:
                return await _Steps(fn(hub, event, *args, **kwargs), steps)
            finally:
                tracer.steps += [("gateway.publish", s, e) for s, e in steps]
                tracer._close(idx, token)
                tracer.extra[idx] = float(
                    max([depth, *(s.qsize() for s in hub.subscribers)])
                )

        return traced

    # -- per-layer hooks -------------------------------------------------
    def _stage_packet(self, args) -> int:
        return self._packet_of.get(id(args[1]), -1)

    def _after_stage(self, idx, args, result) -> None:
        from repro.sim.pipeline import PendingReception

        staged = result[0]
        reception = isinstance(staged, PendingReception)
        self.extra[idx] = float(reception)
        if reception:
            self._packet_of[id(staged)] = self.packet[idx]
            self.staged_at[self.packet[idx]] = self.end[idx]

    def _after_identify(self, idx, args, result) -> None:
        packet = self.packet[idx]
        if packet >= 0:
            truth = self.schedule.packets[packet].protocol
            self.extra[idx] = float(result.decision is truth)

    def _decode_packet(self, args) -> int:
        pendings = args[0]
        now = time.perf_counter()
        for pending in pendings:
            packet = self._packet_of.get(id(pending), -1)
            if packet >= 0:
                self.dispatched_at[packet] = now
        return self._packet_of.get(id(pendings[0]), -1) if len(pendings) == 1 else -1

    def _after_batch(self, idx, args, result) -> None:
        self.extra[idx] = float(len(args[0]))

    def _after_arbitrate(self, idx, args, result) -> None:
        self.extra[idx] = float(len(result.contenders) >= 2)

    def _to_payload(self, fn: Callable) -> Callable:
        """Time each reception's hand-over to the decode pool, and the
        pickled size of every ``PAYLOAD_SAMPLE``-th payload (pickling
        each one again would double the parent's IPC cost).  No span:
        this is not a layer."""
        tracer = self

        @functools.wraps(fn)
        def traced(pending):
            payload = fn(pending)
            if tracer.enabled:
                packet = tracer._packet_of.get(id(pending), -1)
                if packet >= 0:
                    tracer.dispatched_at[packet] = time.perf_counter()
                    tracer.pooled.add(packet)
                tracer.n_payloads += 1
                if tracer.n_payloads % PAYLOAD_SAMPLE == 1:
                    tracer.payload_bytes.append(
                        len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
                    )
            return payload

        return traced

    # -- install / uninstall ---------------------------------------------
    def install(self, schedule) -> None:
        """Wrap every layer's call; ``schedule`` names the packets."""
        self.schedule = schedule
        self._packet_of = {id(p): i for i, p in enumerate(schedule.packets)}
        hooks: dict[str, dict] = {
            "sim.stage": {"packet_of": self._stage_packet, "after": self._after_stage},
            "core.identify": {"after": self._after_identify},
            "sim.decode": {"packet_of": self._decode_packet},
            "gateway.mac": {"after": self._after_arbitrate},
        }
        for layer in DEMOD_LAYERS:
            hooks[layer] = {"after": self._after_batch}
        for layer, module, path in LAYER_CALLS:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if layer == "gateway.publish":
                wrapped = self._publish(original)
            else:
                wrapped = self._sync(layer, original, **hooks.get(layer, {}))
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        owner, attr = _resolve("repro.gateway.service", "pending_to_payload")
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self._to_payload(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def event_loop(self) -> asyncio.AbstractEventLoop:
        """A new event loop whose selector records its blocking waits."""
        tracer = self

        class IdleSelector(selectors.DefaultSelector):
            def select(self, timeout=None):
                if timeout is not None and timeout <= 0:
                    return super().select(timeout)  # a poll, not a wait
                start = time.perf_counter()
                try:
                    return super().select(timeout)
                finally:
                    tracer.idle.append((start, time.perf_counter()))

        return asyncio.SelectorEventLoop(IdleSelector())

    # -- analysis ----------------------------------------------------------
    def _timeline(self) -> list[tuple[str, float, float]]:
        """Every span as (layer, start, end); a stepped span becomes
        its steps."""
        spans = [
            span
            for k, span in enumerate(zip(self.layer, self.start, self.end))
            if k not in self.stepped
        ]
        return spans + self.steps + [(IDLE, s, e) for s, e in self.idle]

    @staticmethod
    def self_times(
        spans: list[tuple[str, float, float]], lo: float, hi: float
    ) -> dict[str, float]:
        """Charge each instant of [lo, hi] to the most recently opened
        span still open; returns seconds per layer.

        The spans of one thread nest, so this is the innermost span
        running at each instant."""
        events = []
        for k, (_, s, e) in enumerate(spans):
            s, e = max(s, lo), min(e, hi)
            if e > s:
                events.append((s, 1, k))
                events.append((e, 0, k))
        events.sort()
        out: dict[str, float] = {}
        heap: list[tuple[float, int]] = []
        closed: set[int] = set()
        prev = lo
        for t, is_start, k in events:
            while heap and -heap[0][1] in closed:
                heapq.heappop(heap)
            if heap and t > prev:
                layer = spans[-heap[0][1]][0]
                out[layer] = out.get(layer, 0.0) + (t - prev)
            prev = t
            if is_start:
                heapq.heappush(heap, (-spans[k][1], -k))
            else:
                closed.add(k)
        return out

    def report(
        self,
        *,
        source,
        stats,
        wall_s: float,
        cache_delta: tuple[int, int],
        n_warmup: int,
    ) -> dict[str, dict[str, float | str]]:
        lo = source.t0
        hi = lo + wall_s
        self_s = self.self_times(self._timeline(), lo, hi)
        spans = list(zip(self.layer, self.start, self.end))
        spans += [(IDLE, s, e) for s, e in self.idle]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        extra_sum: dict[str, float] = {}
        extra_max: dict[str, float] = {}
        for k, (layer, s, e) in enumerate(spans):
            if not lo <= s <= hi:
                continue
            calls[layer] = calls.get(layer, 0) + 1
            total[layer] = total.get(layer, 0.0) + min(e, hi) - s
            if k in self.extra:
                extra_sum[layer] = extra_sum.get(layer, 0.0) + self.extra[k]
                extra_max[layer] = max(extra_max.get(layer, 0.0), self.extra[k])
        values: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            values[f"{layer}.calls"] = calls.get(layer, 0)
            values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
            values[f"{layer}.total_s"] = total.get(layer, 0.0)

        def ratio(layer: str) -> float:
            return extra_sum.get(layer, 0.0) / calls[layer] if calls.get(layer) else 0.0

        values["core.identify.hit_frac"] = ratio("core.identify")
        values["sim.backscatter_frac"] = ratio("sim.stage")
        for layer in DEMOD_LAYERS:
            values[f"{layer}.batch_mean"] = ratio(layer)
        values["gateway.mac.draws"] = extra_sum.get("gateway.mac", 0.0)
        values["gateway.subscriber.depth_max"] = extra_max.get("gateway.publish", 0.0)
        values["gateway.subscriber.dropped"] = stats.n_dropped_events

        measured = set(range(n_warmup, source.n_handed))
        waits = {
            "gateway.source_wait": benchstats.lateness(
                source.due[n_warmup:], source.handed[n_warmup:]
            ),
            "gateway.batch_wait": [
                self.dispatched_at[p] - self.staged_at[p]
                for p in sorted(measured & self.dispatched_at.keys() & self.staged_at.keys())
            ],
            "gateway.pool": [
                self.published_at[p] - self.dispatched_at[p]
                for p in sorted(measured & self.published_at.keys())
            ],
        }
        for layer, samples in waits.items():
            values[f"{layer}.calls"] = len(samples)
            for q in (50, 99):
                values[f"{layer}.p{q}_s"] = benchstats.percentile_or_none(samples, q) or 0.0
        sizes = self.payload_bytes
        values["gateway.pool.payload_kib"] = sum(sizes) / len(sizes) / 1024 if sizes else 0.0
        values["gateway.pool.retries"] = (
            stats.n_decode_retries + stats.n_decode_worker_crashes + stats.n_decode_timeouts
        )
        hits, misses = cache_delta
        values["core.wavecache.lookups"] = hits + misses
        values["core.wavecache.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
        explained = sum(self_s.values())
        values["trace.wall_s"] = wall_s
        values["trace.untraced_s"] = wall_s - explained
        values["explained_frac"] = explained / wall_s
        units = dict(metric_names())
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    def dump(self, path: str, t0: float) -> None:
        """Write the spans as JSON (columns; times in s from ``t0``)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["layer", "start_s", "end_s", "parent", "packet"],
                    "layer": self.layer,
                    "start_s": [round(s - t0, 7) for s in self.start],
                    "end_s": [round(e - t0, 7) for e in self.end],
                    "parent": self.parent,
                    "packet": self.packet,
                },
                fh,
            )
