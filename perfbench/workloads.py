"""The benchmark's workloads (traffic mix and service configuration).

Plain data, importable without NumPy: the orchestrator reads the names
and the children build their schedules and gateways from them.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_PROTOCOLS = ("WIFI_B", "WIFI_N", "BLE", "ZIGBEE")

#: Seed used when none is given.  Its outcome digests are recorded in
#: ``digests.json``, and every run re-derives them.
DEFAULT_SEED = 1

#: Seed kept out of tuning: a later change claiming a gain must also
#: show it on this seed.  Its digests are recorded too.
HELD_OUT_SEED = 90210


@dataclass(frozen=True)
class Workload:
    name: str
    #: Excitation protocols (``repro.phy.protocols.Protocol`` names).
    protocols: tuple[str, ...]
    n_tags: int
    n_subscribers: int
    decode_workers: int
    decode_batch: int
    #: Open-loop offered rate in packets/s; ``None`` is a closed loop.
    rate: float | None
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mix_inline_max",
            protocols=ALL_PROTOCOLS,
            n_tags=16,
            n_subscribers=1,
            decode_workers=0,
            decode_batch=1,
            rate=None,
            why=(
                "Throughput ceiling of the default service (closed loop, "
                "inline decode, B=1): 802.11n Viterbi at batch size 1 does "
                "most of the work, so receiver-side changes show here."
            ),
        ),
        Workload(
            name="tagside_max",
            protocols=("WIFI_B", "BLE", "ZIGBEE"),
            n_tags=256,
            n_subscribers=4,
            decode_workers=0,
            decode_batch=1,
            rate=None,
            why=(
                "No 802.11n, so zero Viterbi calls: staging, the MAC and "
                "sweep over 256 tags and the 4-way hub fan-out set the "
                "closed-loop ceiling, so tag-side and gateway changes show."
            ),
        ),
        Workload(
            name="mix_sharded_open",
            protocols=ALL_PROTOCOLS,
            n_tags=16,
            n_subscribers=1,
            decode_workers=2,
            decode_batch=4,
            rate=40.0,
            why=(
                "Decode through the 2-worker process pool at B=4, open loop "
                "at 40 pkt/s: pickled payloads, batch-fill wait, reorder and "
                "publish, which the inline workloads never touch."
            ),
        ),
    )
}
