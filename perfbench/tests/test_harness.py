"""Tests of the benchmark harness's own statistics and due-time accounting.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import benchstats  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402


# -- percentiles and their sample-count rule ---------------------------------
def test_min_samples_leaves_ten_beyond():
    assert benchstats.min_samples(99) == 1000
    assert benchstats.min_samples(50) == 20
    assert benchstats.min_samples(90) == 100
    with pytest.raises(ValueError):
        benchstats.min_samples(100)


def test_p99_refuses_too_few_samples():
    with pytest.raises(benchstats.InsufficientSamples):
        benchstats.percentile(list(range(999)), 99)
    assert benchstats.percentile_or_none(list(range(40)), 99) is None


def test_p99_is_not_the_max():
    values = [float(i) for i in range(1000)]
    p99 = benchstats.percentile(values, 99)
    assert p99 == pytest.approx(989.01)
    assert sum(v > p99 for v in values) == 10


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4  # 20 samples: enough for p50
    assert benchstats.percentile(values, 50) == pytest.approx(3.0)
    shuffled = [0.5 * i for i in range(2000)][::-1]
    assert benchstats.percentile(shuffled, 99) == pytest.approx(0.5 * 1979.01)


def test_quartiles_and_spread_match_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    q1, q2, q3 = benchstats.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert benchstats.relative_spread(values) == pytest.approx((q3 - q1) / q2)
    with pytest.raises(ValueError):
        benchstats.relative_spread([0.0, 0.0, 0.0])


# -- due-time accounting -----------------------------------------------------
def test_latency_is_charged_from_the_due_time():
    due = [0.0, 0.1, 0.2, 0.3]
    received = [0.05, 0.55, 0.56, 0.57]  # a 0.4 s stall on packet 1
    assert benchstats.latencies(due, received) == pytest.approx([0.05, 0.45, 0.36, 0.27])


def test_backlog_flags_a_growing_queue_only():
    due = [i / 100 for i in range(1000)]
    keeping_up = [d + 0.02 for d in due]
    assert benchstats.backlogged(due, keeping_up) == (False, 2)
    falling_behind = [i / 80 for i in range(1000)]  # served at 80 % of the rate
    flagged, behind = benchstats.backlogged(due, falling_behind)
    assert flagged and behind == 1000 - 800


class _Schedule:
    def __init__(self, n):
        self.packets = list(range(n))


async def _drive(source, stall_at, stall_s, receipts):
    """A fake air loop: serves each packet instantly, except that it
    blocks the event loop for ``stall_s`` on packet ``stall_at``."""
    async for packet in source:
        if packet == stall_at:
            time.sleep(stall_s)
        receipts.append(time.perf_counter())


def test_open_loop_stall_is_charged_to_every_packet_behind_it():
    n_warm, n, gap, stall_s = 2, 20, 0.01, 0.15
    offsets = [i * gap for i in range(n)]
    receipts: list[float] = []
    source = loadgen.PacedSource(
        _Schedule(n_warm + n),
        n_warmup=n_warm,
        delivered=lambda: len(receipts),
        offsets=offsets,
    )
    stall_at = n_warm + 5
    asyncio.run(_drive(source, stall_at, stall_s, receipts))
    assert source.n_handed == n_warm + n
    due = source.due[n_warm:]
    assert due == pytest.approx([source.t0 + o for o in offsets])
    lat = benchstats.latencies(due, receipts[n_warm:])
    wait = benchstats.lateness(due, source.handed[n_warm:])
    # Before the stall the generator is on time.
    assert max(lat[:5]) < 0.5 * gap + 0.01
    # The stalled packet and those due during the stall wait it out:
    # packet 5 + k was due k * gap into the stall.
    for k in range(1, 10):
        assert lat[5 + k] >= stall_s - k * gap - 0.005
        assert wait[5 + k] >= stall_s - k * gap - 0.005
    # Pulled late, never rescheduled: due times stay on the grid.
    assert all(h >= d - 1e-6 for d, h in zip(due, source.handed[n_warm:]))


def test_closed_loop_runs_for_seconds_and_at_least_min_packets():
    receipts: list[float] = []
    source = loadgen.PacedSource(
        _Schedule(10_000),
        n_warmup=1,
        delivered=lambda: len(receipts),
        seconds=0.05,
        min_packets=30,
    )

    async def slow_loop():
        async for _ in source:
            await asyncio.sleep(0.01)
            receipts.append(time.perf_counter())

    asyncio.run(slow_loop())
    measured = source.n_handed - 1
    assert measured >= 30  # the sample floor outlasts the 0.05 s window
    assert source.due[1:] == source.handed[1:]  # closed loop: due on hand-over


# -- reference host speed ------------------------------------------------------
def test_reference_clock_scales_by_host_speed_and_skips_samples():
    # Kernel at the reference speed, then twice as slow: samples at
    # [0, 1] (1 ms), [3, 4] (2 ms) and [6, 7] (2 ms).
    clock = benchstats.ReferenceClock(
        [(0.0, 1.0, 1e-3), (3.0, 4.0, 2e-3), (6.0, 7.0, 2e-3)], 1e-3
    )
    assert clock(1.0) == clock(0.5) == clock(0.0)  # time inside a sample is 0
    gap1 = 2.0 / 1.5  # mean of 1 ms and 2 ms: the host ran at 2/3 speed
    assert clock(3.0) - clock(1.0) == pytest.approx(gap1)
    assert clock(2.0) - clock(1.0) == pytest.approx(gap1 / 2)
    assert clock(6.0) - clock(4.0) == pytest.approx(1.0)  # half speed
    assert clock(9.0) - clock(7.0) == pytest.approx(1.0)  # after the last sample
    assert clock(-1.0) == pytest.approx(clock(0.0) - 1.0)  # before the first
    # An interval that spans a sample drops the sample's time.
    assert clock(4.5) - clock(2.5) == pytest.approx(gap1 / 4 + 0.25)


def test_reference_clock_at_reference_speed_is_wall_time_less_samples():
    samples = [(0.0, 0.1, 5e-3), (1.0, 1.1, 5e-3)]
    clock = benchstats.ReferenceClock(samples, 5e-3)
    assert clock(2.0) - clock(0.0) == pytest.approx(2.0 - 0.2)
    with pytest.raises(ValueError):
        benchstats.ReferenceClock([], 1e-3)
    with pytest.raises(ValueError):
        benchstats.ReferenceClock([(0.0, 1.0, 1e-3), (0.5, 2.0, 1e-3)], 1e-3)


def _burn(cpu_s):
    """Spin for ``cpu_s`` of process CPU time."""
    end = time.process_time() + cpu_s
    while time.process_time() < end:
        pass


def _fake_sample(log):
    def sample():
        start = time.process_time()
        _burn(0.01)
        log.append(len(log))
        return start, time.process_time(), 1e-3

    return sample


def test_closed_loop_calibrates_between_hand_overs_and_clock_skips_it():
    receipts: list[float] = []
    taken: list[int] = []
    source = loadgen.PacedSource(
        _Schedule(10_000),
        n_warmup=2,
        delivered=lambda: len(receipts),
        seconds=0.2,
        min_packets=1,
        calibrate=_fake_sample(taken),
        calibrate_every_s=0.05,
    )

    async def loop():
        async for _ in source:
            _burn(0.005)
            receipts.append(time.process_time())

    asyncio.run(loop())
    cal = source.calibrations
    assert cal[0][1] <= source.t0_cpu  # one as the window opens, before t0
    assert 3 <= len(cal) <= 5  # then every 0.05 CPU s of a 0.2 s window
    assert len(taken) == len(cal)
    clock = benchstats.ReferenceClock(cal, 1e-3)
    handed = source.handed_cpu[2:]
    # No sample falls inside a packet's latency.
    lat_ref = [clock(r) - clock(h) for h, r in zip(handed, receipts[2:])]
    assert lat_ref == pytest.approx(benchstats.latencies(handed, receipts[2:]))
    # The window in reference time leaves the samples out.
    window = receipts[-1] - source.t0_cpu
    paused = sum(e - s for s, e, _ in cal[1:])
    assert clock(receipts[-1]) - clock(source.t0_cpu) == pytest.approx(window - paused)
    assert source.due[2:] == source.handed[2:]


def test_open_loop_stretches_due_gaps_by_the_hosts_slowness():
    import calibrate

    receipts: list[float] = []

    def slow_host_sample():
        t = time.process_time()
        return t, t, 2 * calibrate.REFERENCE_S  # the host runs at half speed

    offsets = [i * 0.01 for i in range(10)]
    source = loadgen.PacedSource(
        _Schedule(12),
        n_warmup=2,
        delivered=lambda: len(receipts),
        offsets=offsets,
        calibrate=slow_host_sample,
    )
    asyncio.run(_drive(source, -1, 0.0, receipts))
    assert source.n_handed == 12
    assert len(source.calibrations) == calibrate.OPEN_LOOP_SAMPLES
    assert source.dilation == pytest.approx(2.0)
    assert source.due[2:] == pytest.approx([source.t0 + 2 * o for o in offsets])
    # Read through the logged speed, the due times are back on the grid.
    clock = benchstats.ReferenceClock(source.speed_log, calibrate.REFERENCE_S)
    due_ref = [clock(d) - clock(source.t0) for d in source.due[2:]]
    assert due_ref == pytest.approx(offsets)


# -- self-time accounting ------------------------------------------------------
def test_self_time_excludes_children_and_clips_to_the_window():
    spans_ = [
        ("outer", 0.0, 10.0),
        ("inner", 2.0, 5.0),
        ("leaf", 3.0, 4.0),
        ("other", 12.0, 13.0),  # outside the window
    ]
    out = spans.Tracer.self_times(spans_, 1.0, 11.0)
    assert out == pytest.approx({"outer": 6.0, "inner": 2.0, "leaf": 1.0})


def test_self_time_charges_interleaved_tasks_once():
    # A suspended async span (publish) and a later span from another
    # task overlap: the instant goes to the most recently opened one.
    spans_ = [("publish", 0.0, 4.0), ("stage", 1.0, 3.0)]
    out = spans.Tracer.self_times(spans_, 0.0, 4.0)
    assert out == pytest.approx({"publish": 2.0, "stage": 2.0})
    assert sum(out.values()) <= 4.0


def test_suspended_coroutine_is_charged_only_for_its_steps():
    # A coroutine that works, waits while another task works, and works
    # again: its steps cover its own work and none of the other task's.
    work_s, other_s = 0.02, 0.05
    steps: list[tuple[float, float]] = []
    gate = None

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    async def publish():
        busy(work_s)
        await gate.wait()
        busy(work_s)
        return "done"

    async def other():
        busy(other_s)
        gate.set()

    async def main():
        nonlocal gate
        gate = asyncio.Event()
        task = asyncio.ensure_future(spans._Steps(publish(), steps))
        await asyncio.gather(task, other())
        return task.result()

    assert asyncio.run(main()) == "done"
    charged = sum(e - s for s, e in steps)
    assert len(steps) == 2
    assert 2 * work_s <= charged < 2 * work_s + 0.5 * other_s


def test_idle_counts_only_blocking_selector_waits():
    tracer = spans.Tracer()
    wait_s = 0.05

    async def main():
        await asyncio.sleep(0)  # a poll: the selector is not asked to wait
        await asyncio.sleep(wait_s)

    with asyncio.Runner(loop_factory=tracer.event_loop) as runner:
        runner.run(main())
    idle = sum(e - s for s, e in tracer.idle)
    assert wait_s * 0.9 <= idle < wait_s + 0.05
    assert all(e - s > 0.01 for s, e in tracer.idle)


def test_metric_names_are_unique():
    names = [n for n, _ in spans.metric_names()]
    assert len(names) == len(set(names))


# -- BENCHMARK.json agrees with the harness ------------------------------------
def test_benchmark_json_matches_the_harness():
    import run
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

    root = Path(__file__).resolve().parents[2]
    doc = json.loads((root / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == spans.metric_names()
    book = json.loads((root / "perfbench" / "digests.json").read_text())["digests"]
    for name in WORKLOADS:
        assert set(book[name]) == {str(DEFAULT_SEED), str(HELD_OUT_SEED)}


def test_summarize_reports_quartiles_of_correct_runs(tmp_path, capsys):
    import summarize

    lines = [
        {"correct": True, "attempted": 1, "failed": 0, "metrics": {"x": {"value": v, "unit": "s"}}}
        for v in (1.0, 2.0, 3.0, 4.0, 5.0)
    ]
    lines.append({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
    path = tmp_path / "runs.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    summarize.main([str(path)])
    out = capsys.readouterr().out
    assert "5 correct run(s), 1 failed" in out
    q1, q2, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0, 5.0], n=4)
    assert f"median {q2:<12.6g}" in out
    assert f"spread {(q3 - q1) / q2:.3f}" in out
