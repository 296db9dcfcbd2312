#!/usr/bin/env python
"""Run the benchmarks and maintain the committed ``BENCH_*.json`` baselines.

Runs ``benchmarks/bench_primitives.py`` under pytest-benchmark,
extracts per-test mean times, pairs the frozen seed kernels with their
vectorized replacements to record speedups, and writes the result to
``BENCH_primitives.json`` at the repository root.

It then runs ``benchmarks/bench_e2e_throughput.py`` -- the end-to-end
packets-decoded/sec workload over all four protocol modems -- and
writes ``BENCH_e2e.json``.  Two gates apply to it:

* the batched dispatch must decode at least ``--e2e-min-speedup``
  (default 3x) times as many packets/sec as the per-packet loop;
* the batched mean time must not regress beyond
  ``--regression-factor`` against the committed baseline.

It then runs ``benchmarks/bench_gateway.py`` -- the streaming-gateway
load sweep (concurrent tags vs p99 decode latency, plus the
decode-worker tags-per-host sweep) -- and writes
``BENCH_gateway.json``.  Its gates: the recorded ``tags_per_core``
capacity must not shrink against the committed baseline, no sweep
point's p99 latency may regress beyond ``--regression-factor``, and
the sharded data plane must deliver at least ``--gateway-min-speedup``
(default 2x) the packets/sec of a single decode worker at the
capacity tag count.

If a committed baseline already exists, every fresh mean time is
compared against it: a slowdown beyond ``--regression-factor``
(default 2x, loose enough for machine-to-machine noise) fails its
stage.  All three stages always run, so one failing gate never hides
another; the run then lists every failing stage, exits 1 and leaves
all three baseline files untouched.

Usage::

    python benchmarks/run_benchmarks.py            # run, gate, update
    python benchmarks/run_benchmarks.py --check    # run + gate only
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_FILE = REPO_ROOT / "benchmarks" / "bench_primitives.py"
OUTPUT = REPO_ROOT / "BENCH_primitives.json"
E2E_BENCH_FILE = REPO_ROOT / "benchmarks" / "bench_e2e_throughput.py"
E2E_OUTPUT = REPO_ROOT / "BENCH_e2e.json"
GATEWAY_BENCH_FILE = REPO_ROOT / "benchmarks" / "bench_gateway.py"
GATEWAY_OUTPUT = REPO_ROOT / "BENCH_gateway.json"
E2E_SCALAR = "test_e2e_decode_per_packet"
E2E_BATCHED = "test_e2e_decode_batched"

#: label -> (seed-kernel bench, vectorized-kernel bench).
SPEEDUP_PAIRS = {
    "viterbi_decode": ("test_viterbi_decode_seed", "test_viterbi_decode"),
    "correlation_scoring": (
        "test_score_capture_sliding_seed",
        "test_score_capture_sliding",
    ),
}


def _check_bench_coverage() -> list[str]:
    """Every registry-declared experiment must have a bench file.

    Table experiments share ``bench_tables.py``; everything else maps
    to ``bench_<name>.py``.  Importing the registry is cheap: it is
    stdlib-only and loads no implementation module.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.experiments import registry
    finally:
        sys.path.pop(0)
    missing = []
    for name in registry.names():
        if name.startswith("table"):
            bench = "bench_tables.py"
        else:
            bench = f"bench_{name}.py"
        if not (REPO_ROOT / "benchmarks" / bench).is_file():
            missing.append(f"{name} (expected benchmarks/{bench})")
    return missing


def _run_bench_file(bench_file: Path) -> tuple[dict[str, dict[str, float]], list[str]]:
    """Mean times of one bench file under pytest-benchmark, or the
    failure that prevented them."""
    # Works without `pip install -e .`: put src/ on the subprocess path.
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            str(bench_file),
            "--benchmark-only",
            f"--benchmark-json={json_path}",
            "-q",
            "-p",
            "no:cacheprovider",
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            return {}, [
                f"{bench_file.name}: benchmark run failed with exit code "
                f"{proc.returncode}"
            ]
        results = _extract_means(json_path)
    if not results:
        return {}, [f"{bench_file.name}: no benchmark results collected"]
    return results, []


def _extract_means(json_path: Path) -> dict[str, dict[str, float]]:
    data = json.loads(json_path.read_text())
    results: dict[str, dict[str, float]] = {}
    for bench in data["benchmarks"]:
        # "path::Class::test_name" -> "test_name"
        name = bench["name"].split("::")[-1].split("[")[0]
        stats = bench["stats"]
        results[name] = {
            "mean_s": stats["mean"],
            "min_s": stats["min"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
        }
    return results


def _speedups(results: dict[str, dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for label, (seed_name, new_name) in SPEEDUP_PAIRS.items():
        if seed_name in results and new_name in results:
            out[label] = round(
                results[seed_name]["mean_s"] / results[new_name]["mean_s"], 2
            )
    return out


def _check_regressions(
    results: dict[str, dict[str, float]], factor: float
) -> list[str]:
    if not OUTPUT.exists():
        return []
    baseline = json.loads(OUTPUT.read_text()).get("results", {})
    failures = []
    for name, stats in results.items():
        base = baseline.get(name)
        if not base:
            continue
        ratio = stats["mean_s"] / base["mean_s"]
        if ratio > factor:
            failures.append(
                f"{name}: {stats['mean_s'] * 1e3:.3f} ms vs baseline "
                f"{base['mean_s'] * 1e3:.3f} ms ({ratio:.2f}x slower)"
            )
    return failures


def _e2e_total_packets() -> int:
    """``TOTAL_PACKETS`` from the e2e bench module (single source of truth)."""
    return int(_load_module("bench_e2e_throughput", E2E_BENCH_FILE).TOTAL_PACKETS)


def _check_e2e(
    results: dict[str, dict[str, float]],
    *,
    min_speedup: float,
    regression_factor: float,
) -> tuple[dict[str, object], list[str]]:
    """Packets/sec summary plus speedup-floor and regression failures."""
    scalar = results.get(E2E_SCALAR)
    batched = results.get(E2E_BATCHED)
    if not scalar or not batched:
        return {}, [
            f"e2e results incomplete: need {E2E_SCALAR} and {E2E_BATCHED}"
        ]
    failures = []
    total = _e2e_total_packets()
    # Best-of-rounds is the noise-robust statistic for a throughput
    # ratio: scheduler hiccups only ever inflate a round, never shrink
    # it, and they do not hit both dispatch modes equally.
    speedup = scalar["min_s"] / batched["min_s"]
    summary: dict[str, object] = {
        "total_packets_per_round": total,
        "packets_per_sec": {
            "per_packet": round(total / scalar["min_s"], 1),
            "batched": round(total / batched["min_s"], 1),
        },
        "batched_speedup": round(speedup, 2),
    }
    if speedup < min_speedup:
        failures.append(
            f"batched decode throughput only {speedup:.2f}x the per-packet "
            f"loop (floor: {min_speedup:.2f}x)"
        )
    if E2E_OUTPUT.exists():
        baseline = json.loads(E2E_OUTPUT.read_text()).get("results", {})
        for name, stats in results.items():
            base = baseline.get(name)
            if not base:
                continue
            ratio = stats["min_s"] / base["min_s"]
            if ratio > regression_factor:
                failures.append(
                    f"{name}: {stats['min_s'] * 1e3:.1f} ms vs baseline "
                    f"{base['min_s'] * 1e3:.1f} ms ({ratio:.2f}x slower)"
                )
    return summary, failures


def _load_module(name: str, path: Path):
    import importlib.util

    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        assert spec is not None and spec.loader is not None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.pop(0)
    return module


def _run_gateway_sweep() -> dict[str, object]:
    module = _load_module("bench_gateway", GATEWAY_BENCH_FILE)
    return module.run_sweep()


def _gateway_speedup_enforceable(payload: dict[str, object]) -> bool:
    """True when the host can physically express the worker speedup."""
    points = payload.get("worker_sweep") or []
    if not points:
        return False
    largest_pool = max(int(p["decode_workers"]) for p in points)  # type: ignore[index]
    return int(payload.get("host_cores", 0)) >= largest_pool


def _check_gateway(
    payload: dict[str, object],
    *,
    regression_factor: float,
    min_speedup: float,
) -> list[str]:
    """Capacity must not shrink; p99 must not blow up; shards must pay.

    Baselines written before the worker sweep existed lack the
    ``decode_speedup`` key; only the freshly measured payload is gated
    on it, so old baselines stay readable.  The speedup floor only
    applies on hosts with at least as many cores as the largest swept
    pool -- process-level parallelism cannot beat the core count, so
    on a smaller host the sweep is recorded but the floor is skipped
    (with a notice from ``main``).
    """
    failures = []
    speedup = float(payload.get("decode_speedup", 0.0))
    if _gateway_speedup_enforceable(payload) and speedup < min_speedup:
        failures.append(
            f"sharded decode throughput only {speedup:.2f}x a single "
            f"worker at {payload.get('worker_sweep_tags')} tags "
            f"(floor: {min_speedup:.2f}x)"
        )
    if not GATEWAY_OUTPUT.exists():
        return failures
    baseline = json.loads(GATEWAY_OUTPUT.read_text())
    base_capacity = int(baseline.get("tags_per_core", 0))
    capacity = int(payload["tags_per_core"])
    if capacity < base_capacity:
        failures.append(
            f"tags_per_core capacity shrank: {capacity} vs committed "
            f"{base_capacity}"
        )
    base_points = {
        int(p["n_tags"]): p for p in baseline.get("sweep", [])
    }
    for point in payload["sweep"]:  # type: ignore[union-attr]
        base = base_points.get(int(point["n_tags"]))
        if not base:
            continue
        ratio = point["p99_latency_s"] / base["p99_latency_s"]
        if ratio > regression_factor:
            failures.append(
                f"gateway p99 at {point['n_tags']} tags: "
                f"{point['p99_latency_s'] * 1e3:.1f} ms vs baseline "
                f"{base['p99_latency_s'] * 1e3:.1f} ms ({ratio:.2f}x slower)"
            )
    return failures


def _report_stage(
    failed: dict[str, list[str]], stage: str, header: str, failures: list[str]
) -> None:
    """Print a stage's gate failures and record the stage as failed."""
    if failures:
        failed[stage] = failures
        print(header)
        for line in failures:
            print(f"  {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate against the committed baseline without rewriting it",
    )
    parser.add_argument(
        "--regression-factor",
        type=float,
        default=2.0,
        help="fail if a kernel's mean time exceeds baseline * factor (default 2)",
    )
    parser.add_argument(
        "--e2e-min-speedup",
        type=float,
        default=3.0,
        help="fail if batched decode is not at least this many times the "
        "per-packet packets/sec (default 3)",
    )
    parser.add_argument(
        "--gateway-min-speedup",
        type=float,
        default=2.0,
        help="fail if the sharded gateway data plane is not at least this "
        "many times a single decode worker's packets/sec (default 2)",
    )
    args = parser.parse_args(argv)

    uncovered = _check_bench_coverage()
    if uncovered:
        print("experiments with no benchmark coverage:", file=sys.stderr)
        for line in uncovered:
            print(f"  {line}", file=sys.stderr)
        return 1

    failed: dict[str, list[str]] = {}

    results, failures = _run_bench_file(BENCH_FILE)
    speedups = _speedups(results)
    failures += _check_regressions(results, args.regression_factor)
    print("kernel speedups vs frozen seed implementations:")
    for label, factor in speedups.items():
        print(f"  {label:22s} {factor:6.2f}x")
    _report_stage(
        failed,
        "primitives",
        "PERFORMANCE REGRESSIONS (vs committed BENCH_primitives.json):",
        failures,
    )

    e2e_results, e2e_failures = _run_bench_file(E2E_BENCH_FILE)
    e2e_summary: dict[str, object] = {}
    if not e2e_failures:
        e2e_summary, e2e_failures = _check_e2e(
            e2e_results,
            min_speedup=args.e2e_min_speedup,
            regression_factor=args.regression_factor,
        )
    if e2e_summary:
        pps = e2e_summary["packets_per_sec"]
        print(
            "e2e decode throughput: "
            f"{pps['per_packet']:.0f} pkt/s per-packet, "
            f"{pps['batched']:.0f} pkt/s batched "
            f"({e2e_summary['batched_speedup']}x)"
        )
    _report_stage(
        failed,
        "e2e",
        "E2E THROUGHPUT GATE FAILURES (vs committed BENCH_e2e.json):",
        e2e_failures,
    )

    gateway_payload = _run_gateway_sweep()
    gateway_failures = _check_gateway(
        gateway_payload,
        regression_factor=args.regression_factor,
        min_speedup=args.gateway_min_speedup,
    )
    bound = " (sweep exhausted)" if gateway_payload.get("sweep_exhausted") else ""
    print(
        "gateway capacity: "
        f"{gateway_payload['tags_per_core']} tags/core within "
        f"{float(gateway_payload['latency_budget_s']) * 1e3:.0f} ms p99 "
        f"budget{bound}"
    )
    if "decode_speedup" in gateway_payload:
        note = (
            ""
            if _gateway_speedup_enforceable(gateway_payload)
            else (
                f" (floor skipped: host has "
                f"{gateway_payload.get('host_cores')} core(s), fewer than "
                f"the largest pool)"
            )
        )
        print(
            "gateway sharding: "
            f"{gateway_payload['decode_speedup']}x packets/sec with "
            f"{max(int(p['decode_workers']) for p in gateway_payload['worker_sweep'])} "  # type: ignore[union-attr]
            f"decode workers vs 1 at "
            f"{gateway_payload['worker_sweep_tags']} tags{note}"
        )
    _report_stage(
        failed,
        "gateway",
        "GATEWAY GATE FAILURES (vs committed BENCH_gateway.json):",
        gateway_failures,
    )

    if failed:
        print(
            f"{len(failed)} of 3 benchmark stage(s) failed: "
            f"{', '.join(failed)}; no baseline written"
        )
        return 1

    if not args.check:
        OUTPUT.write_text(
            json.dumps(
                {
                    "workloads": {
                        "viterbi_decode": "1000 info bits, rate-1/2 K=7, hard decisions",
                        "correlation_scoring": "full-precision score_capture, "
                        "40us window at 10 Msps, 400 sliding offsets",
                    },
                    "results": results,
                    "speedups_vs_seed": speedups,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {OUTPUT.relative_to(REPO_ROOT)}")
        E2E_OUTPUT.write_text(
            json.dumps(
                {
                    "workload": "AWGN packets at Eb/N0 = 8 dB, 128 packets "
                    "x 4 protocols x 30-byte payloads; timed region is "
                    "demodulation only (packets decoded per second)",
                    "results": e2e_results,
                    **e2e_summary,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {E2E_OUTPUT.relative_to(REPO_ROOT)}")
        GATEWAY_OUTPUT.write_text(
            json.dumps(gateway_payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GATEWAY_OUTPUT.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
