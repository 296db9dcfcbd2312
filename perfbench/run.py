#!/usr/bin/env python3
"""Gateway benchmark: packets/s and due-time latency on three traffic mixes.

Runs :class:`repro.gateway.Gateway` end to end -- excitation built,
tag identifies and backscatters, channel, demodulate, overlay decode,
event published -- with tags added through ``register_tag`` and
events read through ``subscribe``, on one named workload (see
``perfbench/workloads.py`` and ``perfbench/README.md``)::

    python3 perfbench/run.py --workload mix_inline_max --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, default seed

``--trace 0`` prints the end-to-end metrics (timings in seconds at a
reference host speed, see ``calibrate.py``, with the wall-clock ones
beside them); ``--trace 1`` runs the workload untraced and then traced,
and prints the per-layer metrics.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose outputs fail a
check prints ``"correct": false`` with no metrics and exits 1.

Run it from the root of a checkout: the gateway is imported from
``src/`` there.  Every gateway run happens in a child process with the
BLAS thread count pinned to 1 (inherited by decode-pool workers) and
every ``REPRO_*`` switch cleared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchstats
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent

#: Identical start-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_PROBES = 3

#: Whole-invocation budget (s); the benchmark must exit within 180 s.
DEADLINE_S = 170.0

#: Packets a ``--trace 1`` run measures at least, so that the wait
#: layers of packets that reach decode (about 85 %) hold the 1000
#: samples a p99 needs.
TRACE_MIN_PACKETS = 1250

BLAS_THREADS = "1"

E2E_UNITS = {
    "pkt_per_s": "pkt/s",
    "tag_goodput_kbps": "kbit/s",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class RunFailed(RuntimeError):
    """A child run crashed, timed out or printed no result."""


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: Path, deadline: float, *args: str) -> dict:
    """Run ``gateway_run.py`` once and return its JSON result."""
    cmd = [sys.executable, str(HERE / "gateway_run.py"), *args]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"gateway run {' '.join(args)} timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"gateway run {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def precompile(root: Path, deadline: float) -> None:
    """Byte-compile the sources so no run pays for it inside setup_s."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
        cwd=root,
        env=child_env(root),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def describe(name: str) -> str:
    wl = WORKLOADS[name]
    loop = "closed loop" if wl.rate is None else f"open loop at {wl.rate:g} pkt/s"
    return (
        f"{loop}; {'/'.join(wl.protocols)}; {wl.n_tags} tags, "
        f"{wl.n_subscribers} subscriber(s), decode_workers={wl.decode_workers}, "
        f"decode_batch={wl.decode_batch}"
    )


def report_checks(res: dict, seed: int, label: str = "") -> bool:
    """Print a run's output checks; True when they all passed."""
    errors = res["errors"]
    print(f"  {label}checks: {'ok' if not errors else 'FAILED'}")
    for err in errors:
        print(f"    - {err}")
    book = "recorded" if res["digest_recorded"] else "not recorded"
    print(
        f"  outcome digest {res['digest'][:16]} (first 32 events; seed {seed} "
        f"{book}), checked against an inline unbatched replay and the "
        f"seed-{DEFAULT_SEED} book entry"
    )
    if "backlogged" in res and not res["backlogged"]:
        print(
            f"  backlog: {res['backlog_pkts']} packet(s) behind at the last due "
            f"time (limit {benchstats.backlog_limit(res['attempted'])}): keeping up"
        )
    return not errors


def withheld(res: dict) -> dict:
    print("  metrics withheld: the outputs failed a check")
    return {"correct": False, "attempted": res["attempted"], "failed": res["failed"], "metrics": {}}


def end_to_end(root: Path, name: str, seed: int, seconds: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [
        run_child(root, deadline, *common, "--mode", "setup")
        for _ in range(SETUP_PROBES)
    ]
    res = run_child(root, deadline, *common, "--mode", "run", "--calibrate")
    print(f"env: {json.dumps(res['env'], sort_keys=True)}")
    fail_frac = res["failed"] / res["attempted"]
    print(
        f"  {'fail_frac':<18} {fail_frac:>12.6g} {'ratio':<7} "
        f"{res['failed']} of {res['attempted']} attempted"
    )
    if not report_checks(res, seed):
        return withheld(res)
    metrics = {
        "pkt_per_s": res["pkt_per_s"],
        "tag_goodput_kbps": res["tag_goodput_kbps"],
        "latency_p50_s": res["latency_p50_s"],
        "latency_p99_s": res["latency_p99_s"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "pkt_per_s": f"{res['attempted'] - res['failed']} delivered over {res['wall_s']:.2f} s",
        "latency_p50_s": f"n={res['latency_n']}",
        "latency_p99_s": f"n={res['latency_n']}",
        "setup_s": "median of " + ", ".join(f"{s['setup_s']:.3f}" for s in setups)
        + f"; wall clock median {statistics.median(s['setup_wall_s'] for s in setups):.3f}",
    }
    wall = res.get("wall")
    if wall is not None:
        cal = res["calibration"]
        how = (
            f"they paused the window for {cal['paused_s']:.2f} CPU s"
            if "paused_s" in cal
            else f"due-time gaps stretched by {cal['dilation_median']:.3f} at the median"
        )
        print(
            f"  at the reference host speed (kernel {cal['reference_ms']:g} ms; "
            f"measured median {cal['kernel_ms_median']:.3f} ms over {cal['samples']} "
            f"samples; {how})"
        )
        for key, value in wall.items():
            notes[key] = f"wall clock {value:.6g}; " + notes.get(key, "")
    for key, value in metrics.items():
        print(f"  {key:<18} {value:>12.6g} {E2E_UNITS[key]:<7} {notes.get(key, '')}")
    return {
        "correct": True,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }


def per_layer(root: Path, name: str, seed: int, seconds: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    common += ["--min-packets", str(TRACE_MIN_PACKETS)]
    plain = run_child(root, deadline, *common, "--mode", "run")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{name}-seed{seed}.json"
    traced = run_child(
        root, deadline, *common, "--mode", "run", "--trace-out", str(trace_path)
    )
    print(f"env: {json.dumps(traced['env'], sort_keys=True)}")
    plain_ok = report_checks(plain, seed, "untraced run ")
    traced_ok = report_checks(traced, seed, "traced run ")
    if not (plain_ok and traced_ok):
        return withheld(traced)
    layers = traced["layers"]
    base = plain["cpu_s"] / plain["attempted"]
    mine = traced["cpu_s"] / traced["attempted"]
    layers["trace.untraced_cpu_ms_per_pkt"] = {"value": 1e3 * base, "unit": "ms"}
    layers["trace.cpu_ms_per_pkt"] = {"value": 1e3 * mine, "unit": "ms"}
    layers["trace_overhead_frac"] = {"value": mine / base - 1.0, "unit": "ratio"}
    for key, m in layers.items():
        print(f"  {key:<36} {m['value']:>12.6g} {m['unit']}")
    print(f"  spans written to {trace_path.relative_to(root)}")
    return {
        "correct": True,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": layers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    root = Path.cwd()
    if not (root / "src" / "repro" / "gateway").is_dir():
        print(
            "perfbench: run from the root of a checkout (no src/repro/gateway here)",
            file=sys.stderr,
        )
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # One deadline per invocation of one workload; "all" scales it.
    deadline = time.monotonic() + DEADLINE_S * len(names)
    measure = per_layer if args.trace else end_to_end
    results = {}
    try:
        precompile(root, deadline)
        for name in names:
            print(f"== {name} (seed {args.seed}, {args.seconds} s): {describe(name)}")
            results[name] = measure(root, name, args.seed, args.seconds, deadline)
    except (RunFailed, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": m
                for name, r in results.items()
                for key, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
