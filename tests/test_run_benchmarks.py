"""The benchmark runner runs every stage and writes no baseline on failure.

The three stages (kernel primitives, e2e decode throughput, gateway
sweep) are stubbed out so the test exercises only ``main``'s control
flow: a failing stage must not stop the later ones, every failing
stage is reported, and no baseline JSON is written when any failed.
"""

import importlib.util
from pathlib import Path

import pytest

_RUNNER = Path(__file__).resolve().parents[1] / "benchmarks" / "run_benchmarks.py"


@pytest.fixture
def runner(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("run_benchmarks", _RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    for name in ("OUTPUT", "E2E_OUTPUT", "GATEWAY_OUTPUT"):
        monkeypatch.setattr(module, name, tmp_path / f"{name}.json")
    monkeypatch.setattr(module, "_check_bench_coverage", lambda: [])
    monkeypatch.setattr(module, "_e2e_total_packets", lambda: 512)
    return module


def _stub_stages(monkeypatch, runner, *, primitives_ok, e2e_ok, gateway_ok):
    calls = []

    def run_bench_file(bench_file):
        calls.append(bench_file.name)
        if bench_file == runner.BENCH_FILE:
            if not primitives_ok:
                return {}, ["bench_primitives.py: benchmark run failed"]
            return {"test_kernel": {"mean_s": 1e-3, "min_s": 1e-3}}, []
        # The batched path decodes 4x faster: above the 3x floor.
        fast = 1.0 if e2e_ok else 3.0
        return {
            runner.E2E_SCALAR: {"mean_s": 4.0, "min_s": 4.0},
            runner.E2E_BATCHED: {"mean_s": fast, "min_s": fast},
        }, []

    def gateway_sweep():
        calls.append("gateway")
        return {
            "tags_per_core": 8 if gateway_ok else 0,
            "latency_budget_s": 0.1,
            "sweep": [],
        }

    monkeypatch.setattr(runner, "_run_bench_file", run_bench_file)
    monkeypatch.setattr(runner, "_run_gateway_sweep", gateway_sweep)
    runner.GATEWAY_OUTPUT.write_text('{"tags_per_core": 4, "sweep": []}\n')
    return calls


def test_every_stage_runs_and_every_failure_is_listed(
    runner, monkeypatch, capsys
):
    calls = _stub_stages(
        monkeypatch, runner, primitives_ok=False, e2e_ok=False, gateway_ok=False
    )
    assert runner.main([]) == 1
    assert calls == ["bench_primitives.py", "bench_e2e_throughput.py", "gateway"]
    out = capsys.readouterr().out
    assert "PERFORMANCE REGRESSIONS" in out
    assert "E2E THROUGHPUT GATE FAILURES" in out
    assert "GATEWAY GATE FAILURES" in out
    assert "3 of 3 benchmark stage(s) failed: primitives, e2e, gateway" in out
    assert not runner.OUTPUT.exists()
    assert not runner.E2E_OUTPUT.exists()


def test_one_failing_stage_blocks_every_baseline(runner, monkeypatch, capsys):
    calls = _stub_stages(
        monkeypatch, runner, primitives_ok=False, e2e_ok=True, gateway_ok=True
    )
    gateway_before = runner.GATEWAY_OUTPUT.read_text()
    assert runner.main([]) == 1
    assert calls[-1] == "gateway"
    out = capsys.readouterr().out
    assert "1 of 3 benchmark stage(s) failed: primitives" in out
    assert not runner.OUTPUT.exists()
    assert not runner.E2E_OUTPUT.exists()
    assert runner.GATEWAY_OUTPUT.read_text() == gateway_before


def test_all_stages_pass_writes_baselines(runner, monkeypatch):
    _stub_stages(monkeypatch, runner, primitives_ok=True, e2e_ok=True, gateway_ok=True)
    assert runner.main([]) == 0
    assert runner.OUTPUT.exists()
    assert runner.E2E_OUTPUT.exists()
    assert '"tags_per_core": 8' in runner.GATEWAY_OUTPUT.read_text()
