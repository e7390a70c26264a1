"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They start real benchmark runs and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import wavegrowth as wg  # noqa: E402

checks.load_oracles(ROOT)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.ROTATION)


@pytest.mark.parametrize("t", [12.0, 100.0, 1e4])
def test_fast_trick_T_reference_matches_mpmath(t):
    assert checks.trick_T(t) == pytest.approx(checks._oracles.trick_T_reference(t), rel=1e-13)


def test_tail_percentile_keeps_ten_calls_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(48) == 75.0
    assert run.tail_percentile(230) == 95.0
    lat = [float(i) for i in range(1, 49)]
    assert sum(v > run.nearest_rank(lat, 75.0) for v in lat) == 12


def _one_rotation(name, seed=3):
    calls = [workloads.make_call(wg, name, seed, k) for k in range(len(workloads.ROTATION[name]))]
    for call in calls:
        call.output = workloads.run_call(wg, name, call)
    return calls


@pytest.mark.parametrize("name", ["norm_curve", "sandwich", "local_energy"])
def test_gate_fails_on_a_perturbed_reference(name, monkeypatch):
    if name == "local_energy":
        # a small grid keeps the test fast; the gate is the same
        monkeypatch.setattr(workloads, "LE_LAM", 64.0)
        monkeypatch.setattr(workloads, "LE_POINTS", 512)
    calls = _one_rotation(name)
    for call in calls:
        assert [m for m in checks.check_call(name, call) if not m.known] == []
        perturbed = checks.check_call(name, call, perturb=1e-6)
        assert len(perturbed) == len(call.ts)
        assert not any(m.known for m in perturbed)


@pytest.mark.parametrize("sigma, misses", [(0.6, 0), (2.0, 25)])
def test_gate_names_the_known_model_select_failure(sigma, misses):
    pair = wg.ProfilePair(2, wg.Profile.zero(2), wg.Profile.polynomial_gaussian(2, sigma, 1.0))
    case = workloads.Case("poly2d", pair, {"sigma": sigma, "amplitude": 1.0}, "bounded")
    call = workloads.Call(case, workloads.make_call(wg, "norm_curve", 1, 0).ts)
    call.output = workloads.run_call(wg, "norm_curve", call)
    found = checks.check_call("norm_curve", call)
    assert len(found) == misses
    assert all(m.known for m in found)


def test_a_run_makes_whole_rotations_sized_from_seconds():
    assert workloads.calls_per_run("norm_curve", 20) == 64
    assert workloads.calls_per_run("local_energy", 0.5) == 2
    assert workloads.passes_per_window("sandwich", 0.1) == 1


def test_mean_zero_sigma_alternates_around_the_unsteady_band():
    calls = [workloads.make_call(wg, "norm_curve", 7, k) for k in range(3, 40, 4)]
    assert [c.case.family for c in calls] == ["poly2d"] * 10
    for j, call in enumerate(calls):
        lo, hi = workloads.POLY2D_SIGMA[j % 2]
        assert lo <= call.case.params["sigma"] <= hi


def test_gate_counts_a_raised_call_at_every_time_point():
    call = workloads.make_call(wg, "norm_curve", 0, 0)
    call.error = "QuadratureError: budget"
    assert len(checks.check_call("norm_curve", call)) == len(call.ts)


def test_counters_repeat_for_the_same_code_and_seed():
    results = []
    for _ in range(2):
        proc = _bench("--workload", "sandwich", "--seed", "5", "--seconds", "0.5", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = (r["metrics"] for r in results)
    for name in run.EXACT:
        assert first[name] == second[name], name
    assert results[0]["attempted"] == results[1]["attempted"] > 0
    assert first["bounds.self_s"]["value"] > 0.0
    assert first["quadrature.integrations_per_t"]["value"] > 10
    assert all(r["correct"] and r["failed"] == 0 for r in results)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".trace"))
    proc = _bench("--workload", "sandwich", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
