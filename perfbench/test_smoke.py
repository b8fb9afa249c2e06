"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
tracing leaves trace digests unchanged, that the output checks catch a wrong
reference, and that the benchmark refuses to run without the package source.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(
        workloads.WORKLOADS[name],
        steps=12, trace_episodes=2, min_steps=24, window_s=0.0,
        setup_repeats=2, resolution=3, batch=2,
    )


def workdir(base: Path, name: str) -> Path:
    path = base / name
    path.mkdir()
    return path


def test_benchmark_names_the_metrics_the_code_emits():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOAD_NAMES)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == measure.END_TO_END_UNITS
    assert layers == measure.PER_LAYER_UNITS


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_emitted_and_tracing_keeps_digests(name, tmp_path):
    wl = tiny(name)
    plain = measure.run_untraced(
        wl, 7, 0.0, measure.Reference(), workdir(tmp_path, "plain")
    )
    traced = measure.run_traced(
        wl, 7, measure.Reference(), workdir(tmp_path, "traced"),
        tmp_path / "spans.npz",
    )
    assert plain.failed == 0 and traced.failed == 0
    assert plain.metrics.keys() == measure.END_TO_END_UNITS.keys()
    assert all(v > 0 for v in plain.metrics.values())
    # timings are scaled by one factor, from the calibration loop's median
    scale = measure.CALIBRATION_REF_S / (plain.info["calibration_ms"] / 1e3)
    for name in ("setup_s", "step_ms_p50"):
        assert plain.metrics[name] == pytest.approx(plain.info[f"measured_{name}"] * scale)
    assert plain.metrics["steps_per_s"] == pytest.approx(
        plain.info["measured_steps_per_s"] / scale
    )
    assert traced.metrics.keys() == measure.PER_LAYER_UNITS.keys()
    assert len(traced.digests) == wl.trace_episodes
    assert traced.digests == {i: plain.digests[i] for i in traced.digests}
    # module self times plus the unwrapped remainder make up the traced wall
    parts = [traced.metrics[f"{m}.share"] for m in MODULES]
    assert min(parts) >= 0.0 and traced.metrics["trace.unwrapped_share"] >= 0.0
    assert sum(parts) + traced.metrics["trace.unwrapped_share"] == pytest.approx(1.0)


def test_wrong_reference_digest_is_a_failed_operation(tmp_path):
    wl = tiny("ex1-nominal")
    good = measure.run_untraced(
        wl, 7, 0.0, measure.Reference(), workdir(tmp_path, "good")
    )
    same = measure.run_untraced(
        wl, 7, 0.0, measure.Reference(dict(good.digests)), workdir(tmp_path, "same")
    )
    assert same.failed == 0
    wrong = dict(good.digests)
    wrong[1] = "0" * 64
    bad = measure.run_untraced(
        wl, 7, 0.0, measure.Reference(wrong), workdir(tmp_path, "bad")
    )
    assert bad.failed == 1
    assert bad.failed / bad.attempted > 0.0


def test_wrong_reference_values_fail_the_solve(tmp_path):
    wl = tiny("lattice-6s")
    scn, _, _ = workloads.setup(wl, workloads.write_inputs(wl, 7, tmp_path))
    solved = workloads.solve_lattice(wl, scn)
    assert workloads.check_solve(solved, solved.value.values.copy())
    assert not workloads.check_solve(solved, solved.value.values + 1e-8)


def test_recorded_reference_reproduces(tmp_path):
    wl = dataclasses.replace(workloads.WORKLOADS["ex1-nominal"], window_s=0.0)
    ref = run.load_reference(wl.name, 1)
    assert ref.digests
    result = measure.run_untraced(wl, 1, 0.0, ref, workdir(tmp_path, "ref"))
    assert result.failed == 0
    assert all(result.digests[i] == ref.digests[i] for i in result.digests)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ex1-rho",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
