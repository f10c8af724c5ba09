"""Self-test of the benchmark harness at smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.3",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1
    wanted = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in summary["metrics"].items()
    }
    assert "check rerun_bytes: PASS" in proc.stdout
    if trace == "0":
        assert all(v["value"] > 0 for v in summary["metrics"].values())
    else:
        assert "trace consistency" in proc.stdout


def test_workload_inputs_follow_the_seed():
    for name in workloads.NAMES:
        a = workloads.pass_config(name, 3, 0, ROOT, smoke=True)
        assert a == workloads.pass_config(name, 3, 0, ROOT, smoke=True)
        assert a != workloads.pass_config(name, 4, 0, ROOT, smoke=True)
        assert a != workloads.pass_config(name, 3, 1, ROOT, smoke=True)


def test_tracer_patches_from_imports_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from cylris import discrete_model, exact_synth, go_synth, pipeline

    original = discrete_model.steering_vector
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.steering_vector is discrete_model.steering_vector
        assert pipeline.steering_vector.__wrapped__ is original
        assert go_synth.far_field_exact is exact_synth.far_field_exact
        assert hasattr(go_synth.far_field_exact, "__wrapped__")
        array = discrete_model.build_array(
            discrete_model.CylinderGeometry(radius_m=0.12, freq_hz=3.6e9), 8, 0.038
        )
        discrete_model.reference_window(array)
    finally:
        tracer.uninstall()
    assert pipeline.steering_vector is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "discrete_model.reference_window"
    assert "discrete_model.steering_vector" in names  # reached through reference_beamwidth
    self_s = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(self_s.values()) == pytest.approx(total)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "mpdr_sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
