"""Tiny-size smoke test of the benchmark harness, outside the tier-1 suite.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload at a tiny size for one cycle, so it takes seconds and
measures nothing worth keeping; it checks that the harness prints every
metric by name with its unit and that it counts a wrong expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "scene_ingest": {"points_per_view": 2000},
    "kinematics_sweep": {"step": 0.015},
    "batch_small": {"points": 1000},
}


@pytest.fixture(scope="module")
def oracle():
    return workloads.Oracle(run.ORACLE)


@pytest.fixture(scope="module")
def launcher():
    with run.Launcher() as launcher:
        yield launcher


def _tiny(name, work, oracle):
    return workloads.WORKLOADS[name](work, 7, oracle, **TINY[name])


def _assert_printed(result, printed, expected):
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    lines = printed.splitlines()
    for m in expected:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines), m["name"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_print_with_units(name, tmp_path, oracle, launcher, capsys):
    result = run.run_workload(launcher, _tiny(name, tmp_path, oracle), 0, False, tmp_path)
    printed = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    _assert_printed(result, printed, SPEC["end_to_end"])
    for extra in ("job_s_tail", "error_rate"):
        assert any(line.startswith(extra) for line in printed.splitlines())


def test_per_layer_metrics_print_with_units(tmp_path, oracle, launcher, capsys):
    workload = _tiny("kinematics_sweep", tmp_path, oracle)
    result = run.run_workload(launcher, workload, 0, True, tmp_path)
    assert result["correct"]
    _assert_printed(result, capsys.readouterr().out, SPEC["per_layer"])
    assert result["metrics"]["perception.parse_cloud.calls"]["value"] == 0
    assert result["metrics"]["geometry.fingertip_jacobian.calls"]["value"] > 0


def test_wrong_exit_code_expectation_counts_as_failed(tmp_path, oracle, launcher, capsys):
    workload = _tiny("kinematics_sweep", tmp_path, oracle)
    workload.jobs[0].ops[0].expect_rc = 3
    result = run.run_workload(launcher, workload, 0, False, tmp_path)
    assert not result["correct"] and result["failed"] == 1
    error_rate = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("error_rate"))
    assert float(error_rate.split()[1]) == pytest.approx(1 / result["attempted"])


def test_wrong_artifact_expectation_counts_as_failed(tmp_path, oracle, launcher, monkeypatch):
    workload = _tiny("kinematics_sweep", tmp_path, oracle)
    monkeypatch.setattr(workloads, "SLIDE_TO", -1.8)  # the slide really closes at -1.9
    result = run.run_workload(launcher, workload, 0, False, tmp_path)
    assert not result["correct"] and result["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "batch_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
