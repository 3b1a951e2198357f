"""Self-test of the benchmark: each workload at smoke size, and injected wrong answers.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
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
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in section}
    for metric in section:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    cases_per_pass = len(workloads.REFUTE_SMOKE) + 1
    if workload == "refute-mix":
        # The known defect fails once in every pass, and nothing else does.
        assert result["failed"] == result["attempted"] // cases_per_pass
    else:
        assert result["failed"] == 0
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_all_runs_every_workload():
    done = _run("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0",
                "--smoke")
    assert done.returncode == 0, done.stderr
    assert [line[3:] for line in done.stdout.splitlines() if line.startswith("== ")] == list(
        workloads.WORKLOADS
    )


def test_tampered_refute_golden_counts_as_failed(tmp_path):
    golden = json.loads(json.dumps(GOLDEN))
    golden["refute"]["exchange(2,0)+none"] = [True, "similarity-termination"]
    workload = workloads.make(
        "refute-mix", seed=0, smoke=True, tmp=tmp_path, golden=golden
    )
    workload.setup()
    op = workload.op()
    assert (op.attempted, op.failed, op.wrong) == (4, 2, 1)
    assert run.end_to_end([op], [(1.0, 1.0)])["ok_ratio"] == 0.5


def test_tampered_explore_golden_counts_as_failed(tmp_path):
    golden = json.loads(json.dumps(GOLDEN))
    golden["explore"]["delegation(4,1)"]["order_digest"] = "0" * 32
    workload = workloads.make(
        "explore-inram", seed=0, smoke=True, tmp=tmp_path, golden=golden
    )
    workload.setup()
    op = workload.op()
    assert (op.failed, op.wrong) == (1, 1)
    assert run.end_to_end([op], [(1.0, 1.0)])["ok_ratio"] == 0.0


def test_times_are_scaled_to_the_reference_speed():
    timed = workloads.Op(wall=2.0, samples=[2.0], work=4, work_seconds=2.0, scale=0.5)
    setup = [(0.4, 0.5)]
    assert run.end_to_end([timed], setup)["wall_s"] == 1.0
    assert run.end_to_end([timed], setup)["work_per_s"] == 4.0
    assert run.end_to_end([timed], setup)["p50_ms"] == 1000.0
    assert run.end_to_end([timed], setup)["setup_s"] == 0.2
    assert run.end_to_end([timed], setup, scaled=False)["wall_s"] == 2.0


def test_tail_interpolates_between_samples():
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 10.0], 0.9) == pytest.approx(7.6)
    assert run.percentile([5.0], 0.99) == 5.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "explore-inram", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
