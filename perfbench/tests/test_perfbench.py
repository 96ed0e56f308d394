"""Tests of the benchmark itself (not part of the frvi suite; about 3 min).

    python3 -m pytest -q perfbench/tests

The smoke runs use ``--seconds 1``, so each runs the minimum of two passes
(with ``--trace 1`` one untraced and one traced).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def smoke():
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            runs[workload, trace] = (lines[:-1], json.loads(lines[-1]))
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(smoke, workload, trace):
    _, result = smoke[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_match_untraced(smoke, workload):
    # the worker compares every operation's output digest with the first,
    # untraced pass; a mismatch is a failed gate and makes `correct` false
    lines, result = smoke[workload, 1]
    assert result["correct"], lines
    assert not any("output_changed" in line for line in lines)


def test_binding_2d_var_failure_is_counted(smoke):
    lines, result = smoke["vi-2d", 0]
    passes = result["failed"]
    assert passes >= 1 and result["attempted"] == 4 * passes
    assert result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] == 0.75
    var = [line for line in lines if line.startswith("op vi_s.binding_2d_var")]
    assert var and var[0].endswith(f"failed {passes}/{passes} (diverged)")


@pytest.mark.parametrize("workload", ["qvi-1d", "cli-1d"])
def test_no_failures_off_vi_2d(smoke, workload):
    for trace in (0, 1):
        assert smoke[workload, trace][1]["failed"] == 0


def test_counts_repeat_exactly():
    first, second = (json.loads(run_bench("qvi-1d", 1).stdout.splitlines()[-1])
                     for _ in range(2))
    for name in ("fracgrad.fft_calls", "vi.newton_steps", "vi.krylov_iters",
                 "oracle.iterations", "qvi.outer_steps"):
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("qvi-1d", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_removes_its_wrappers():
    import numpy as np
    import scipy.fft

    import frvi.cli
    import frvi.qvi
    import frvi.vi
    import tracing

    watched = [(np.fft, "fftn"), (scipy.fft, "ifftn"), (frvi.vi, "cg"),
               (frvi.vi, "solve_vi"), (frvi.qvi, "solve_vi"),
               (frvi.qvi.ThresholdOperator, "apply"), (frvi.cli, "write_csv")]
    before = [owner.__dict__[attr] for owner, attr in watched]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(watched, before))
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is orig
               for (owner, attr), orig in zip(watched, before))
