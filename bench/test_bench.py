"""Tests of the benchmark itself (not of capelli).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Each workload runs once at the smoke size (one task per class, one pass).
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
sys.path.insert(0, str(BENCH))

import tasks  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 1

# Layer counters that must read zero or nonzero on a workload; the table in
# README.md gives the reasons.
PREDICTIONS = {
    "polynomials.solve.calls": {
        "standard_expansion": "nonzero", "central_build": "zero", "verify_sweep": "zero"},
    "polynomials.solve.cells": {
        "standard_expansion": "nonzero", "central_build": "zero", "verify_sweep": "zero"},
    "elements.expansion.basis_elems": {
        "standard_expansion": "nonzero", "central_build": "zero", "verify_sweep": "zero"},
    "polynomials.act.calls": {"verify_sweep": "nonzero", "central_build": "zero"},
    "polynomials.diff_op.calls": {"verify_sweep": "nonzero", "central_build": "zero"},
    "polynomials.mpoly.self_s": {"verify_sweep": "nonzero", "central_build": "zero"},
    "enveloping.pbw_mul.calls": {"central_build": "nonzero", "verify_sweep": "nonzero"},
    "enveloping.scale.calls": {"central_build": "nonzero"},
    "enveloping.sum.calls": {"central_build": "nonzero"},
    "characters.calls": {"central_build": "nonzero"},
    "elements.column.memo_size": {"central_build": "nonzero"},
    "enveloping.render.self_s": {"central_build": "nonzero"},
    "cli.main.calls": {
        "central_build": "nonzero", "standard_expansion": "zero", "verify_sweep": "zero"},
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    """Run the benchmark that lies under ``cwd``, as from that checkout."""
    done = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return done


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {w: result_of(run_bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    done = run_bench(workload, 0)
    result = result_of(done)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_ratio" in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_with_units(traced, workload):
    result = traced[workload]
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("metric", sorted(PREDICTIONS))
def test_layer_counters_match_predictions(traced, metric):
    for workload, expected in PREDICTIONS[metric].items():
        value = traced[workload]["metrics"][metric]["value"]
        assert (value != 0) == (expected == "nonzero"), (workload, metric, value)


def copy_benchmark(into: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", into)
    shutil.copytree(BENCH, into / "bench", ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_digest_is_a_failed_task(tmp_path):
    workload = "standard_expansion"
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    reference = tmp_path / "bench" / "reference.json"
    data = json.loads(reference.read_text())
    key = next(k for k in tasks.draw(workload, SEED, smoke=True) if k in data["digests"])
    data["digests"][key] = "0" * 16
    reference.write_text(json.dumps(data))
    done = run_bench(workload, 0, cwd=tmp_path)
    result = result_of(done)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    assert key in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    done = run_bench("central_build", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_wrappers_cover_every_binding_and_time_spans():
    sys.path.insert(0, str(ROOT / "src"))
    import capelli
    import capelli.cli
    import capelli.elements

    assert tracing.installed_wrappers() == []
    tracer = tracing.Tracer()
    tracing.install(tracer)
    wrapped = set(tracing.installed_wrappers())
    for name in ("capelli.elements.solve_exact", "capelli.elements.element_sum",
                 "capelli.elements.character", "capelli.polynomials.solve_exact",
                 "capelli.cli.schur_element", "capelli.enveloping.UglElement.__mul__"):
        assert name in wrapped
    tracer.active = True
    capelli.standard_capelli_expansion(capelli.schur_element((2, 1), 2))
    tracer.active = False
    assert tracer.stack == []
    for group in ("elements.expansion", "elements.assembly", "elements.column",
                  "polynomials.solve", "enveloping.pbw_mul", "characters"):
        assert tracer.calls[group] > 0 and tracer.self_s[group] > 0
    assert tracer.counts["elements.expansion.basis_elems"] > 0
    assert sum(node[0] for node in tracer.paths.values()) == sum(tracer.calls.values())
