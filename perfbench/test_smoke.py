"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
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

import worker  # noqa: E402
from recorder import Recorder  # noqa: E402
from speed import REF_KERNEL_S, SpeedSampler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every per-layer metric the benchmark reports from a traced run.
LAYER_METRICS = {
    "directions.enumerate_s", "directions.count", "directions.coverage_s",
    "directions.coverage_calls", "operators.build_s", "operators.build_calls",
    "operators.bytes", "tikhonov.solve_s", "tikhonov.solve_calls",
    "tikhonov.sweeps", "tikhonov.uncertified", "tikhonov.certify_s",
    "tikhonov.oracle_s", "tikhonov.oracle_calls", "probes.pairing_s",
    "probes.growth_s", "probes.growth_flops", "classify.catalog_s",
    "reports.render_s", "reports.bytes", "trace.overhead_s", "trace.unspanned_s",
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    record = json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-seed3-trace{trace}.json").read_text()
    )
    assert set(record["end_to_end"]) >= {
        "setup_s", "wall_s", "cpu_s", "case_p50_ms", "case_tail_ms", "ok_frac", "peak_rss_mb"
    }
    assert 0.0 <= record["failed_frac"] <= 1.0
    assert record["byte_stable"] and len(record["report_sha256"]) == 64
    assert record["provenance"]["nproc"] >= 1
    assert record["provenance"]["blas"]["threads"] in (1, None)
    if trace:
        assert LAYER_METRICS <= set(record["per_layer"])
        busy = sum(v for k, (v, _) in record["per_layer"].items()
                   if k.endswith("_s") and k not in ("trace.overhead_s",))
        assert busy > 0.0


def test_uncertified_case_is_counted_not_raised():
    workload = WORKLOADS["collapse"]
    inputs = workload.make_inputs(1, True)
    inputs["max_iter"] = 1
    result = worker.measure(workload, inputs, seconds=0.0, trace=False)
    assert result["failed"] >= 1
    assert result["wrong"] == 0 and result["correct"]
    assert result["end_to_end"]["ok_frac"][0] < 1.0
    assert any("uncertified" in f for f in result["failures"])


def test_exception_in_case_is_counted_not_raised():
    rec = Recorder(traced=True)
    with rec.case("boom"):
        raise ValueError("broken input")
    (case,) = rec.cases
    assert case.failed and case.wrong and "broken input" in case.reasons[0]


def test_reference_seconds_scale_by_speed_and_drop_sampler_time():
    sampler = SpeedSampler()
    for i in range(40):  # a 2 ms sample every 50 ms, the kernel at half speed
        sampler.starts.append(i * 0.05)
        sampler.ends.append(i * 0.05 + 0.002)
        sampler.kernel_s.append(2 * REF_KERNEL_S)
    assert sampler.speed(0.51, 1.51) == pytest.approx(0.5)
    assert sampler.overhead(0.51, 1.51) == pytest.approx(20 * 0.002)
    assert sampler.reference(0.51, 1.51) == pytest.approx((1.0 - 20 * 0.002) * 0.5)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "collapse", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
