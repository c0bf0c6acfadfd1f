"""One measured process: set up a workload, run its passes, print one JSON line.

Usage (normally started by run.py, which sets the BLAS thread variables):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--tiny] [--setup-only]

Set-up ends where the timed section starts; its CLOCK_MONOTONIC instant is
reported as ``ready_ns`` so the launcher can subtract its own launch instant,
with the machine speed sampled right after it (``setup_speed``, see speed.py).
With ``--setup-only`` the process stops there.  Otherwise it runs passes of
the workload's fixed case set in a closed loop until the next pass would end
after ``--seconds`` (at least two passes), alternating untraced and traced
passes when tracing is on, while a SpeedSampler scales every time to
reference seconds.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import illposed  # noqa: E402
from recorder import COUNT_UNITS, SPAN_NAMES, Recorder  # noqa: E402
from speed import REF_KERNEL_S, SpeedSampler, time_kernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
SETUP_SPEED_SAMPLES = 5
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail_percentile(n_cases: int) -> float:
    """Highest percentile with at least ten of n_cases beyond it (p50 at least)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n_cases))


def run_pass(workload, inputs, traced: bool, sampler: SpeedSampler) -> dict:
    """Run one pass and keep only its summary, so memory does not grow with passes.

    Times are in reference seconds (see speed.py): each case is scaled by the
    machine speed sampled around it, and the rest of the pass by the speed
    over the whole pass.
    """
    rec = Recorder(traced)
    cpu0, t0 = time.process_time(), time.perf_counter()
    report = workload.run_pass(inputs, rec)
    t1 = time.perf_counter()
    cpu = time.process_time() - cpu0
    rec.run_checks()
    work = t1 - t0 - sampler.overhead(t0, t1)
    in_cases = sum(c.end - c.start - sampler.overhead(c.start, c.end) for c in rec.cases)
    latencies = {c.case_id: sampler.reference(c.start, c.end) for c in rec.cases}
    wall = sum(latencies.values()) + max(0.0, work - in_cases) * sampler.speed(t0, t1)
    return {
        "traced": traced,
        "wall": wall,
        "cpu": (cpu - sampler.overhead(t0, t1)) * wall / work,
        "raw_wall": work,
        "latencies": latencies,
        "failed": sum(c.failed for c in rec.cases),
        "wrong": sum(c.wrong for c in rec.cases),
        "failures": {f"{c.case_id}: {'; '.join(c.reasons)}" for c in rec.cases if c.failed},
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "busy": rec.busy(sampler) if traced else None,
        "counts": rec.counts,
        "spans": rec.spans,
    }


def measure(workload, inputs, seconds: float, trace: bool) -> dict:
    """Run passes for ``seconds`` and reduce them to metrics and a verdict."""
    passes, spans = [], {}
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, inputs, trace and len(passes) % 2 == 1, sampler))
            latest = passes[-1].pop("spans")
            if passes[-1]["traced"]:  # the reported traced pass is picked at the end
                spans[len(passes) - 1] = latest
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["raw_wall"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
                break

    # Every time is a median over the run's untraced passes, in reference
    # seconds, so neither a slow stretch of the host nor one slow repeat moves it.
    plain = [p for p in passes if not p["traced"]]
    latencies = [
        statistics.median(p["latencies"][case] for p in plain) for case in plain[0]["latencies"]
    ]
    q = tail_percentile(len(latencies))
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    digests = {p["report_sha256"] for p in passes}
    wall = statistics.median(p["wall"] for p in plain)
    raw_wall = statistics.median(p["raw_wall"] for p in plain)

    end_to_end = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in plain), "s"),
        "case_p50_ms": (1e3 * float(np.percentile(latencies, 50.0)), "ms"),
        "case_tail_ms": (1e3 * float(np.percentile(latencies, q)), "ms"),
        "ok_frac": (1.0 - failed / attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "raw_wall_s": (raw_wall, "s"),
        "host_speed": (wall / raw_wall, "1"),
    }
    result = {
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failed_frac": failed / attempted,
        "byte_stable": len(digests) == 1,
        "report_sha256": passes[0]["report_sha256"],
        "passes": len(passes),
        "cases_per_pass": len(latencies),
        "tail_percentile": q,
        "failures": sorted(set().union(*(p["failures"] for p in passes))),
        "speed_samples": len(sampler.starts),
    }
    result["correct"] = wrong == 0 and result["byte_stable"]
    if spans:
        # the traced pass with the median time
        middle = sorted(spans, key=lambda i: passes[i]["wall"])[(len(spans) - 1) // 2]
        result["per_layer"] = per_layer(passes[middle], wall)
        result["spans"] = spans[middle]
    return result


def per_layer(traced: dict, untraced_wall: float) -> dict:
    """Busy time, share of the pass and counts per layer, from one traced pass."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = (traced["busy"][name], "s")
        out[f"{name}_share"] = (traced["busy"][name] / traced["wall"], "1")
    for name, unit in COUNT_UNITS.items():
        out[name] = (traced["counts"][name], unit)
    out["trace.unspanned_s"] = (traced["wall"] - sum(traced["busy"].values()), "s")
    out["trace.overhead_s"] = (traced["wall"] - untraced_wall, "s")
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "illposed").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            getter = getattr(ctypes.CDLL(lib), symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }


def provenance(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "illposed": illposed.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None, help="write traced spans here")
    args = parser.parse_args()

    if Path(illposed.__file__).resolve().parent != (SRC / "illposed").resolve():
        print(f"error: imported illposed from {illposed.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.tiny)
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    # the machine speed at the end of set-up, to scale it to reference seconds
    setup_speed = statistics.median(REF_KERNEL_S / time_kernel() for _ in range(SETUP_SPEED_SAMPLES))
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns, "setup_speed": setup_speed}))
        return 0
    result = measure(workload, inputs, args.seconds, bool(args.trace))
    spans = result.pop("spans", None)
    if spans is not None and args.spans_out:
        Path(args.spans_out).write_text(json.dumps(spans))
    result["ready_ns"] = ready_ns
    result["setup_speed"] = setup_speed
    result["provenance"] = provenance(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
