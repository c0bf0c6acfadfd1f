"""Benchmark entry point for the illposed package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  Each workload runs
in one fresh Python process (perfbench/worker.py) with BLAS pinned to one
thread.  ``setup_s`` is the median, over seven fresh processes, of the time
from launching the process to the start of its timed section, in reference
seconds (perfbench/speed.py): scaled by the machine speed sampled right after.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics named in BENCHMARK.json
with ``--trace 1``.  The lines before it print every metric with its unit,
the full per-layer table, failures and provenance; the same record is
written to ``.perfbench/results/`` and traced spans to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("collapse", "theorem-grid", "lattice")
HELD_OUT_SEED = 20251106  # re-check any claimed gain on this seed
SETUP_SAMPLES = 7
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _worker(args, setup_only: bool, deadline: float) -> tuple[dict, float]:
    """Start one worker process; return its JSON result and set-up seconds."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, (result["ready_ns"] - launched) * 1e-9 * result["setup_speed"]


def run_workload(args) -> dict:
    """Measure one workload; return the full record."""
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = [_worker(args, True, deadline)[1] for _ in range(SETUP_SAMPLES - 1)]
    result, setup = _worker(args, False, deadline)
    setups.append(setup)
    result["end_to_end"]["setup_s"] = (statistics.median(setups), "s")
    result["setup_samples_s"] = setups
    return result


def contract_line(result: dict, names: list[str], table: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["wrong"],
        "metrics": {n: {"value": table[n][0], "unit": table[n][1]} for n in names},
    }


def _print_table(workload: str, table: dict) -> None:
    for name, (value, unit) in table.items():
        print(f"{workload:>13} {name:<28} {value:>16.6g} {unit}")


def report(args, result: dict) -> dict:
    spec = _spec()
    if args.trace:
        table = result["per_layer"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        table = result["end_to_end"]
        names = [m["name"] for m in spec["end_to_end"]]
    _print_table(args.workload, table)
    print(f"{args.workload:>13} failed_frac {result['failed_frac']:.6g} "
          f"of {result['attempted']} cases ({result['passes']} passes x "
          f"{result['cases_per_pass']}); tail percentile p{result['tail_percentile']:.4g}; "
          f"report sha256 "
          f"{result['report_sha256']} byte-stable={result['byte_stable']}")
    for failure in result["failures"]:
        print(f"{args.workload:>13} failed case {failure}")
    record = dict(result, held_out_seed=HELD_OUT_SEED, trace=args.trace)
    print(json.dumps({"provenance": result["provenance"]}))
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return contract_line(result, names, table)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "illposed" / "__init__.py").is_file():
        print(f"error: no illposed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            lines[name] = report(one, run_workload(one))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
