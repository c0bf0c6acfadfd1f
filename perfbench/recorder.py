"""Per-pass recording: case latencies, layer spans and counts.

A span covers one call the benchmark makes into an ``illposed`` module and is
named ``<module>.<operation>``.  Spans stay in memory as tuples
``(name, start_ns, end_ns, parent, case)`` and are written once, after the
run.  With tracing off, ``span`` returns a shared no-op context manager, so
the untraced passes pay one function call per boundary and nothing else.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field

from speed import SpeedSampler

_NO_SPAN = contextlib.nullcontext()

# Layer busy-time metrics, in the order they are reported.
SPAN_NAMES = (
    "directions.enumerate",
    "directions.coverage",
    "operators.build",
    "tikhonov.solve",
    "tikhonov.certify",
    "tikhonov.oracle",
    "probes.pairing",
    "probes.growth",
    "classify.catalog",
    "reports.render",
)

# Counts recorded at the same boundaries as the spans, with their units.
COUNT_UNITS = {
    "directions.count": "count",
    "directions.coverage_calls": "count",
    "operators.build_calls": "count",
    "operators.bytes": "bytes-computed",
    "tikhonov.solve_calls": "count",
    "tikhonov.sweeps": "count",
    "tikhonov.uncertified": "count",
    "tikhonov.oracle_calls": "count",
    "probes.growth_flops": "flop-computed",
    "reports.bytes": "bytes",
}


@dataclass
class CaseResult:
    """Outcome of one case.

    ``failed`` follows the quality gate: an uncertified solve, a recomputed
    residual above tolerance, a mismatched oracle or cross-check, or an
    exception.  ``wrong`` is the subset where an output disagrees with an
    independent recomputation or the case raised; an uncertified solve whose
    certificate says so truthfully is failed but not wrong.
    """

    case_id: str
    start: float = 0.0  # perf_counter instants
    end: float = 0.0
    failed: bool = False
    wrong: bool = False
    reasons: list[str] = field(default_factory=list)
    checks: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed = True
        self.reasons.append(reason)

    def mismatch(self, reason: str) -> None:
        self.wrong = True
        self.fail(reason)

    def defer(self, check) -> None:
        """Queue ``check(case)`` to run after the pass, outside its timing."""
        self.checks.append(check)


class Recorder:
    """Collects one pass: case results, counts, report rows and spans."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.cases: list[CaseResult] = []
        self.counts: Counter = Counter()
        self.rows: list[list] = []
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._case_id: str | None = None

    def span(self, name: str):
        if not self.traced:
            return _NO_SPAN
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._case_id)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    @contextlib.contextmanager
    def case(self, case_id: str):
        """Time one case; an exception inside it is recorded, never raised."""
        result = CaseResult(case_id)
        self._case_id = case_id
        result.start = time.perf_counter()
        try:
            with self.span("case"):
                yield result
        except Exception as exc:  # the run must go on and count the case
            result.mismatch(f"raised {type(exc).__name__}: {exc}")
        finally:
            result.end = time.perf_counter()
            self._case_id = None
            self.cases.append(result)

    def run_checks(self) -> None:
        for result in self.cases:
            for check in result.checks:
                try:
                    check(result)
                except Exception as exc:  # a crashing check is a failed check
                    result.mismatch(f"check raised {type(exc).__name__}: {exc}")
            result.checks.clear()

    def busy(self, sampler: SpeedSampler) -> dict[str, float]:
        """Reference seconds spent inside spans of each layer operation."""
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, _, _ in self.spans:
            if name in out:
                out[name] += sampler.reference(start * 1e-9, end * 1e-9)
        return out
