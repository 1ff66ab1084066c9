"""Operation bookkeeping shared by the workloads: timing, checks and counts.

Every call into the program is one *operation*.  ``Recorder.op`` times it,
then hands its output to a check that compares it with a reference made apart
from the program (or with a property the method must have).  An operation
that raises or fails its check is counted in ``failed``; it also clears
``correct`` unless it is one of the known faults the workload carries on
purpose (``fault="F1"`` and so on).
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
from typing import Callable, Optional

#: Accuracy is reported in correct significant digits, capped here.
DIGITS_CAP = 16.0


class CheckError(Exception):
    """An output of the program disagrees with its reference."""


def digits_from_error(rel_err: float) -> float:
    """Correct significant digits implied by a relative error, capped at 16."""
    if not math.isfinite(rel_err):
        return 0.0
    if rel_err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, max(0.0, -math.log10(rel_err)))


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and of its finished children.

    On a shared virtual machine other tenants take the processor away in
    bursts; CPU time leaves that waiting out, wall time does not.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def require(condition: bool, message: str) -> None:
    """Raise CheckError with ``message`` unless ``condition`` holds."""
    if not condition:
        raise CheckError(message)


class Recorder:
    """Counts, times and checks the operations of one benchmark run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.durations: list[float] = []
        self.cpu_by_label: dict[str, list[float]] = {}
        self.rounds = 0
        self.panel_digits: list[float] = []
        self.group_seconds: dict[str, float] = {}
        self.group_work: dict[str, float] = {}

    @property
    def correct(self) -> bool:
        return not self.problems

    def op(
        self,
        label: str,
        call: Callable[[], object],
        check: Callable[[object], Optional[float]],
        *,
        fault: Optional[str] = None,
        panel: bool = False,
        group: Optional[str] = None,
        work: float = 0.0,
    ):
        """Run one operation and verify its output.

        ``check(output)`` raises CheckError on a wrong output and otherwise
        returns the output's correct digits (or None).  Digits of ``panel``
        operations that are not known faults make up ``accuracy_digits``.
        ``group`` and ``work`` feed the per-group rates of the traced run.
        Returns the output, or None when the operation failed.
        """
        self.attempted += 1
        handle = self.tracer.open_op(label) if self.tracer else None
        error: Optional[Exception] = None
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failing call is an outcome to count
            out, error = None, exc
        elapsed = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
        if handle is not None:
            self.tracer.close_op(handle)
        self.durations.append(elapsed)
        self.cpu_by_label.setdefault(label, []).append(cpu)
        if group is not None:
            self.group_seconds[group] = self.group_seconds.get(group, 0.0) + elapsed
            self.group_work[group] = self.group_work.get(group, 0.0) + work
        digits = None
        if error is None:
            try:
                digits = check(out)
            except CheckError as exc:
                error = exc
        if error is not None:
            self.failed += 1
            if fault is None:
                self.flag(f"{label}: {type(error).__name__}: {error}")
            return None
        if panel and fault is None and digits is not None:
            self.panel_digits.append(digits)
        return out

    def flag(self, message: str) -> None:
        """Record a wrong result found by a check that spans operations."""
        if len(self.problems) < 20:
            print(f"check failed: {message}", file=sys.stderr)
        self.problems.append(message)

    def end_round(self) -> None:
        self.rounds += 1

    def timing_metrics(self) -> dict[str, float]:
        """Each operation's median CPU time over the rounds, combined two ways:
        summed (one round at typical speed) and as a geometric mean (every
        operation weighs the same, whatever its size)."""
        medians = [statistics.median(times) for times in self.cpu_by_label.values()]
        return {
            "round_cpu_s": math.fsum(medians),
            "call_cpu_geomean_ms": 1e3 * math.exp(math.fsum(math.log(m) for m in medians) / len(medians)),
        }

    def group_rate(self, group: str) -> float:
        """Work units per second of the operations in ``group`` (0 if none ran)."""
        seconds = self.group_seconds.get(group, 0.0)
        return self.group_work.get(group, 0.0) / seconds if seconds > 0 else 0.0

    def group_seconds_per_round(self, group: str) -> float:
        return self.group_seconds.get(group, 0.0) / self.rounds
