"""What one benchmark run reports: metrics with units and sample
counts, the attempted/failed tally, and every check that failed."""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def repeat_for(seconds: float, minimum: int, step: Callable[[int], None]) -> None:
    """Call ``step(i)`` until ``seconds`` of wall time have passed and
    at least ``minimum`` calls were made."""
    started = time.perf_counter()
    calls = 0
    while calls < minimum or time.perf_counter() - started < seconds:
        step(calls)
        calls += 1


@dataclass
class Report:
    #: name -> (value, unit, samples)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: free-text lines printed before the result (checks, controls)
    notes: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def attempt(self, ok: bool, problem: str = "") -> bool:
        """Count one attempted operation; a failed one needs a reason."""
        self.attempted += 1
        if not ok:
            self.fail(problem)
        return ok

    def check(self, problems: Sequence[str], attempts: int = 1) -> None:
        """Count ``attempts`` checked operations, one failure per problem."""
        self.attempted += attempts
        for problem in problems:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def control(self, name: str, caught: bool) -> None:
        """A negative control: a deliberately tampered output that the
        named check must reject.  A check that lets it through is
        broken, and the run fails."""
        self.notes.append(
            f"control {name}: {'caught' if caught else 'NOT CAUGHT'}"
        )
        self.attempt(caught, f"check {name} accepted a tampered output")

    def render(self, wanted: Sequence[Tuple[str, str]]) -> str:
        """The human-readable table plus the one-line JSON result, which
        carries exactly the ``wanted`` (name, unit) metrics."""
        lines = [f"  {'metric':<26}{'value':>14}  {'unit':<8}samples"]
        for name, (value, unit, samples) in self.metrics.items():
            lines.append(f"  {name:<26}{value:>14.6g}  {unit:<8}{samples}")
        lines.append(
            f"  {'fail_ratio':<26}"
            f"{self.failed / max(self.attempted, 1):>14.6g}  "
            f"{'ratio':<8}{self.attempted}"
        )
        lines.extend(f"  {note}" for note in self.notes)
        lines.extend(f"  FAILED: {problem}" for problem in self.problems)
        result = {
            "correct": self.failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": unit}
                for name, unit in wanted
            },
        }
        lines.append(json.dumps(result, sort_keys=True))
        return "\n".join(lines)
