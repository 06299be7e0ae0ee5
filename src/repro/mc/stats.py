"""Property-evaluation statistics.

Reproduces the accounting of SS VII-B3: number of properties evaluated,
mean time per property, and the fraction of undetermined outcomes, broken
down by tool phase (RTL2MuPATH vs SynthLC) and DUV (core vs cache).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from .outcomes import CheckResult

__all__ = ["PropertyStats"]


@dataclass
class PropertyStats:
    """Mutable accumulator shared by a verification run."""

    label: str = ""
    results: List[CheckResult] = field(default_factory=list)

    def record(self, result: CheckResult):
        self.results.append(result)

    @property
    def count(self):
        return len(self.results)

    @property
    def total_time(self):
        return sum(r.time_seconds for r in self.results)

    @property
    def mean_time(self):
        return self.total_time / self.count if self.count else 0.0

    @property
    def outcome_histogram(self) -> Dict[str, int]:
        return dict(Counter(r.outcome for r in self.results))

    @property
    def undetermined_fraction(self):
        if not self.count:
            return 0.0
        histogram = self.outcome_histogram
        return histogram.get("undetermined", 0) / self.count

    def merged(self, other: "PropertyStats") -> "PropertyStats":
        # skip empty labels so one unlabeled side does not yield "+bmc"
        labels = [label for label in (self.label, other.label) if label]
        merged = PropertyStats(label="+".join(labels))
        merged.results = list(self.results) + list(other.results)
        return merged

    def to_dict(self) -> Dict:
        """JSON/pickle-ready form, so worker-process stats can be shipped
        back and merged into the parent; exact inverse of :meth:`from_dict`."""
        return {
            "label": self.label,
            "results": [r.to_dict() for r in self.results],
        }

    @staticmethod
    def from_dict(payload: Dict) -> "PropertyStats":
        stats = PropertyStats(label=payload.get("label", ""))
        stats.results = [CheckResult.from_dict(d) for d in payload["results"]]
        return stats

    def summary(self) -> str:
        # significant digits, not fixed decimals: cover evaluation runs at
        # microseconds per property, and a nonzero mean must never read 0
        return (
            "%s: %d properties, %.3gs/property mean, %.2f%% undetermined"
            % (
                self.label or "run",
                self.count,
                self.mean_time,
                100.0 * self.undetermined_fraction,
            )
        )
