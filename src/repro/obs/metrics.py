"""Counters, gauges, and histograms with Prometheus text exposition.

A :class:`MetricsRegistry` owns a flat namespace of metrics; callers
obtain (and memoize) instruments with :meth:`~MetricsRegistry.counter`,
:meth:`~MetricsRegistry.gauge`, and :meth:`~MetricsRegistry.histogram`,
and every instrument accepts optional label key/values at observation
time (``counter.inc(3, outcome="reachable")``).  Two export formats:

* :meth:`~MetricsRegistry.to_prometheus` -- the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / sample lines), dumped to
  a file at run end (``synth-all --metrics FILE``);
* :meth:`~MetricsRegistry.snapshot` -- a JSON-ready dict, for embedding
  in run manifests and test assertions.

The module-level :data:`REGISTRY` is the process default; the deep
instrumentation in :mod:`repro.solver.sat` and
:mod:`repro.mc.stats` feeds it unconditionally (a lock-protected float
add per observation -- far below the cost of the work it measures).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
]

LabelValues = Tuple[Tuple[str, str], ...]


def _labels(kv: Dict[str, Any]) -> LabelValues:
    return tuple(sorted((str(k), str(v)) for k, v in kv.items()))


def _render_labels(labels: LabelValues) -> str:
    if not labels:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (k, v) for k, v in labels)


def _format_value(value: float) -> str:
    # integral samples print as integers, like prometheus clients do
    if float(value).is_integer():
        return "%d" % int(value)
    return repr(float(value))


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()


class Counter(_Metric):
    """Monotonically increasing per-label-set totals."""

    kind = "counter"

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % amount)
        key = _labels(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_labels(labels), 0)

    def expose(self) -> List[str]:
        return [
            "%s%s %s" % (self.name, _render_labels(k), _format_value(v))
            for k, v in sorted(self._values.items())
        ] or ["%s 0" % self.name]

    def snapshot(self) -> Any:
        if set(self._values) == {()}:
            return self._values[()]
        return [
            {"labels": dict(k), "value": v}
            for k, v in sorted(self._values.items())
        ]


class Gauge(_Metric):
    """A value that can go up and down (e.g. in-flight jobs)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_labels(labels)] = float(value)

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _labels(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._values.get(_labels(labels), 0)

    def expose(self) -> List[str]:
        return [
            "%s%s %s" % (self.name, _render_labels(k), _format_value(v))
            for k, v in sorted(self._values.items())
        ] or ["%s 0" % self.name]

    def snapshot(self) -> Any:
        if set(self._values) == {()}:
            return self._values[()]
        return [
            {"labels": dict(k), "value": v}
            for k, v in sorted(self._values.items())
        ]


DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus ``le`` convention)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(buckets))
        self._counts: Dict[LabelValues, List[int]] = {}
        self._sums: Dict[LabelValues, float] = {}
        self._totals: Dict[LabelValues, int] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _labels(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * len(self.buckets)
                self._sums[key] = 0.0
                self._totals[key] = 0
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            self._sums[key] += value
            self._totals[key] += 1

    def count(self, **labels: Any) -> int:
        return self._totals.get(_labels(labels), 0)

    def sum(self, **labels: Any) -> float:
        return self._sums.get(_labels(labels), 0.0)

    def expose(self) -> List[str]:
        lines: List[str] = []
        for key in sorted(self._counts):
            cumulative = 0
            for bound, count in zip(self.buckets, self._counts[key]):
                cumulative += count
                bucket_labels = key + (("le", repr(float(bound))),)
                lines.append(
                    "%s_bucket%s %d"
                    % (self.name, _render_labels(bucket_labels), cumulative)
                )
            inf_labels = key + (("le", "+Inf"),)
            lines.append(
                "%s_bucket%s %d"
                % (self.name, _render_labels(inf_labels), self._totals[key])
            )
            lines.append(
                "%s_sum%s %s"
                % (self.name, _render_labels(key), repr(self._sums[key]))
            )
            lines.append(
                "%s_count%s %d" % (self.name, _render_labels(key), self._totals[key])
            )
        return lines or ["%s_count 0" % self.name]

    def snapshot(self) -> Any:
        out = []
        for key in sorted(self._counts):
            out.append(
                {
                    "labels": dict(key),
                    "count": self._totals[key],
                    "sum": self._sums[key],
                    "buckets": {
                        repr(float(b)): c
                        for b, c in zip(self.buckets, self._counts[key])
                    },
                }
            )
        if len(out) == 1 and not out[0]["labels"]:
            return {k: v for k, v in out[0].items() if k != "labels"}
        return out


class MetricsRegistry:
    """A namespace of metrics; instruments are created once, then shared."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, help_text: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help_text, **kwargs)
            elif not isinstance(metric, cls):
                raise TypeError(
                    "metric %r already registered as %s" % (name, metric.kind)
                )
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help_text, buckets=buckets)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format, version 0.0.4."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append("# HELP %s %s" % (name, metric.help))
            lines.append("# TYPE %s %s" % (name, metric.kind))
            lines.extend(metric.expose())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every metric's current state."""
        return {
            name: metric.snapshot()
            for name, metric in sorted(self._metrics.items())
        }

    def reset(self) -> None:
        """Drop every registered metric (test isolation helper)."""
        with self._lock:
            self._metrics.clear()


#: process-default registry fed by the deep instrumentation
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
