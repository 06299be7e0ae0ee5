"""repro.obs: cross-cutting observability (spans, metrics, profiles).

The paper judges RTL2MuPATH/SynthLC runs by their measurement story --
per-property outcome histograms, mean check times, UNDETERMINED
fractions (SS VII-B3) -- and the ROADMAP's production north-star needs
the same substrate at run granularity: *where did this synth-all go?*
This package is that substrate:

* :mod:`repro.obs.tracer` -- hierarchical span tracing with a
  context-manager API, thread safety, and cross-process forwarding so
  engine workers report into the parent run's JSONL stream;
* :mod:`repro.obs.metrics` -- a registry of counters / gauges /
  histograms with Prometheus text exposition and a JSON snapshot;
* :mod:`repro.obs.profile` -- trace parsing, integrity validation,
  per-phase / per-instruction aggregation, hotspot ranking, and
  Chrome-tracing (Perfetto) export, surfaced as
  ``python -m repro profile``.

Instrumented layers: :class:`repro.solver.sat.SatSolver` exposes
per-``solve()`` counter deltas; the :mod:`repro.mc` engines attach
unroll depth and solver deltas to every
:class:`~repro.mc.outcomes.CheckResult`; the :mod:`repro.core`
pipelines wrap each phase in named spans; and
:class:`repro.engine.scheduler.JobScheduler` forwards worker spans into
the run trace.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
)
from .profile import SpanRecord, TraceProfile
from .tracer import (
    NULL_SPAN,
    Span,
    SpanCollector,
    Tracer,
    activate,
    current_span,
    current_tracer,
    deactivate,
    replay_into,
    span,
)

_PROPERTIES = REGISTRY.counter(
    "repro_properties_total", "properties evaluated, by verdict"
)
_PROPERTY_SECONDS = REGISTRY.histogram(
    "repro_property_seconds", "checker wall-clock seconds per property"
)


def note_property(outcome: str, seconds: float) -> None:
    """Account one freshly evaluated property.

    Called exactly where a :class:`~repro.mc.outcomes.CheckResult` is
    recorded into a :class:`~repro.mc.stats.PropertyStats`, so the sum
    of ``check_seconds`` over all spans in a trace equals the stats
    accumulator's ``total_time`` (the profile's reconciliation
    invariant).  Feeds both the innermost active span and the process
    metrics registry.
    """
    sp = current_span()
    sp.inc("properties", 1)
    sp.inc("check_seconds", seconds)
    _PROPERTIES.inc(outcome=outcome)
    _PROPERTY_SECONDS.observe(seconds)


__all__ = [
    "note_property",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "SpanRecord",
    "TraceProfile",
    "NULL_SPAN",
    "Span",
    "SpanCollector",
    "Tracer",
    "activate",
    "current_span",
    "current_tracer",
    "deactivate",
    "replay_into",
    "span",
]
