"""repro.engine: the parallel verification job engine.

The paper's pipeline is embarrassingly parallel: RTL2MuPATH synthesizes
uPATHs *per instruction* (72 independent IUVs on CVA6) and SynthLC
discharges one independent classification run per (transponder,
transmitter, typing assumption, operand) tuple.  The authors report
multi-day JasperGold wall-clock as the dominant cost (SS VII-B3) and
amortize it across a Xeon cluster; related leakage-contract synthesis
work batches and caches solver queries for the same reason.

This package is the reproduction's systematic answer:

* :mod:`repro.engine.specs` -- declarative, picklable job specifications
  that rebuild the design / context provider inside worker processes
  (a netlist is a large shared-structure DAG and a context family is
  thousands of contexts that a few config fields regenerate, so jobs
  ship *recipes*, not objects);
* :mod:`repro.engine.scheduler` -- a job executor fanning work across a
  ``ProcessPoolExecutor`` with per-job wall-clock deadlines and a retry
  of every attempt that times out or raises; a worker death fails only
  the job that caused it;
* :mod:`repro.engine.cache` -- a persistent on-disk proof cache keyed by
  a canonical content hash of (elaborated netlist, context-family config,
  property template, engine config); UNDETERMINED verdicts are never
  cached as final.  It is also the one recovery mechanism: rerunning an
  interrupted run over the same cache replays every job that finished
  and executes only the rest;
* :mod:`repro.engine.telemetry` -- structured JSONL run events plus a
  run-manifest summary that folds back into
  :class:`~repro.mc.stats.PropertyStats`, keeping the SS VII-B3
  accounting exact under parallel + cached execution;
* :mod:`repro.engine.serialize` -- exact JSON round-trips for
  :class:`~repro.core.rtl2mupath.MuPathResult` and friends, used by the
  proof cache.

Entry points: :meth:`repro.core.rtl2mupath.Rtl2MuPath.synthesize_all`,
:meth:`repro.core.synthlc.SynthLC.classify` (both take ``engine=``), and
``python -m repro synth-all --jobs N --cache-dir DIR --trace FILE``.
"""

from .cache import ProofCache, canonical_json, content_key, netlist_fingerprint
from .scheduler import EngineConfig, EngineError, JobScheduler, RunOutcome
from .specs import (
    DesignSpec,
    ProviderSpec,
    SynthesisJob,
    SynthLCJob,
    infer_design_spec,
    infer_provider_spec,
    synthesis_jobs_for,
    synthlc_jobs_for,
)
from .telemetry import RunManifest, TelemetryLog

__all__ = [
    "ProofCache",
    "canonical_json",
    "content_key",
    "netlist_fingerprint",
    "EngineConfig",
    "EngineError",
    "JobScheduler",
    "RunOutcome",
    "DesignSpec",
    "ProviderSpec",
    "SynthesisJob",
    "SynthLCJob",
    "infer_design_spec",
    "infer_provider_spec",
    "synthesis_jobs_for",
    "synthlc_jobs_for",
    "RunManifest",
    "TelemetryLog",
]
