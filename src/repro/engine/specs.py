"""Declarative, picklable job specifications.

Jobs do not ship the live pipeline objects: netlists are large
shared-structure DAGs, and a context family is thousands of contexts that
a few config fields regenerate.  Jobs therefore carry **recipes** -- a
design kind plus its build-time config, a provider kind plus its family
config -- and every worker rebuilds (and memoizes) the objects locally.  Builders
are deterministic, so a spec names exactly one elaborated netlist and one
context family; the parent additionally pins the netlist's canonical
fingerprint into the spec so the proof cache can detect any divergence.
A job run inline, in the process that made it, uses the live design its
fingerprint was computed from instead of rebuilding it.

Three concrete job types are defined:

* :class:`SynthesisJob` -- one RTL2MuPATH ``synthesize(iuv)`` run;
* :class:`SynthLCJob` -- one SynthLC classification run for a
  (transponder, transmitter, assumption, operand) tuple;
* :class:`ReachJob` -- one named-signal reachability check on a
  fuzz-generator design.

All follow the scheduler's job protocol: ``job_id``, ``execute()``,
``cache_key()``, ``encode_value()`` / ``decode_value()``, and
``value_is_final()``.
"""

from __future__ import annotations

import copy
import os
import weakref
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .cache import content_key

__all__ = [
    "SCHEMA_VERSION",
    "DesignSpec",
    "ProviderSpec",
    "SynthesisJob",
    "SynthLCJob",
    "ReachJob",
    "infer_design_spec",
    "infer_provider_spec",
    "synthesis_jobs_for",
    "synthlc_jobs_for",
    "reach_jobs_for_design",
    "reach_jobs_for_corpus",
]

# bump when job semantics or cached payload encodings change: old proof
# cache entries must not satisfy queries from a newer engine
# v2: netlist keys switched to the COI-aware observable fingerprint
SCHEMA_VERSION = 2

Params = Tuple[Tuple[str, Any], ...]


def _params(config) -> Params:
    """Freeze a config dataclass into a hashable, canonical key/value tuple."""
    return tuple(sorted(asdict(config).items()))


def _unparams(params: Params) -> Dict[str, Any]:
    return {key: value for key, value in params}


def _cacheable_config(params: Params) -> Dict[str, Any]:
    """Config dict for cache keys, minus the certification mode.

    Certification changes whether a verdict is *checked*, never what
    the verdict is, so ``--certify`` must not fork the proof cache: a
    certified run and an uncertified run of the same job share one
    entry (and pre-certification entries keep matching).
    """
    return {key: value for key, value in params if key != "certify"}


# --------------------------------------------------------------- design spec
@dataclass(frozen=True)
class DesignSpec:
    """Recipe for one elaborated design: builder kind + build config."""

    kind: str  # "core" | "cache" | "cva6_op"
    params: Params

    def build(self):
        return _built_design(self)

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": _unparams(self.params)}


@lru_cache(maxsize=None)
def _built_design(spec: DesignSpec):
    if spec.kind == "core":
        from ..designs.core import CoreConfig, build_core

        return build_core(CoreConfig(**_unparams(spec.params)))
    if spec.kind == "cache":
        from ..designs.cache import CacheConfig, build_cache

        return build_cache(CacheConfig(**_unparams(spec.params)))
    if spec.kind == "cva6_op":
        from ..designs.variants import OpPackConfig, build_cva6_op

        return build_cva6_op(OpPackConfig(**_unparams(spec.params)))
    raise ValueError("unknown design kind %r" % spec.kind)


# (process id, design spec, netlist hash) -> the live design the hash was
# computed from, held weakly.  A job run inline uses it instead of
# rebuilding the design from its recipe; a worker process has another
# pid, so it rebuilds.
_LIVE: "weakref.WeakValueDictionary[tuple, Any]" = weakref.WeakValueDictionary()


def _register_live(spec: DesignSpec, netlist_hash: str, design) -> None:
    _LIVE[os.getpid(), spec, netlist_hash] = design


def _live_design(spec: DesignSpec, netlist_hash: str):
    """The live design registered for ``spec`` and ``netlist_hash`` in
    this process, or None."""
    return _LIVE.get((os.getpid(), spec, netlist_hash))


def infer_design_spec(design) -> DesignSpec:
    """Derive the rebuild recipe from a built design's config object."""
    from ..designs.cache import CacheConfig, CacheDesign
    from ..designs.core import CoreConfig
    from ..designs.variants import OpPackConfig

    config = design.config
    if isinstance(design, CacheDesign) or isinstance(config, CacheConfig):
        return DesignSpec(kind="cache", params=_params(config))
    if isinstance(config, OpPackConfig):
        return DesignSpec(kind="cva6_op", params=_params(config))
    if isinstance(config, CoreConfig):
        return DesignSpec(kind="core", params=_params(config))
    raise TypeError(
        "cannot infer a worker rebuild recipe for %r; "
        "construct a DesignSpec explicitly" % type(design).__name__
    )


# ------------------------------------------------------------- provider spec
@dataclass(frozen=True)
class ProviderSpec:
    """Recipe for one verification-context provider."""

    kind: str  # "core" | "cache"
    params: Params

    def build(self):
        return _built_provider(self)

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": _unparams(self.params)}


@lru_cache(maxsize=None)
def _built_provider(spec: ProviderSpec):
    params = _unparams(spec.params)
    if spec.kind == "core":
        from ..designs.harness import ContextFamilyConfig, CoreContextProvider

        family = ContextFamilyConfig(**dict(params["config"]))
        return CoreContextProvider(xlen=params["xlen"], config=family)
    if spec.kind == "cache":
        from ..designs.cache import CacheConfig, CacheContextProvider

        return CacheContextProvider(
            config=CacheConfig(**dict(params["config"])),
            horizon=params["horizon"],
            instrumented=params["instrumented"],
        )
    raise ValueError("unknown provider kind %r" % spec.kind)


def infer_provider_spec(provider) -> ProviderSpec:
    """Derive the rebuild recipe from a live context provider."""
    from ..designs.cache import CacheContextProvider
    from ..designs.harness import CoreContextProvider

    if isinstance(provider, CoreContextProvider):
        params = (
            ("config", tuple(sorted(asdict(provider.config).items()))),
            ("xlen", provider.xlen),
        )
        return ProviderSpec(kind="core", params=params)
    if isinstance(provider, CacheContextProvider):
        params = (
            ("config", tuple(sorted(asdict(provider.cfg).items()))),
            ("horizon", provider.horizon),
            ("instrumented", provider.instrumented),
        )
        return ProviderSpec(kind="cache", params=params)
    raise TypeError(
        "cannot infer a worker rebuild recipe for %r; "
        "construct a ProviderSpec explicitly" % type(provider).__name__
    )


# ------------------------------------------------------------ synthesis jobs
@dataclass(frozen=True)
class SynthesisJob:
    """One RTL2MuPATH ``synthesize(iuv)`` run, rebuildable in a worker."""

    iuv: str
    design_spec: DesignSpec
    provider_spec: ProviderSpec
    config_params: Params  # Rtl2MuPathConfig
    netlist_hash: str
    duv_pls: Optional[Tuple[str, ...]] = None

    @property
    def job_id(self) -> str:
        return "synth:%s" % self.iuv

    def group_key(self) -> str:
        """Same-design jobs share a group: one worker drains a whole
        group, so its memoized design and provider builds are reused
        across the group."""
        return "synth:%s" % self.netlist_hash

    def execute(self):
        from ..core.rtl2mupath import Rtl2MuPath, Rtl2MuPathConfig
        from ..mc.stats import PropertyStats

        design = _live_design(self.design_spec, self.netlist_hash)
        if design is None:
            design = self.design_spec.build()
        provider = self.provider_spec.build()
        stats = PropertyStats(label=self.job_id)
        config = Rtl2MuPathConfig(**_unparams(self.config_params))
        tool = Rtl2MuPath(design, provider, config=config, stats=stats)
        if self.duv_pls is not None:
            tool._duv_pls = frozenset(self.duv_pls)
        result = tool.synthesize(self.iuv)
        return result, stats.results

    def cache_key(self) -> str:
        return content_key(
            schema=SCHEMA_VERSION,
            tool="rtl2mupath",
            template="synthesize-v1",  # the SS V-B six-step property suite
            netlist=self.netlist_hash,
            provider=self.provider_spec.describe(),
            config=_cacheable_config(self.config_params),
            iuv=self.iuv,
            duv_pls=sorted(self.duv_pls) if self.duv_pls is not None else None,
        )

    @staticmethod
    def encode_value(value):
        from .serialize import mupath_result_to_dict

        return mupath_result_to_dict(value)

    @staticmethod
    def decode_value(payload):
        from .serialize import mupath_result_from_dict

        return mupath_result_from_dict(payload)

    @staticmethod
    def value_is_final(value) -> bool:
        # a truncated context family means negative verdicts were sampled,
        # not proven: such results must be recomputed, never replayed
        return not value.truncated


def synthesis_jobs_for(tool, iuv_names: Sequence[str]) -> List[SynthesisJob]:
    """Build one :class:`SynthesisJob` per IUV from a live Rtl2MuPath tool."""
    from .cache import observable_fingerprint

    design_spec = infer_design_spec(tool.design)
    provider_spec = infer_provider_spec(tool.provider)
    # COI-aware key: only the observable slice of the netlist is hashed,
    # so RTL edits outside every property cone keep cached proofs valid
    netlist_hash = observable_fingerprint(tool.netlist)
    _register_live(design_spec, netlist_hash, tool.design)
    duv_pls = (
        tuple(sorted(tool._duv_pls)) if tool._duv_pls is not None else None
    )
    config_params = _params(tool.config)
    return [
        SynthesisJob(
            iuv=name,
            design_spec=design_spec,
            provider_spec=provider_spec,
            config_params=config_params,
            netlist_hash=netlist_hash,
            duv_pls=duv_pls,
        )
        for name in iuv_names
    ]


# -------------------------------------------------------------- SynthLC jobs
@dataclass(frozen=True)
class SynthLCJob:
    """One SynthLC classification run: (transponder, transmitter,
    typing assumption, operand), over a fixed decision list."""

    transponder: str
    transmitter: str
    assumption: str
    operand: str
    decisions: Tuple[Tuple[str, Tuple[str, ...]], ...]  # (src, sorted dst)
    design_spec: DesignSpec
    provider_spec: ProviderSpec
    netlist_hash: str
    extra_persistent: Tuple[str, ...] = ()

    @property
    def job_id(self) -> str:
        return "lc:%s:%s:%s:%s" % (
            self.transponder,
            self.transmitter,
            self.assumption,
            self.operand,
        )

    def group_key(self) -> str:
        """Same-design batching key (the memoized instrumented SynthLC
        tool is the expensive per-worker state here)."""
        return "lc:%s" % self.netlist_hash

    def execute(self):
        from ..core.decisions import Decision
        from ..core.synthlc import ASSUMPTIONS, SynthLC
        from ..mc.stats import PropertyStats

        stats = PropertyStats(label=self.job_id)
        design = _live_design(self.design_spec, self.netlist_hash)
        if design is None:
            # the worker's jobs share one tool: each runs a copy
            tool = copy.copy(_built_synthlc(
                self.design_spec, self.provider_spec, self.extra_persistent
            ))
            tool.stats = stats
        else:
            # reuses the instrumentation the caller's tool holds
            tool = SynthLC(
                design, self.provider_spec.build(), stats=stats,
                extra_persistent=self.extra_persistent,
            )
        decision_list = [
            Decision(src=src, dst=frozenset(dst)) for src, dst in self.decisions
        ]
        tags_by_decision: Dict = {}
        found_types: Dict = {a: set() for a in ASSUMPTIONS}
        tool._classify_one(
            self.transponder,
            self.transmitter,
            self.assumption,
            self.operand,
            decision_list,
            tags_by_decision,
            found_types,
        )
        value = []
        for (_p, src, dst), tags in sorted(
            tags_by_decision.items(), key=lambda kv: (kv[0][1], sorted(kv[0][2]))
        ):
            for tag in sorted(
                tags, key=lambda t: (t.transmitter, t.ttype, t.operand)
            ):
                value.append(
                    (
                        src,
                        tuple(sorted(dst)),
                        tag.transmitter,
                        tag.ttype,
                        tag.operand,
                        tag.false_positive,
                    )
                )
        return value, stats.results

    def cache_key(self) -> str:
        return content_key(
            schema=SCHEMA_VERSION,
            tool="synthlc",
            template="decision-taint-v1",  # the SS V-C1 cover suite
            netlist=self.netlist_hash,
            provider=self.provider_spec.describe(),
            transponder=self.transponder,
            transmitter=self.transmitter,
            assumption=self.assumption,
            operand=self.operand,
            decisions=[[src, list(dst)] for src, dst in self.decisions],
            extra_persistent=sorted(self.extra_persistent),
        )

    @staticmethod
    def encode_value(value):
        return [
            [src, list(dst), t, ty, op, bool(fp)]
            for src, dst, t, ty, op, fp in value
        ]

    @staticmethod
    def decode_value(payload):
        return [
            (src, tuple(dst), t, ty, op, bool(fp))
            for src, dst, t, ty, op, fp in payload
        ]

    @staticmethod
    def value_is_final(value) -> bool:
        return True  # finality is decided by the UNDETERMINED scan alone


# ---------------------------------------------------------------- reach jobs
@lru_cache(maxsize=32)
def _built_fuzz_design(design_json: str):
    """Per-worker memoized build of a fuzz-generator design.

    Keyed by the reproducer's canonical JSON, so every probe job the
    scheduler batches onto one worker for the same design reuses one
    elaborated netlist.
    """
    import json

    from ..fuzz.gen import build_design, spec_from_dict

    return build_design(spec_from_dict(json.loads(design_json)))


@dataclass(frozen=True)
class ReachJob:
    """One named-signal reachability check on a fuzz-generator design.

    The workload the contract-synthesis direction needs: a stream of
    small, independent verification queries over generated designs.  The
    design travels as its reproducer JSON (the exact artifact
    ``repro fuzz`` shrinks to), so any worker can rebuild it
    deterministically; the verdict is BMC-first (a horizon-bounded
    witness search) with a k-induction proof attempt when no witness is
    found -- the same ladder the fuzz oracle's kinduction family uses.

    Unlike :class:`SynthesisJob`, reach jobs never share a proof context
    between properties: every execute builds fresh solver state, so the
    verdict stream is independent of how the scheduler groups the jobs
    (the serial-vs-pool parity tests lean on exactly this).
    """

    design_json: str  # canonical JSON of a fuzz DesignSpec dict
    probe: str  # named 1-bit signal to prove reachable/unreachable
    design_label: str
    horizon: int = 4
    k: int = 2
    conflict_budget: int = 200000
    # "off" | "full"; deliberately NOT part of cache_key(): certification
    # changes whether the verdict is checked, never what the verdict is
    certify: str = "off"

    @property
    def job_id(self) -> str:
        return "reach:%s:%s" % (self.design_label, self.probe)

    def group_key(self) -> str:
        """One group per design: a worker drains a design's probes
        against its single memoized netlist build."""
        import hashlib

        digest = hashlib.sha256(self.design_json.encode("utf-8")).hexdigest()
        return "reach:%s" % digest[:16]

    def execute(self):
        from ..cert import certify_flag
        from ..mc import REACHABLE, BmcContext
        from ..mc.kinduction import prove_unreachable_kinduction
        from ..props import Eventually, Query, sig

        certify = certify_flag(self.certify)
        design = _built_fuzz_design(self.design_json)
        netlist = design.netlist
        bmc = BmcContext(
            netlist, horizon=self.horizon, conflict_budget=self.conflict_budget,
            certify=certify,
        )
        result = bmc.check(
            Query("reach_%s" % self.probe, Eventually(sig(self.probe)))
        )
        results = [result]
        if result.outcome != REACHABLE and netlist.registers:
            from ..mc import UNREACHABLE

            proof = prove_unreachable_kinduction(
                netlist,
                sig(self.probe),
                k=self.k,
                conflict_budget=self.conflict_budget,
                certify=certify,
            )
            if proof.outcome == UNREACHABLE:
                # the induction proof decides the query; the bounded
                # probe it supersedes must not linger as an UNDETERMINED
                # verdict, or the proof would never enter the cache
                results = [proof]
            else:
                results.append(proof)
            result = proof
        return (result.outcome, result.detail), results

    def cache_key(self) -> str:
        import hashlib

        return content_key(
            schema=SCHEMA_VERSION,
            tool="reach",
            template="bmc-then-kinduction-v1",
            design=hashlib.sha256(self.design_json.encode("utf-8")).hexdigest(),
            probe=self.probe,
            horizon=self.horizon,
            k=self.k,
            conflict_budget=self.conflict_budget,
        )

    @staticmethod
    def encode_value(value):
        return [value[0], value[1]]

    @staticmethod
    def decode_value(payload):
        return (payload[0], payload[1])

    @staticmethod
    def value_is_final(value) -> bool:
        return True  # finality is decided by the UNDETERMINED scan alone


def reach_jobs_for_design(spec, label: str, horizon: int = 4, k: int = 2,
                          conflict_budget: int = 200000,
                          certify: str = "off") -> List[ReachJob]:
    """One :class:`ReachJob` per probe of one fuzz design spec."""
    from ..fuzz.gen import build_design, spec_to_dict

    from .cache import canonical_json

    design_json = canonical_json(spec_to_dict(spec))
    design = build_design(spec)
    return [
        ReachJob(
            design_json=design_json,
            probe=probe,
            design_label=label,
            horizon=horizon,
            k=k,
            conflict_budget=conflict_budget,
            certify=certify,
        )
        for probe in design.probe_names
    ]


def reach_jobs_for_corpus(corpus_dir: str, horizon: int = 4, k: int = 2,
                          conflict_budget: int = 200000,
                          certify: str = "off") -> List[ReachJob]:
    """Reach jobs for every reproducer JSON under ``corpus_dir``.

    The committed fuzz corpus becomes a ready-made multi-design
    verification campaign: ~16 designs x ~3 probes of independent jobs,
    grouped per design -- the shape same-design batching dispatches.
    """
    import glob
    import os

    from ..fuzz.campaign import load_reproducer

    jobs: List[ReachJob] = []
    for path in sorted(glob.glob(os.path.join(corpus_dir, "*.json"))):
        label = os.path.splitext(os.path.basename(path))[0]
        jobs.extend(
            reach_jobs_for_design(
                load_reproducer(path), label, horizon=horizon, k=k,
                conflict_budget=conflict_budget, certify=certify,
            )
        )
    return jobs


@lru_cache(maxsize=None)
def _built_synthlc(
    design_spec: DesignSpec,
    provider_spec: ProviderSpec,
    extra_persistent: Tuple[str, ...],
):
    """Memoized per-worker SynthLC tool (IFT instrumentation is costly)."""
    from ..core.synthlc import SynthLC

    return SynthLC(
        design_spec.build(),
        provider_spec.build(),
        extra_persistent=extra_persistent,
    )


def synthlc_jobs_for(tool, work_items) -> List[SynthLCJob]:
    """Build one :class:`SynthLCJob` per (p, t, assumption, operand) item.

    ``work_items`` yields ``(p_name, t_name, assumption, operand,
    decision_list)`` tuples as enumerated by
    :meth:`repro.core.synthlc.SynthLC.classify`.
    """
    from .cache import observable_fingerprint

    design_spec = infer_design_spec(tool.design)
    provider_spec = infer_provider_spec(tool.provider)
    # key on the *uninstrumented* netlist: instrumentation is a pure
    # function of (netlist, metadata), both fixed by the design spec.
    # COI-aware (observable slice only), like the synthesis jobs.
    netlist_hash = observable_fingerprint(tool.design.netlist)
    _register_live(design_spec, netlist_hash, tool.design)
    extra = tuple(sorted(tool.extra_persistent))
    jobs = []
    for p_name, t_name, assumption, operand, decision_list in work_items:
        jobs.append(
            SynthLCJob(
                transponder=p_name,
                transmitter=t_name,
                assumption=assumption,
                operand=operand,
                decisions=tuple(
                    (d.src, tuple(sorted(d.dst))) for d in decision_list
                ),
                design_spec=design_spec,
                provider_spec=provider_spec,
                netlist_hash=netlist_hash,
                extra_persistent=extra,
            )
        )
    return jobs
