"""Differential oracle: every engine must agree on every generated design.

For one :class:`~repro.fuzz.gen.GeneratedDesign` the oracle runs up to
four check families, each mapping onto the paper's three-verdict lattice
(REACHABLE / UNREACHABLE / UNDETERMINED):

``ref``
    The compiled simulator against the independent interpretive
    :class:`~repro.fuzz.gen.RefModel`, cycle by cycle over sampled input
    sequences.  A value mismatch on any named signal is a disagreement.

``blast``
    The simulator against the bit-blaster: an
    :class:`~repro.mc.bmc.Unrolling` driven with constant input words
    must reproduce the simulator's named-signal values exactly (the
    same unrolling BMC and both k-induction provers build on).

``engines``
    The enumerative engine over the *exhaustive* alphabet-constrained
    context family (a :class:`~repro.mc.enumerative.ProductFamily`, which
    steps each distinct transition once; sampled when it would exceed
    ``MAX_CONTEXTS``), BMC over a symbolic context *constrained to the
    same alphabets* (with ``complete_horizon`` asserted only when
    enumeration really is exhaustive), and the portfolio combinator over
    a truncated family.  All three answer identical horizon-bounded
    queries, so any pair of definite-but-different verdicts is a
    disagreement.

``kinduction``
    k-induction with *free* inputs -- a superset of the alphabet space
    -- proved through one :class:`~repro.mc.incremental.InductionPool`
    per design, the prover DUV PL pruning runs (COI slicing on).  Its
    UNREACHABLE is therefore a global claim that no engine may
    contradict with REACHABLE; its REACHABLE (a base-case witness) only
    contradicts an alphabet-bounded UNREACHABLE when the alphabets
    actually cover every input value.  The legacy per-property prover
    is held to the pool by ``tests/test_parity_incremental.py``.

UNDETERMINED agrees with anything by construction -- it is the lattice
bottom, an engine declining to answer -- but every occurrence is counted
in the report so campaigns can see how often engines punt.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..mc.bmc import BmcContext, SymbolicContextSpec, Unrolling
from ..mc.enumerative import Context, EnumerativeEngine, ProductFamily, TraceDB
from ..mc.incremental import InductionPool
from ..mc.kinduction import prove_unreachable_kinduction
from ..mc.outcomes import REACHABLE, UNDETERMINED, UNREACHABLE
from ..mc.portfolio import PortfolioEngine
from ..obs import get_registry
from ..props import (
    ConcreteOps,
    ConcreteTraceView,
    ConsecutiveRevisit,
    Eventually,
    Query,
    Sequence as SeqProp,
    sig,
)
from ..sim.simulator import Simulator
from ..solver.bits import BitBuilder
from ..solver.sat import SAT
from .gen import GeneratedDesign

__all__ = [
    "CHECK_KINDS",
    "OracleConfig",
    "Disagreement",
    "OracleReport",
    "check_design",
]

CHECK_KINDS = ("ref", "blast", "engines", "kinduction")

# Sizes of one oracle pass, fit for tens-of-cells designs.
# enumerate every input sequence when there are at most this many ...
MAX_CONTEXTS = 4096
# ... and otherwise sample this many
SAMPLED_CONTEXTS = 64
# sequences the simulator replays against the reference model
SIM_SEQUENCES = 24
# sequences the bit-blaster replays against the simulator
BLAST_SEQUENCES = 3
# contexts of the portfolio engine's truncated family
TRUNCATED_CONTEXTS = 16
# k of the k-induction family (capped by the horizon)
KINDUCTION_K = 3
# SAT conflict budget of the BMC and k-induction checks
CONFLICT_BUDGET = 200000
# mixed into each design's seed for the sampling RNG
RNG_SEED = 0


@dataclass(frozen=True)
class OracleConfig:
    """One oracle pass: its unrolling horizon and check families."""

    horizon: int = 4
    check_kinds: Tuple[str, ...] = CHECK_KINDS

    def only(self, *kinds: str) -> "OracleConfig":
        """A copy restricted to the given check families (shrink mode)."""
        from dataclasses import replace

        return replace(self, check_kinds=tuple(kinds))


@dataclass
class Disagreement:
    """One observed contradiction between engines."""

    kind: str
    design: str
    detail: str
    query: Optional[str] = None
    verdicts: Optional[Dict[str, str]] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "design": self.design,
            "detail": self.detail,
            "query": self.query,
            "verdicts": dict(self.verdicts) if self.verdicts else None,
        }

    def brief(self) -> str:
        extra = " [%s]" % ", ".join(
            "%s=%s" % kv for kv in sorted((self.verdicts or {}).items())
        ) if self.verdicts else ""
        q = " query=%s" % self.query if self.query else ""
        return "%s:%s%s %s%s" % (self.kind, self.design, q, self.detail, extra)


@dataclass
class OracleReport:
    """Outcome of one full oracle pass over one design."""

    design: str
    checks: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)
    verdicts: Dict[str, int] = field(default_factory=dict)
    undetermined: int = 0
    complete: bool = False
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def count_verdict(self, engine: str, outcome: str) -> None:
        key = "%s:%s" % (engine, outcome)
        self.verdicts[key] = self.verdicts.get(key, 0) + 1
        if outcome == UNDETERMINED:
            self.undetermined += 1

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "checks": self.checks,
            "disagreements": [d.to_dict() for d in self.disagreements],
            "verdicts": dict(self.verdicts),
            "undetermined": self.undetermined,
            "complete": self.complete,
            "elapsed": self.elapsed,
        }


# ------------------------------------------------------------- sequences

def _input_sequences(design: GeneratedDesign, config: OracleConfig,
                     rng: random.Random):
    """The input sequences over the declared alphabets the oracle drives.

    Returns ``(count, sequence, product)``: ``sequence(i)`` is the
    ``i``-th of ``count`` sequences, a list of per-cycle input dicts.
    When every sequence fits ``MAX_CONTEXTS``, enumeration is complete and
    ``product`` is their :class:`ProductFamily`, in ``itertools.product``
    order; otherwise ``product`` is None and the sequences are
    ``SAMPLED_CONTEXTS`` random ones.
    """
    live = design.live_inputs
    per_cycle = [
        dict(zip((i.name for i in live), combo))
        for combo in itertools.product(*(i.alphabet for i in live))
    ]
    if len(per_cycle) ** config.horizon <= MAX_CONTEXTS:
        product = ProductFamily(design.netlist, per_cycle, config.horizon)
        return len(product), product.sequence, product
    sequences = [
        [rng.choice(per_cycle) for _ in range(config.horizon)]
        for _ in range(SAMPLED_CONTEXTS)
    ]
    return len(sequences), sequences.__getitem__, None


def _contexts(sequence, count: int) -> List[Context]:
    return [Context.make({}, sequence(i), label="seq%d" % i) for i in range(count)]


def _queries(design: GeneratedDesign) -> List[Query]:
    probes = design.probe_names
    queries = [Query("reach_%s" % p, Eventually(sig(p))) for p in probes]
    if len(probes) >= 2:
        queries.append(Query("seq_%s_%s" % (probes[0], probes[1]),
                             SeqProp(sig(probes[0]), sig(probes[1]))))
        queries.append(Query("seq_%s_%s" % (probes[1], probes[0]),
                             SeqProp(sig(probes[1]), sig(probes[0]))))
    queries.append(Query("revisit_%s" % probes[0],
                         ConsecutiveRevisit(sig(probes[0]))))
    return queries


def _alphabet_drive(design: GeneratedDesign) -> Callable:
    """BMC input driver restricting every input to its alphabet.

    Each live input gets fresh selector bits whose value picks one
    alphabet entry via an ite chain; unused selector codes fall back to
    the first entry, so the symbolic input space equals the alphabet
    exactly (duplicates only bias choice, never widen the set).
    """
    inputs = design.spec.inputs

    def drive(builder: BitBuilder, _cycle: int) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for inp in inputs:
            if inp.tied is not None:
                out[inp.name] = inp.tied & ((1 << inp.width) - 1)
                continue
            alphabet = inp.alphabet
            if len(alphabet) == 1:
                out[inp.name] = alphabet[0]
                continue
            sel_width = (len(alphabet) - 1).bit_length()
            sel = [builder.new_bit() for _ in range(sel_width)]
            word = builder.const_word(alphabet[0], inp.width)
            for idx in range(1, len(alphabet)):
                hit = builder.word_eq(sel, builder.const_word(idx, sel_width))
                word = builder.word_ite(
                    hit, builder.const_word(alphabet[idx], inp.width), word)
            out[inp.name] = word
        return out

    return drive


# ----------------------------------------------------------------- checks

def _check_ref_vs_sim(design, count, sequence, rng, report):
    sim = Simulator(design.netlist)
    ref = design.ref()
    picks = range(count)
    if count > SIM_SEQUENCES:
        sampled = rng.sample(range(1, count - 1), SIM_SEQUENCES - 2)
        picks = [0] + sampled + [count - 1]
    for si in picks:
        seq = sequence(si)
        sim.reset()
        ref.reset()
        for t, cycle in enumerate(seq):
            report.checks += 1
            sim_obs = sim.step(cycle)
            ref_obs = ref.step(cycle)
            bad = [
                (name, sim_obs[name], value)
                for name, value in sorted(ref_obs.items())
                if sim_obs[name] != value
            ]
            if bad:
                name, got, want = bad[0]
                report.disagreements.append(Disagreement(
                    kind="ref-sim",
                    design=design.spec.name,
                    detail="sequence %d cycle %d signal %s: sim=%d ref=%d"
                           % (si, t, name, got, want),
                ))
                return


def _check_sim_vs_blast(design, count, sequence, report):
    netlist = design.netlist
    sim = Simulator(netlist)
    for si in range(min(count, BLAST_SEQUENCES)):
        seq = sequence(si)
        sim.reset()
        sim_rows = [sim.step(cycle) for cycle in seq]
        unrolling = Unrolling(netlist)
        unrolling.extend_to(len(seq), lambda _builder, t: {
            node.name: seq[t].get(node.name, 0) for node in netlist.inputs
        })
        # constant propagation folds everything; solve() just fixes TRUE
        assert unrolling.solver.solve() == SAT
        for t, (blasted, sim_obs) in enumerate(
                zip(unrolling.witness(len(seq)), sim_rows)):
            for name in sorted(blasted):
                report.checks += 1
                if blasted[name] != sim_obs[name]:
                    report.disagreements.append(Disagreement(
                        kind="sim-blast",
                        design=design.spec.name,
                        detail="sequence %d cycle %d signal %s: blast=%d sim=%d"
                               % (si, t, name, blasted[name], sim_obs[name]),
                    ))
                    return


def _check_witness(design, query, result, report):
    """A REACHABLE verdict must come with a witness satisfying the prop."""
    if result.outcome != REACHABLE or not result.witness:
        return
    view = ConcreteTraceView(list(result.witness))
    report.checks += 1
    if not query.prop.evaluate(view, ConcreteOps):
        report.disagreements.append(Disagreement(
            kind="witness",
            design=design.spec.name,
            detail="engine %s returned a witness that does not satisfy "
                   "the property" % result.engine,
            query=query.name,
        ))


def _check_engines(design, count, sequence, product, config, report, span):
    netlist = design.netlist
    complete = product is not None
    family = product if complete else TraceDB(
        netlist, _contexts(sequence, count), complete=False)
    # walk the family here, so the first check is not charged for it
    span.set("distinct_traces", len(family.distinct_views()))
    span.set("contexts", len(family))
    if complete:
        span.set("transitions", product.transitions)
    enum = EnumerativeEngine(family)
    bmc = BmcContext(
        netlist,
        horizon=config.horizon,
        context=SymbolicContextSpec(drive=_alphabet_drive(design)),
        complete_horizon=complete,
        conflict_budget=CONFLICT_BUDGET,
    )
    truncated = TraceDB(
        netlist, _contexts(sequence, min(count, TRUNCATED_CONTEXTS)), complete=False)
    portfolio = PortfolioEngine(truncated, bmc=bmc)

    full_alphabets = all(
        len(set(inp.alphabet)) == (1 << inp.width)
        for inp in design.live_inputs
    )

    # one proof context per design, as DUV PL pruning proves
    pool = InductionPool()
    kind_cache: Dict[str, object] = {}
    for query in _queries(design):
        report.checks += 1
        verdicts = {}
        results = {}
        for engine_name, engine in (("enumerative", enum), ("bmc", bmc),
                                    ("portfolio", portfolio)):
            result = engine.check(query)
            verdicts[engine_name] = result.outcome
            results[engine_name] = result
            report.count_verdict(engine_name, result.outcome)
            _check_witness(design, query, result, report)

        if ("kinduction" in config.check_kinds
                and query.name.startswith("reach_")
                and netlist.registers):
            probe = query.name[len("reach_"):]
            if probe not in kind_cache:
                kind_cache[probe] = prove_unreachable_kinduction(
                    netlist, sig(probe),
                    k=min(KINDUCTION_K, config.horizon),
                    conflict_budget=CONFLICT_BUDGET,
                    pool=pool,
                )
            kres = kind_cache[probe]
            report.count_verdict("kinduction", kres.outcome)
            if kres.outcome == UNREACHABLE:
                # a global proof: nothing may reach the probe, ever
                verdicts["kinduction"] = kres.outcome
            elif kres.outcome == REACHABLE and full_alphabets and complete:
                # base-case witness within k <= horizon cycles, and the
                # alphabets cover the whole input space, so the bounded
                # engines must have seen it too
                verdicts["kinduction"] = kres.outcome

        definite = {v for v in verdicts.values() if v != UNDETERMINED}
        if len(definite) > 1:
            report.disagreements.append(Disagreement(
                kind="verdict",
                design=design.spec.name,
                detail="engines disagree on %s" % query.name,
                query=query.name,
                verdicts=dict(verdicts),
            ))
            return


def check_design(design: GeneratedDesign,
                 config: Optional[OracleConfig] = None) -> OracleReport:
    """Run every configured check family over one design."""
    config = config or OracleConfig()
    registry = get_registry()
    checks_total = registry.counter(
        "repro_fuzz_checks_total", "oracle checks executed")
    disagreements_total = registry.counter(
        "repro_fuzz_disagreements_total", "oracle disagreements found")
    report = OracleReport(design=design.spec.name)
    started = time.perf_counter()
    rng = random.Random(RNG_SEED ^ design.spec.seed)
    with obs.span("fuzz.oracle", design=design.spec.name) as sp:
        count, sequence, product = _input_sequences(design, config, rng)
        report.complete = product is not None
        before = len(report.disagreements)
        if "ref" in config.check_kinds:
            with obs.span("fuzz.oracle.ref"):
                _check_ref_vs_sim(design, count, sequence, rng, report)
        if "blast" in config.check_kinds:
            with obs.span("fuzz.oracle.blast"):
                _check_sim_vs_blast(design, count, sequence, report)
        if "engines" in config.check_kinds or "kinduction" in config.check_kinds:
            with obs.span("fuzz.oracle.engines") as esp:
                _check_engines(design, count, sequence, product, config, report, esp)
        report.elapsed = time.perf_counter() - started
        sp.set("checks", report.checks)
        sp.set("disagreements", len(report.disagreements))
        checks_total.inc(report.checks)
        new = len(report.disagreements) - before
        if new:
            disagreements_total.inc(new)
    return report
