"""Differential oracle: every engine must agree on every generated design.

For one :class:`~repro.fuzz.gen.GeneratedDesign` the oracle runs up to
four check families, each mapping onto the paper's three-verdict lattice
(REACHABLE / UNREACHABLE / UNDETERMINED):

``ref``
    The compiled simulator against the independent interpretive
    :class:`~repro.fuzz.gen.RefModel`, cycle by cycle over sampled input
    sequences.  A value mismatch on any named signal is a disagreement.

``blast``
    The simulator against the bit-blaster: frames chained with constant
    input words must reproduce the simulator's named-signal values
    exactly (this exercises the same translation BMC trusts).

``engines``
    The enumerative engine over the *exhaustive* alphabet-constrained
    context family, BMC over a symbolic context *constrained to the same
    alphabets* (with ``complete_horizon`` asserted only when enumeration
    really is exhaustive), and the portfolio combinator over a truncated
    family.  All three answer identical horizon-bounded queries, so any
    pair of definite-but-different verdicts is a disagreement.

``kinduction``
    k-induction runs with *free* inputs -- a superset of the alphabet
    space.  Its UNREACHABLE is therefore a global claim that no engine
    may contradict with REACHABLE; its REACHABLE (a base-case witness)
    only contradicts an alphabet-bounded UNREACHABLE when the alphabets
    actually cover every input value.

UNDETERMINED agrees with anything by construction -- it is the lattice
bottom, an engine declining to answer -- but every occurrence is counted
in the report so campaigns can see how often engines punt.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..mc.bmc import BmcContext, SymbolicContextSpec
from ..mc.enumerative import Context, EnumerativeEngine, TraceDB
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
from ..solver.bitblast import blast_frame
from ..solver.bits import BitBuilder
from ..solver.sat import SAT, SatSolver
from .gen import GeneratedDesign

__all__ = [
    "CHECK_KINDS",
    "OracleConfig",
    "Disagreement",
    "OracleReport",
    "check_design",
]

CHECK_KINDS = ("ref", "blast", "engines", "kinduction")


@dataclass(frozen=True)
class OracleConfig:
    """Tuning for one oracle pass; defaults fit tens-of-cells designs."""

    horizon: int = 4
    max_contexts: int = 4096
    sim_sequences: int = 24
    blast_sequences: int = 3
    truncated_contexts: int = 16
    kinduction_k: int = 3
    conflict_budget: int = 200000
    sampled_contexts: int = 64
    rng_seed: int = 0
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
    """All (or sampled) input sequences over the declared alphabets.

    Returns ``(sequences, complete)`` where each sequence is a list of
    per-cycle input dicts and ``complete`` says enumeration covered the
    whole alphabet-constrained space up to the horizon.
    """
    live = design.live_inputs
    per_cycle = [
        dict(zip((i.name for i in live), combo))
        for combo in itertools.product(*(i.alphabet for i in live))
    ]
    total = len(per_cycle) ** config.horizon
    if total <= config.max_contexts:
        sequences = [
            list(seq)
            for seq in itertools.product(per_cycle, repeat=config.horizon)
        ]
        return sequences, True
    sequences = [
        [rng.choice(per_cycle) for _ in range(config.horizon)]
        for _ in range(config.sampled_contexts)
    ]
    return sequences, False


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

def _check_ref_vs_sim(design, sequences, config, rng, report):
    sim = Simulator(design.netlist)
    ref = design.ref()
    picks = list(range(len(sequences)))
    if len(picks) > config.sim_sequences:
        sampled = rng.sample(picks[1:-1], config.sim_sequences - 2)
        picks = [picks[0]] + sampled + [picks[-1]]
    for si in picks:
        seq = sequences[si]
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


def _check_sim_vs_blast(design, sequences, config, rng, report):
    netlist = design.netlist
    sim = Simulator(netlist)
    picks = sequences[: config.blast_sequences]
    for si, seq in enumerate(picks):
        solver = SatSolver()
        builder = BitBuilder(solver)
        state = {
            reg.name: builder.const_word(reg.reset, reg.width)
            for reg, _next in netlist.registers
        }
        sim.reset()
        frames = []
        for cycle in seq:
            input_bits = {
                node.name: builder.const_word(
                    cycle.get(node.name, 0) & ((1 << node.width) - 1),
                    node.width)
                for node in netlist.inputs
            }
            frame = blast_frame(builder, netlist, state, input_bits)
            frames.append((frame, sim.step(cycle)))
            state = frame.next_state
        # constant propagation folds everything; solve() just fixes TRUE
        assert solver.solve() == SAT
        for t, (frame, sim_obs) in enumerate(frames):
            for name in sorted(frame.named):
                report.checks += 1
                got = builder.word_value(frame.named[name])
                if got != sim_obs[name]:
                    report.disagreements.append(Disagreement(
                        kind="sim-blast",
                        design=design.spec.name,
                        detail="sequence %d cycle %d signal %s: blast=%d sim=%d"
                               % (si, t, name, got, sim_obs[name]),
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


def _check_engines(design, sequences, complete, config, report):
    netlist = design.netlist
    # the sequences share their per-cycle dicts: sort each one once, so
    # the contexts share the sorted tuples ``Context.make`` would build
    items: Dict[int, tuple] = {}
    for seq in sequences:
        for cycle in seq:
            if id(cycle) not in items:
                items[id(cycle)] = tuple(sorted(cycle.items()))
    contexts = [
        Context((), tuple(items[id(cycle)] for cycle in seq), label="seq%d" % i)
        for i, seq in enumerate(sequences)
    ]
    tracedb = TraceDB(netlist, contexts, complete=complete)
    enum = EnumerativeEngine(tracedb)
    bmc = BmcContext(
        netlist,
        horizon=config.horizon,
        context=SymbolicContextSpec(drive=_alphabet_drive(design)),
        complete_horizon=complete,
        conflict_budget=config.conflict_budget,
    )
    truncated = TraceDB(netlist, contexts[: config.truncated_contexts],
                        complete=False)
    portfolio = PortfolioEngine(truncated, bmc=bmc)

    full_alphabets = all(
        len(set(inp.alphabet)) == (1 << inp.width)
        for inp in design.live_inputs
    )

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
                    k=min(config.kinduction_k, config.horizon),
                    conflict_budget=config.conflict_budget,
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
    rng = random.Random(config.rng_seed ^ design.spec.seed)
    with obs.span("fuzz.oracle", design=design.spec.name) as sp:
        sequences, complete = _input_sequences(design, config, rng)
        report.complete = complete
        before = len(report.disagreements)
        if "ref" in config.check_kinds:
            with obs.span("fuzz.oracle.ref"):
                _check_ref_vs_sim(design, sequences, config, rng, report)
        if "blast" in config.check_kinds:
            with obs.span("fuzz.oracle.blast"):
                _check_sim_vs_blast(design, sequences, config, rng, report)
        if "engines" in config.check_kinds or "kinduction" in config.check_kinds:
            with obs.span("fuzz.oracle.engines"):
                _check_engines(design, sequences, complete, config, report)
        report.elapsed = time.perf_counter() - started
        sp.set("checks", report.checks)
        sp.set("disagreements", len(report.disagreements))
        checks_total.inc(report.checks)
        new = len(report.disagreements) - before
        if new:
            disagreements_total.inc(new)
    return report
