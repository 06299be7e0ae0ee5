"""Enumerative (explicit-context) model-checking engine.

This engine exhaustively simulates a *finite context family* -- a declared
set of (initial architectural state, input sequence) pairs -- and evaluates
cover queries concretely over the recorded traces.  Within its family it is
both sound and complete: a cover is REACHABLE iff some enumerated trace
satisfies it.  When the family had to be truncated (sampled), negative
verdicts degrade to UNDETERMINED, mirroring the resource-limited verdicts
of a commercial model checker.

Why it exists: the paper evaluates ~160k SVA properties at minutes per
property on a Xeon cluster.  Our designs are width-scaled so that the
relevant context space is small enough to enumerate, which turns each of
those minutes into microseconds while preserving the verdicts.  The
SAT-based :mod:`repro.mc.bmc` engine answers the same queries symbolically
and is cross-checked against this engine in the test suite.
"""

from __future__ import annotations

import itertools
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..props.query import Query
from ..props.views import ConcreteOps, ConcreteTraceView
from ..sim.simulator import Simulator, compiled
from ..rtl.netlist import Netlist
from .outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult
from .stats import PropertyStats

__all__ = [
    "Context",
    "ReactiveContext",
    "TraceDB",
    "EnumerativeEngine",
    "simulate_context",
]


@dataclass(frozen=True)
class Context:
    """One concrete execution context.

    ``reset_overrides`` assigns initial values to architectural registers
    (the paper's "only architectural state is symbolically initialized");
    ``input_sequence`` drives the DUV's primary inputs cycle by cycle.
    """

    reset_overrides: Tuple[Tuple[str, int], ...]
    input_sequence: Tuple[Tuple[Tuple[str, int], ...], ...]
    label: str = ""

    @staticmethod
    def make(reset_overrides: Dict[str, int], inputs: Sequence[Dict[str, int]], label=""):
        return Context(
            reset_overrides=tuple(sorted(reset_overrides.items())),
            input_sequence=tuple(
                tuple(sorted(cycle.items())) for cycle in inputs
            ),
            label=label,
        )


@dataclass(frozen=True)
class ReactiveContext:
    """A context whose inputs react to observations (e.g. fetch handshakes).

    ``driver_factory()`` returns a fresh callable ``f(t, prev_obs) -> dict``
    invoked once per cycle; ``prev_obs`` is the previous cycle's observation
    dict (None at t=0), letting program drivers replay instructions until
    the DUV's fetch interface accepts them.  The design harnesses' driver
    factories are frozen dataclasses whose drivers are pure functions of
    their fields, so their contexts compare, hash and pickle by value and
    equal contexts simulate to equal rows.
    """

    reset_overrides: Tuple[Tuple[str, int], ...]
    driver_factory: Callable[[], Callable]
    horizon: int
    label: str = ""
    # the named signals the driver reads from prev_obs; keeping this list
    # small avoids materializing every observable as a dict each cycle
    feedback_signals: Tuple[str, ...] = ("fetch_ready", "pipe_quiesce")

    @staticmethod
    def make(reset_overrides: Dict[str, int], driver_factory, horizon: int, label="",
             feedback_signals=("fetch_ready", "pipe_quiesce")):
        return ReactiveContext(
            reset_overrides=tuple(sorted(reset_overrides.items())),
            driver_factory=driver_factory,
            horizon=horizon,
            label=label,
            feedback_signals=tuple(feedback_signals),
        )


def simulate_context(simulator: Simulator, context) -> List[Tuple[int, ...]]:
    """Reset ``simulator`` and drive one context through it, returning rows.

    Shared between :class:`TraceDB` (which builds views for many queries)
    and cover-witness replay (:mod:`repro.cert`), which re-drives the
    same stimulus through a *fresh* simulator so its check is independent
    of the rows the original verdict was read from.
    """
    simulator.reset(dict(context.reset_overrides))
    if isinstance(context, ReactiveContext):
        # hand the driver a minimal dict of its declared feedback
        # signals instead of materializing every observable
        feedback = []
        for name in context.feedback_signals:
            try:
                feedback.append((name, simulator.observable_index(name)))
            except KeyError:  # a netlist need not expose every signal
                pass
        driver = context.driver_factory()
        rows = []
        prev_obs = None
        for t in range(context.horizon):
            row = simulator.step_tuple(driver(t, prev_obs))
            rows.append(row)
            prev_obs = {name: row[i] for name, i in feedback}
        return rows
    return [
        simulator.step_tuple(dict(cycle_inputs))
        for cycle_inputs in context.input_sequence
    ]


class TraceDB:
    """Simulated traces for a context family, reusable across many queries.

    Each distinct context is simulated once: equal contexts share one rows
    list (``rows_by_context``), while ``views`` keeps one view per context,
    in family order.
    """

    def __init__(self, netlist: Netlist, contexts: Iterable, complete: bool):
        self.netlist = netlist
        self.complete = complete
        self.contexts: List = list(contexts)
        self.rows_by_context: Dict[object, List[Tuple[int, ...]]] = {}
        simulator = Simulator(netlist)
        names = simulator.observable_names
        self.views: List[ConcreteTraceView] = []
        for context in self.contexts:
            rows = self.rows_by_context.get(context)
            if rows is None:
                rows = simulate_context(simulator, context)
                self.rows_by_context[context] = rows
            self.views.append(ConcreteTraceView(rows, names=names))

    @classmethod
    def shared(cls, netlist: Netlist, contexts: Iterable, complete: bool) -> "TraceDB":
        """The live TraceDB of an equal family, else a new registered one.

        Families are keyed by content -- the netlist's
        :func:`~repro.sim.simulator.simulation_key`, the contexts and
        ``complete`` -- so a caller that rebuilt its design and provider
        from recipes still finds a family another caller simulated, for
        as long as some caller holds that TraceDB.
        """
        contexts = tuple(contexts)
        key = (compiled(netlist).key, contexts, complete)
        db = _SHARED.get(key)
        if db is None:
            db = cls(netlist, contexts, complete)
            _SHARED[key] = db
        return db

    def __len__(self):
        return len(self.views)


# (netlist content key, contexts, complete) -> TraceDB, while some caller
# holds it: Rtl2MuPath keeps its DUV-pruning families alive through synthesis
_SHARED: "weakref.WeakValueDictionary[tuple, TraceDB]" = weakref.WeakValueDictionary()


class EnumerativeEngine:
    """Checks queries against a :class:`TraceDB`."""

    name = "enumerative"

    def __init__(self, tracedb: TraceDB, stats: Optional[PropertyStats] = None):
        self.tracedb = tracedb
        self.stats = stats

    def check(self, query: Query) -> CheckResult:
        start = time.perf_counter()
        ops = ConcreteOps
        witness = None
        outcome = UNREACHABLE if self.tracedb.complete else UNDETERMINED
        scanned = 0
        depth = 0
        for context, view in zip(self.tracedb.contexts, self.tracedb.views):
            scanned += 1
            depth = max(depth, view.horizon)
            if not self._satisfies_assumes(view, query.assumes):
                continue
            if query.prop.evaluate(view, ops):
                outcome = REACHABLE
                witness = view.as_dicts()
                break
        elapsed = time.perf_counter() - start
        result = CheckResult(
            query_name=query.name,
            outcome=outcome,
            engine=self.name,
            witness=witness,
            time_seconds=elapsed,
            detail="" if self.tracedb.complete else "context family truncated",
            depth=depth,
            solver={"contexts_scanned": scanned,
                    "contexts_total": len(self.tracedb)},
        )
        if self.stats is not None:
            self.stats.record(result)
            obs.note_property(outcome, elapsed)
        return result

    @staticmethod
    def _satisfies_assumes(view, assumes):
        ops = ConcreteOps
        for expr in assumes:
            for t in range(view.horizon):
                if not expr.evaluate(view, t, ops):
                    return False
        return True
