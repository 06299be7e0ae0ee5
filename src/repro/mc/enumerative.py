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

A query's verdict on a trace is a function of the trace's rows alone, and
families collapse to few distinct traces (the e2e fuzz corpus's 64,288
exhaustive contexts hold 4,039).  :meth:`EnumerativeEngine.check`
therefore evaluates each query once per *distinct* trace, in order of
first occurrence in the family (DESIGN SS5n).  The first satisfying
distinct trace is the first occurrence of the first satisfying context's
rows, so outcome, witness, ``depth`` and ``contexts_scanned`` are the
ones a per-context scan reports.

A :class:`ProductFamily` -- every input sequence over a per-cycle
alphabet, from reset -- yields those distinct traces without simulating
each context: a walk of the input trie steps each distinct
``(state, inputs)`` transition once (DESIGN SS5o).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..props.query import Query
from ..props.views import ConcreteOps, ConcreteTraceView
from ..sim.simulator import Simulator, compiled
from ..rtl.netlist import Netlist
from .outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult
from .stats import PropertyStats

__all__ = [
    "Context",
    "RELEASES",
    "TraceDB",
    "ProductFamily",
    "EnumerativeEngine",
    "simulate_context",
]


#: the signals a script step can wait on: the fetch port's acceptance of
#: the word (or request) it drives, and pipeline quiescence
RELEASES = ("fetch_ready", "pipe_quiesce")


def _pairs(assignment: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted(assignment.items()))


@dataclass(frozen=True)
class Context:
    """One concrete execution context: a reset state, an input script and
    a horizon.

    ``reset_overrides`` assigns initial values to architectural registers
    (the paper's "only architectural state is symbolically initialized").
    ``script`` is a tuple of steps ``(assignment, release)``.  A step
    drives its assignment (sorted ``(input, value)`` pairs, over the
    ``idle`` inputs) every cycle until a cycle whose own row has the
    ``release`` signal high, or for one cycle when ``release`` is None;
    the next step starts on the following cycle.  After the last step
    the ``idle`` inputs hold until ``horizon``.  A context holds no
    callable, so contexts compare, hash and pickle by value, and equal
    contexts simulate to equal rows.
    """

    reset_overrides: Tuple[Tuple[str, int], ...]
    script: Tuple[Tuple[Tuple[Tuple[str, int], ...], Optional[str]], ...]
    horizon: int
    idle: Tuple[Tuple[str, int], ...] = ()
    label: str = ""

    @staticmethod
    def make(reset_overrides: Dict[str, int], inputs: Iterable[Dict[str, int]], label=""):
        """The open-loop context driving ``inputs``, one dict per cycle."""
        steps = [(cycle, None) for cycle in inputs]
        return Context.scripted(reset_overrides, steps, len(steps), label=label)

    @staticmethod
    def scripted(reset_overrides: Dict[str, int],
                 steps: Iterable[Tuple[Dict[str, int], Optional[str]]],
                 horizon: int, idle: Optional[Dict[str, int]] = None, label=""):
        """The context driving ``steps``, ``(input dict, release)`` pairs
        whose release is one of :data:`RELEASES` or None."""
        script = tuple((_pairs(inputs), release) for inputs, release in steps)
        for _, release in script:
            if release is not None and release not in RELEASES:
                raise ValueError("unknown release signal %r" % (release,))
        return Context(_pairs(reset_overrides), script, horizon, _pairs(idle or {}), label)


def drive(step, state: tuple, script: Sequence[Tuple[tuple, Optional[int]]],
          idle: tuple, horizon: int, quiesce: Optional[int] = None):
    """The stimulus loop: run a packed script over a compiled step.

    ``script`` holds ``(input tuple, release column or None)`` pairs and
    ``idle`` the input tuple after the last step, with the step rule of
    :class:`Context`.  Returns ``(rows, state)``, the rows and the state
    after the last row.  A cycle whose step returns its own state and
    neither releases a step nor stops the run repeats forever: its row
    pads the rest of the horizon.  With ``quiesce`` (a column), the run
    instead stops at the first row after the last release that has it
    high, and such a cycle raises ``RuntimeError``, as does reaching
    ``horizon`` first.
    """
    rows = []
    n = len(script)
    i = 0
    inputs, release = script[0] if n else (idle, None)
    for t in range(horizon):
        after, row = step(state, inputs)
        rows.append(row)
        if i < n:
            if release is None or row[release]:
                i += 1
                inputs, release = script[i] if i < n else (idle, None)
                state = after
                continue
        elif quiesce is not None and row[quiesce]:
            return rows, after
        if after == state:
            if quiesce is not None:
                raise RuntimeError(
                    "program did not quiesce: cycle %d repeats cycle %d forever"
                    % (t + 1, t)
                )
            rows += [row] * (horizon - t - 1)
            return rows, state
        state = after
    if quiesce is not None:
        raise RuntimeError("program did not quiesce within %d cycles" % horizon)
    return rows, state


def simulate_context(simulator: Simulator, context: Context) -> List[Tuple[int, ...]]:
    """Reset ``simulator`` and drive one context through it, returning rows.

    Shared between :class:`TraceDB` (which builds views for many queries)
    and cover-witness replay (:mod:`repro.cert`), which re-drives the
    same stimulus through a *fresh* simulator so its check is independent
    of the rows the original verdict was read from.  The simulator is
    left in the run's final state.
    """
    simulator.reset(dict(context.reset_overrides))
    idle = dict(context.idle)
    script = [
        (simulator.pack_checked({**idle, **dict(assignment)}),
         None if release is None else simulator.observable_index(release))
        for assignment, release in context.script
    ]
    rows, simulator.state = drive(
        compiled(simulator.netlist).step, simulator.state, script,
        simulator.pack_checked(idle), context.horizon,
    )
    simulator.cycle = context.horizon
    return rows


class TraceDB:
    """Simulated traces for a context family, reusable across many queries.

    Each distinct context is simulated once: equal contexts share one rows
    list (``rows_by_context``), while ``views`` keeps one view per context,
    in family order.  Every view shares the database's one observable
    ``{name: position}`` index.  :meth:`distinct_views` groups the views
    by equal rows -- distinct contexts often simulate to equal traces --
    once, on first use.
    """

    def __init__(self, netlist: Netlist, contexts: Iterable, complete: bool):
        self.netlist = netlist
        self.complete = complete
        self.contexts: List = list(contexts)
        self.rows_by_context: Dict[object, List[Tuple[int, ...]]] = {}
        simulator = Simulator(netlist)
        names = simulator.observable_names
        index = {name: i for i, name in enumerate(names)}
        self.views: List[ConcreteTraceView] = []
        for context in self.contexts:
            rows = self.rows_by_context.get(context)
            if rows is None:
                rows = simulate_context(simulator, context)
                self.rows_by_context[context] = rows
            self.views.append(ConcreteTraceView(rows, names=names, index=index))
        self._distinct: Optional[List[Tuple[int, ConcreteTraceView]]] = None

    def distinct_views(self) -> List[Tuple[int, ConcreteTraceView]]:
        """``(family index, view)`` of the first view of each distinct trace.

        In family order: the views a per-context scan reaches first.
        """
        if self._distinct is None:
            first: Dict[tuple, Tuple[int, ConcreteTraceView]] = {}
            for i, view in enumerate(self.views):
                first.setdefault(tuple(view.cycles), (i, view))
            self._distinct = list(first.values())
        return self._distinct

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


def _trie_node(rows: tuple, state: tuple) -> tuple:
    """The identity of a node of the input trie, for pruning.

    The traces under a node are its prefix rows followed by rows that its
    state and the input suffix alone decide, so two nodes with equal
    prefix rows and equal state hold equal traces.
    """
    return rows, state


class ProductFamily:
    """Every ``horizon``-cycle input sequence over ``per_cycle``, from reset.

    Family index ``i`` is the ``i``-th sequence of
    ``itertools.product(per_cycle, repeat=horizon)``; :meth:`sequence`
    decodes it.  The family is complete, and :meth:`distinct_views`
    returns what :meth:`TraceDB.distinct_views` returns for the same
    contexts, without simulating each of them: a depth-first walk of the
    input trie in enumeration order steps each distinct
    ``(state, inputs)`` transition once (``transitions`` counts them) and
    skips a subtree whose ``(prefix rows, state)`` node it already
    visited, since every trace under that node occurred at a smaller
    family index.  The walk runs on first use.
    """

    complete = True

    def __init__(self, netlist: Netlist, per_cycle: Sequence[Dict[str, int]],
                 horizon: int):
        self.netlist = netlist
        self.per_cycle = list(per_cycle)
        self.horizon = horizon
        self.transitions = 0
        self._size = len(self.per_cycle) ** horizon
        self._distinct: Optional[List[Tuple[int, ConcreteTraceView]]] = None

    def __len__(self):
        return self._size

    def sequence(self, index: int) -> List[Dict[str, int]]:
        """The per-cycle input dicts of family ``index``: its digits in
        base ``len(per_cycle)``, most significant first."""
        if not 0 <= index < self._size:
            raise IndexError("family index %d out of range" % index)
        radix = len(self.per_cycle)
        out = []
        for _ in range(self.horizon):
            index, digit = divmod(index, radix)
            out.append(self.per_cycle[digit])
        out.reverse()
        return out

    def distinct_views(self) -> List[Tuple[int, ConcreteTraceView]]:
        """``(family index, view)`` of the first context of each distinct
        trace, in family order."""
        if self._distinct is None:
            self._distinct = self._walk()
        return self._distinct

    def _walk(self) -> List[Tuple[int, ConcreteTraceView]]:
        simulator = Simulator(self.netlist)
        step = compiled(self.netlist).step
        names = simulator.observable_names
        index = {name: i for i, name in enumerate(names)}
        packed = [simulator.pack_checked(choice) for choice in self.per_cycle]
        radix = len(packed)
        horizon = self.horizon
        memo: Dict[tuple, tuple] = {}
        visited = set()
        first: Dict[tuple, Tuple[int, ConcreteTraceView]] = {}
        # (first family index, depth, prefix rows, state); children are
        # pushed last-first, so nodes pop in enumeration order
        stack = [(0, 0, (), simulator.state)]
        while stack:
            base, depth, rows, state = stack.pop()
            if depth == horizon:
                if rows not in first:
                    first[rows] = (base, ConcreteTraceView(
                        list(rows), names=names, index=index))
                continue
            node = _trie_node(rows, state)
            if node in visited:
                continue
            visited.add(node)
            stride = radix ** (horizon - depth - 1)
            for i in range(radix - 1, -1, -1):
                key = (state, packed[i])
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = step(state, packed[i])
                stack.append((base + i * stride, depth + 1, rows + (hit[1],), hit[0]))
        self.transitions = len(memo)
        return list(first.values())


class EnumerativeEngine:
    """Checks queries against a :class:`TraceDB` or a :class:`ProductFamily`."""

    name = "enumerative"

    def __init__(self, tracedb: Union[TraceDB, ProductFamily],
                 stats: Optional[PropertyStats] = None):
        self.tracedb = tracedb
        self.stats = stats

    def check(self, query: Query) -> CheckResult:
        """Scan the distinct traces for the first one satisfying ``query``.

        ``contexts_scanned`` counts the contexts a per-context scan would
        have visited: the witness context's family index + 1, or the whole
        family.  ``depth`` is the longest of their horizons; equal traces
        have equal horizons, so the distinct traces scanned so far carry it.
        """
        start = time.perf_counter()
        ops = ConcreteOps
        witness = None
        outcome = UNREACHABLE if self.tracedb.complete else UNDETERMINED
        scanned = len(self.tracedb)
        depth = 0
        for index, view in self.tracedb.distinct_views():
            depth = max(depth, view.horizon)
            if not self._satisfies_assumes(view, query.assumes):
                continue
            if query.prop.evaluate(view, ops):
                outcome = REACHABLE
                witness = view.as_dicts()
                scanned = index + 1
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
