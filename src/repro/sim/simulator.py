"""Cycle-accurate two-valued simulator over elaborated netlists.

The simulator compiles the expression DAG to a flat Python function once
(straight-line code, single-use cells inlined), then steps it.  Compilation makes
exhaustive context enumeration -- the workhorse of the fast verification
engine -- run one to two orders of magnitude faster than tree-walking
evaluation, which matters when a single RTL2MuPATH run executes hundreds of
thousands of simulated cycles.

Semantics match the paper's timing model: observable (named) signals are
functions of the register state *at the start of a cycle* plus that cycle's
inputs; register updates take effect at the start of the next cycle
(SS III-C: "state updates ... take effect at the start of the next cycle").

Compiles are memoized per process by netlist *content*
(:func:`simulation_key`), so every :class:`Simulator` over equal netlists
-- two separate builds of one design, or a design rebuilt from a job
recipe -- shares one step function.  A :class:`Simulator` skips the steps
that would repeat a fixed-point transition (see ``step_tuple``).
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, List, Optional, Sequence

from ..rtl.netlist import Netlist, netlist_fingerprint

__all__ = ["Simulator", "Trace", "compile_netlist", "compiled", "simulation_key"]


class Trace:
    """A recorded execution: per-cycle named-signal values."""

    def __init__(self, signal_names):
        self.signal_names = list(signal_names)
        self.cycles: List[Dict[str, int]] = []

    def append(self, observation):
        self.cycles.append(observation)

    def __len__(self):
        return len(self.cycles)

    def value(self, cycle, signal):
        return self.cycles[cycle][signal]

    def column(self, signal):
        return [obs[signal] for obs in self.cycles]

    def retire_times(
        self, commit_signal: str = "commit_fire", pc_signal: str = "commit_pc"
    ) -> Dict[int, int]:
        """Per-instruction retire timestamps: committed PC -> cycle index.

        On cores whose frontend numbers instructions by unique fetch PCs
        (the case-study cores), this is the per-instruction cycle
        accounting: each PC appears at most once on the commit port, so
        the map records the cycle every retired instruction committed.
        Flushed (never-committed) instructions are absent.
        """
        times: Dict[int, int] = {}
        for cycle, obs in enumerate(self.cycles):
            if obs.get(commit_signal):
                times.setdefault(obs[pc_signal], cycle)
        return times


# Deepest parenthesis nesting an inlined expression may reach; a deeper
# one is spilled to a local.  CPython's tokenizer rejects source nested
# more than 200 parentheses deep, and each inlined level adds at most two.
_MAX_DEPTH = 48


def _observable_names(netlist: Netlist) -> List[str]:
    """Named signals in insertion order, then the outputs not among them."""
    return list(netlist.named) + [
        name for name in netlist.outputs if name not in netlist.named
    ]


def _cell_expr(node, a) -> str:
    """Python expression of one cell over its argument expressions ``a``."""
    op = node.op
    if op == "and":
        return "%s & %s" % a
    if op == "or":
        return "%s | %s" % a
    if op == "xor":
        return "%s ^ %s" % a
    if op == "add":
        return "(%s + %s) & %d" % (a + ((1 << node.width) - 1,))
    if op == "sub":
        return "(%s - %s) & %d" % (a + ((1 << node.width) - 1,))
    if op == "mul":
        return "(%s * %s) & %d" % (a + ((1 << node.width) - 1,))
    if op == "eq":
        return "1 if %s == %s else 0" % a
    if op == "ult":
        return "1 if %s < %s else 0" % a
    if op == "not":
        return "%s ^ %d" % (a[0], (1 << node.width) - 1)
    if op == "shl":
        return "(%s << %d) & %d" % (a[0], node.value, (1 << node.width) - 1)
    if op == "shr":
        return "%s >> %d" % (a[0], node.value)
    if op == "mux":
        sel, hi, lo = a
        return "%s if %s else %s" % (hi, sel, lo)
    if op == "concat":
        # args are most-significant first
        parts = []
        shift = 0
        for arg, text in zip(reversed(node.args), reversed(a)):
            parts.append("(%s << %d)" % (text, shift) if shift else text)
            shift += arg.width
        return " | ".join(parts)
    if op == "slice":
        return "(%s >> %d) & %d" % (a[0], node.value, (1 << node.width) - 1)
    if op == "redor":
        return "1 if %s else 0" % a
    if op == "redand":
        return "1 if %s == %d else 0" % (a[0], (1 << node.args[0].width) - 1)
    raise NotImplementedError("simulator: unknown op %r" % op)


def compile_netlist(netlist: Netlist):
    """Compile ``netlist`` into a step function.

    Returns ``(step, observable_names)`` where
    ``step(state_tuple, input_tuple) -> (next_state_tuple, obs_tuple)``.
    State ordering follows ``netlist.registers``; input ordering follows
    ``netlist.inputs``; observables are named signals then outputs.

    The step is straight-line code.  Constants are literals, and a cell
    with a single consumer that is neither an observable nor a register
    next-state root is inlined into that consumer's expression (so a mux
    evaluates only its selected arm's inlined cells); every other cell
    gets a local.
    """
    observable_names = _observable_names(netlist)
    obs_nodes = [
        netlist.named[name] if name in netlist.named else netlist.outputs[name]
        for name in observable_names
    ]
    next_nodes = [nxt for _, nxt in netlist.registers]
    pinned = {node.uid for node in obs_nodes}
    pinned.update(node.uid for node in next_nodes)
    uses: Dict[int, int] = {}
    for node in netlist.order:
        for arg in node.args:
            uses[arg.uid] = uses.get(arg.uid, 0) + 1

    lines = ["def _step(state, inputs):"]
    # per node: the text its consumers use (a local, a literal or an
    # inlined expression) and that text's parenthesis depth
    text: Dict[int, str] = {}
    depth: Dict[int, int] = {}
    for leaves, source in (
        ([reg.q for reg, _ in netlist.registers], "state"),
        (netlist.inputs, "inputs"),
    ):
        for node in leaves:
            text[node.uid] = "v%d" % node.uid
            depth[node.uid] = 0
        if leaves:
            lines.append("    %s, = %s" % (", ".join(text[n.uid] for n in leaves), source))
    for node in netlist.order:
        uid = node.uid
        if uid in text:
            continue
        if node.op == "const":
            text[uid] = "%d" % node.value
            depth[uid] = 0
            continue
        expr = _cell_expr(node, tuple(text[arg.uid] for arg in node.args))
        level = 2 + max(depth[arg.uid] for arg in node.args)
        if uses.get(uid) == 1 and uid not in pinned and level <= _MAX_DEPTH:
            text[uid] = "(%s)" % expr
            depth[uid] = level
        else:
            lines.append("    v%d = %s" % (uid, expr))
            text[uid] = "v%d" % uid
            depth[uid] = 0

    def packed(nodes):
        return "(%s)" % "".join(text[node.uid] + ", " for node in nodes)

    lines.append("    return %s, %s" % (packed(next_nodes), packed(obs_nodes)))
    source = "\n".join(lines)
    namespace: Dict[str, object] = {}
    exec(compile(source, "<netlist:%s>" % netlist.name, "exec"), namespace)
    return namespace["_step"], observable_names


def simulation_key(netlist: Netlist) -> str:
    """Content key of everything simulation derives from ``netlist``.

    :func:`~repro.rtl.netlist.netlist_fingerprint` plus the observable
    order that :func:`compile_netlist` emits, which the fingerprint does
    not hash.  Equal keys mean equal step functions and equal rows.
    """
    h = hashlib.sha256(netlist_fingerprint(netlist).encode("utf-8"))
    h.update("\n".join(_observable_names(netlist)).encode("utf-8"))
    return h.hexdigest()


class CompiledNetlist:
    """One compiled step function, shared by every netlist with its content."""

    __slots__ = ("key", "step", "observable_names", "__weakref__")

    def __init__(self, key: str, step, observable_names: List[str]):
        self.key = key
        self.step = step
        self.observable_names = observable_names


# content key -> compiled netlist, held weakly: ``_BY_NETLIST`` holds each
# entry strongly from every live netlist with that content, so an entry is
# freed with the last of them
_COMPILED: "weakref.WeakValueDictionary[str, CompiledNetlist]" = (
    weakref.WeakValueDictionary()
)
# netlist object -> its entry; caches the content key per netlist object
_BY_NETLIST: "weakref.WeakKeyDictionary[Netlist, CompiledNetlist]" = (
    weakref.WeakKeyDictionary()
)


def compiled(netlist: Netlist) -> CompiledNetlist:
    """The process-wide compile of ``netlist``; compiles on a memo miss."""
    entry = _BY_NETLIST.get(netlist)
    if entry is None:
        key = simulation_key(netlist)
        entry = _COMPILED.get(key)
        if entry is None:
            entry = CompiledNetlist(key, *compile_netlist(netlist))
            _COMPILED[key] = entry
        _BY_NETLIST[netlist] = entry
    return entry


class Simulator:
    """Steppable simulator with trace recording.

    ``step_tuple`` elides fixed-point transitions: once a step returns
    the state it was given, later calls with that same state object and
    equal inputs return the remembered row without running the step
    function, which is a pure function of (state, inputs).  Elided rows
    are one shared tuple, so consumers must not rely on row identity.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        entry = compiled(netlist)
        self._step_fn = entry.step
        self.observable_names = list(entry.observable_names)
        self._reg_names = [reg.name for reg, _ in netlist.registers]
        self._reg_index = {name: i for i, name in enumerate(self._reg_names)}
        self._input_names = [node.name for node in netlist.inputs]
        self._input_set = frozenset(self._input_names)
        self._zero_inputs = (0,) * len(self._input_names)
        self._reset_values = tuple(reg.reset for reg, _ in netlist.registers)
        self._obs_index = {
            name: i for i, name in enumerate(self.observable_names)
        }
        self.reset()

    def observable_index(self, name: str) -> int:
        """Position of observable ``name`` in ``step_tuple`` results."""
        return self._obs_index[name]

    def reset(self, overrides: Optional[Dict[str, int]] = None):
        """Return to the reset state; ``overrides`` sets named registers.

        Overrides model the paper's "only architectural state is symbolically
        initialized" reset: the verification harness enumerates or solves for
        architectural register/memory contents while everything else takes
        its RTL reset value.
        """
        if overrides:
            values = list(self._reset_values)
            for name, value in overrides.items():
                values[self._reg_index[name]] = value
            self.state = tuple(values)
        else:
            self.state = self._reset_values
        self.cycle = 0
        # the fixed point step_tuple last saw: (state object, inputs, row)
        self._fixed_state = self._fixed_inputs = self._fixed_obs = None

    def step(self, inputs: Optional[Dict[str, int]] = None):
        """Advance one cycle; returns the observation dict for this cycle."""
        return dict(zip(self.observable_names, self.step_tuple(inputs)))

    def step_tuple(self, inputs: Optional[Dict[str, int]] = None):
        """Advance one cycle; returns the raw observation tuple (fast path).

        Tuple entries follow ``observable_names`` ordering.
        """
        input_tuple = self.pack_inputs(inputs)
        state = self.state
        self.cycle += 1
        if state is self._fixed_state and input_tuple == self._fixed_inputs:
            return self._fixed_obs
        next_state, obs = self._step_fn(state, input_tuple)
        if next_state == state:
            # keep the old state object, so the next call can test identity
            self._fixed_state = state
            self._fixed_inputs = input_tuple
            self._fixed_obs = obs
        else:
            self.state = next_state
        return obs

    def run(self, input_seq: Sequence[Dict[str, int]]) -> Trace:
        """Run from the current state over ``input_seq``; returns a Trace."""
        trace = Trace(self.observable_names)
        for inputs in input_seq:
            trace.append(self.step(inputs))
        return trace

    def state_dict(self):
        return dict(zip(self._reg_names, self.state))

    def pack_inputs(self, inputs: Optional[Dict[str, int]]):
        """The step function's input tuple for an input dict; absent
        inputs are 0, and an unknown name raises KeyError."""
        if not inputs:
            return self._zero_inputs
        if not inputs.keys() <= self._input_set:
            raise KeyError("unknown inputs: %s" % sorted(set(inputs) - self._input_set))
        return tuple(map(inputs.get, self._input_names, self._zero_inputs))
