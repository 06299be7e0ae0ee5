"""Cycle-accurate two-valued simulator over elaborated netlists.

The simulator compiles the expression DAG to a flat Python function once
(straight-line code, one local per node), then steps it.  Compilation makes
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
recipe -- shares one step function.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, List, Optional, Sequence

from ..rtl.netlist import Netlist, netlist_fingerprint

__all__ = ["Simulator", "Trace", "compile_netlist", "compiled", "simulation_key"]


class Trace:
    """A recorded execution: per-cycle named-signal values and states."""

    def __init__(self, signal_names):
        self.signal_names = list(signal_names)
        self.cycles: List[Dict[str, int]] = []
        self.states: List[Dict[str, int]] = []

    def append(self, observation, state):
        self.cycles.append(observation)
        self.states.append(state)

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


def _mask_expr(width):
    return (1 << width) - 1


def _observable_names(netlist: Netlist) -> List[str]:
    """Named signals in insertion order, then the outputs not among them."""
    return list(netlist.named) + [
        name for name in netlist.outputs if name not in netlist.named
    ]


def compile_netlist(netlist: Netlist):
    """Compile ``netlist`` into a step function.

    Returns ``(step, observable_names)`` where
    ``step(state_tuple, input_tuple) -> (next_state_tuple, obs_tuple)``.
    State ordering follows ``netlist.registers``; input ordering follows
    ``netlist.inputs``; observables are named signals then outputs.
    """
    lines = ["def _step(state, inputs):"]
    reg_index = {reg.q.uid: i for i, (reg, _) in enumerate(netlist.registers)}
    input_index = {node.uid: i for i, node in enumerate(netlist.inputs)}

    for node in netlist.order:
        var = "v%d" % node.uid
        op = node.op
        if op == "const":
            lines.append("    %s = %d" % (var, node.value))
        elif op == "input":
            lines.append("    %s = inputs[%d]" % (var, input_index[node.uid]))
        elif op == "reg":
            lines.append("    %s = state[%d]" % (var, reg_index[node.uid]))
        elif op == "and":
            a, b = node.args
            lines.append("    %s = v%d & v%d" % (var, a.uid, b.uid))
        elif op == "or":
            a, b = node.args
            lines.append("    %s = v%d | v%d" % (var, a.uid, b.uid))
        elif op == "xor":
            a, b = node.args
            lines.append("    %s = v%d ^ v%d" % (var, a.uid, b.uid))
        elif op == "add":
            a, b = node.args
            lines.append("    %s = (v%d + v%d) & %d" % (var, a.uid, b.uid, _mask_expr(node.width)))
        elif op == "sub":
            a, b = node.args
            lines.append("    %s = (v%d - v%d) & %d" % (var, a.uid, b.uid, _mask_expr(node.width)))
        elif op == "mul":
            a, b = node.args
            lines.append("    %s = (v%d * v%d) & %d" % (var, a.uid, b.uid, _mask_expr(node.width)))
        elif op == "eq":
            a, b = node.args
            lines.append("    %s = 1 if v%d == v%d else 0" % (var, a.uid, b.uid))
        elif op == "ult":
            a, b = node.args
            lines.append("    %s = 1 if v%d < v%d else 0" % (var, a.uid, b.uid))
        elif op == "not":
            (a,) = node.args
            lines.append("    %s = v%d ^ %d" % (var, a.uid, _mask_expr(node.width)))
        elif op == "shl":
            (a,) = node.args
            lines.append("    %s = (v%d << %d) & %d" % (var, a.uid, node.value, _mask_expr(node.width)))
        elif op == "shr":
            (a,) = node.args
            lines.append("    %s = v%d >> %d" % (var, a.uid, node.value))
        elif op == "mux":
            sel, a, b = node.args
            lines.append("    %s = v%d if v%d else v%d" % (var, a.uid, sel.uid, b.uid))
        elif op == "concat":
            # args are most-significant first
            parts = []
            shift = 0
            for arg in reversed(node.args):
                if shift:
                    parts.append("(v%d << %d)" % (arg.uid, shift))
                else:
                    parts.append("v%d" % arg.uid)
                shift += arg.width
            lines.append("    %s = %s" % (var, " | ".join(parts)))
        elif op == "slice":
            (a,) = node.args
            lines.append("    %s = (v%d >> %d) & %d" % (var, a.uid, node.value, _mask_expr(node.width)))
        elif op == "redor":
            (a,) = node.args
            lines.append("    %s = 1 if v%d else 0" % (var, a.uid))
        elif op == "redand":
            (a,) = node.args
            lines.append("    %s = 1 if v%d == %d else 0" % (var, a.uid, _mask_expr(node.args[0].width)))
        else:
            raise NotImplementedError("simulator: unknown op %r" % op)

    next_vars = ", ".join("v%d" % nxt.uid for _, nxt in netlist.registers)
    if len(netlist.registers) == 1:
        next_vars += ","
    observable_names = _observable_names(netlist)
    obs_nodes = [
        netlist.named[name] if name in netlist.named else netlist.outputs[name]
        for name in observable_names
    ]
    obs_vars = ", ".join("v%d" % node.uid for node in obs_nodes)
    if len(obs_nodes) == 1:
        obs_vars += ","
    lines.append("    return (%s), (%s)" % (next_vars or "()", obs_vars or "()"))
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
    """Steppable simulator with trace recording."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        entry = compiled(netlist)
        self._step_fn = entry.step
        self.observable_names = list(entry.observable_names)
        self._reg_names = [reg.name for reg, _ in netlist.registers]
        self._input_names = [node.name for node in netlist.inputs]
        self._reset_values = tuple(reg.reset for reg, _ in netlist.registers)
        self._obs_index = {
            name: i for i, name in enumerate(self.observable_names)
        }
        self.state = self._reset_values
        self.cycle = 0

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
        values = list(self._reset_values)
        if overrides:
            index = {name: i for i, name in enumerate(self._reg_names)}
            for name, value in overrides.items():
                values[index[name]] = value
        self.state = tuple(values)
        self.cycle = 0

    def step(self, inputs: Optional[Dict[str, int]] = None):
        """Advance one cycle; returns the observation dict for this cycle."""
        return dict(zip(self.observable_names, self.step_tuple(inputs)))

    def step_tuple(self, inputs: Optional[Dict[str, int]] = None):
        """Advance one cycle; returns the raw observation tuple (fast path).

        Tuple entries follow ``observable_names`` ordering.
        """
        input_tuple = self._pack_inputs(inputs)
        next_state, obs = self._step_fn(self.state, input_tuple)
        self.state = next_state
        self.cycle += 1
        return obs

    def run(self, input_seq: Sequence[Dict[str, int]], record_states=False) -> Trace:
        """Run from the current state over ``input_seq``; returns a Trace."""
        trace = Trace(self.observable_names)
        for inputs in input_seq:
            state_snapshot = self.state_dict() if record_states else {}
            observation = self.step(inputs)
            trace.append(observation, state_snapshot)
        return trace

    def state_dict(self):
        return dict(zip(self._reg_names, self.state))

    def _pack_inputs(self, inputs):
        inputs = inputs or {}
        unknown = set(inputs) - set(self._input_names)
        if unknown:
            raise KeyError("unknown inputs: %s" % sorted(unknown))
        return tuple(inputs.get(name, 0) for name in self._input_names)
