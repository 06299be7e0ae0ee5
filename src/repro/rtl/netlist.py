"""Elaboration: freeze a :class:`~repro.rtl.module.Module` into a Netlist.

A :class:`Netlist` is the analysis-ready form of a design: a topologically
ordered list of combinational nodes, the register set with next-state
references, primary inputs, and the named-signal table.  It is immutable
with respect to structure; all downstream tools (simulator, bit-blaster,
IFT instrumentation, static analysis) consume netlists.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from .module import Module, Register
from .nodes import Node

__all__ = ["Netlist", "elaborate", "CombinationalLoopError", "netlist_fingerprint"]


class CombinationalLoopError(ValueError):
    """Raised when the combinational logic contains a cycle."""


class Netlist:
    """An elaborated synchronous design.

    Attributes:
        name: design name.
        order: all live nodes in topological (evaluation) order.
        inputs: primary input nodes, in declaration order.
        registers: list of ``(Register, next_node)`` pairs.
        named: name -> node mapping for metadata-addressable signals.
        outputs: output name -> node mapping.
    """

    def __init__(self, name, order, inputs, registers, named, outputs):
        self.name = name
        self.order: List[Node] = order
        self.inputs: List[Node] = inputs
        self.registers: List[Tuple[Register, Node]] = registers
        self.named: Dict[str, Node] = named
        self.outputs: Dict[str, Node] = outputs
        self._by_uid = {n.uid: n for n in order}

    # -- stats used by reports & tests ---------------------------------------
    @property
    def num_state_bits(self):
        return sum(reg.width for reg, _ in self.registers)

    @property
    def num_input_bits(self):
        return sum(node.width for node in self.inputs)

    @property
    def num_cells(self):
        leaf_ops = ("input", "const", "reg")
        return sum(1 for node in self.order if node.op not in leaf_ops)

    def signal(self, name):
        return self.named[name]

    def reset_state(self):
        """The architectural reset valuation: register name -> value."""
        return {reg.name: reg.reset for reg, _ in self.registers}

    def describe(self):
        return (
            "Netlist(%s: %d inputs bits, %d state bits, %d cells, %d named signals)"
            % (
                self.name,
                self.num_input_bits,
                self.num_state_bits,
                self.num_cells,
                len(self.named),
            )
        )

    def __repr__(self):
        return self.describe()


def netlist_fingerprint(netlist) -> str:
    """Canonical structural hash of an elaborated netlist.

    Nodes are visited in topological (evaluation) order and renumbered
    densely, so the hash is independent of builder-assigned uids.  It
    covers each node's (op, width, const value, name, argument
    positions), the registers in order (name, width, reset, next-state
    node), the primary-input order, and the named/output signal tables.
    Those two tables are hashed sorted by name, so the hash misses their
    insertion order -- the observable order the simulator emits
    (:func:`repro.sim.simulator.simulation_key` adds it).
    """
    index: Dict[int, int] = {}
    h = hashlib.sha256()
    h.update(("netlist:%s\n" % netlist.name).encode("utf-8"))
    for i, node in enumerate(netlist.order):
        index[node.uid] = i
        h.update(
            (
                "n%d:%s:%d:%s:%s:%s\n"
                % (
                    i,
                    node.op,
                    node.width,
                    "" if node.value is None else node.value,
                    node.name or "",
                    ",".join(str(index[arg.uid]) for arg in node.args),
                )
            ).encode("utf-8")
        )
    for reg, next_node in netlist.registers:
        h.update(
            (
                "r:%s:%d:%d:%d\n"
                % (reg.name, reg.width, reg.reset, index[next_node.uid])
            ).encode("utf-8")
        )
    h.update(
        ("i:%s\n" % ",".join(str(index[n.uid]) for n in netlist.inputs)).encode()
    )
    for name in sorted(netlist.named):
        h.update(("s:%s:%d\n" % (name, index[netlist.named[name].uid])).encode())
    for name in sorted(netlist.outputs):
        h.update(("o:%s:%d\n" % (name, index[netlist.outputs[name].uid])).encode())
    return h.hexdigest()


def elaborate(module: Module) -> Netlist:
    """Elaborate ``module``: dead-code-eliminate, topo-sort, and freeze.

    The live set is everything reachable from register next-state functions,
    outputs, and named signals.  Register ``q`` nodes and primary inputs act
    as sources; a combinational cycle raises :class:`CombinationalLoopError`.
    """
    roots: List[Node] = []
    register_pairs: List[Tuple[Register, Node]] = []
    for reg in module.registers:
        next_node = reg.next
        register_pairs.append((reg, next_node))
        roots.append(next_node)
    roots.extend(module.outputs.values())
    roots.extend(module.named.values())
    for reg in module.registers:
        roots.append(reg.q)
    roots.extend(module.inputs)

    order = _topo_sort(roots)
    return Netlist(
        name=module.name,
        order=order,
        inputs=list(module.inputs),
        registers=register_pairs,
        named=dict(module.named),
        outputs=dict(module.outputs),
    )


def _topo_sort(roots: List[Node]) -> List[Node]:
    """Iterative post-order DFS over the expression DAG."""
    order: List[Node] = []
    state: Dict[int, int] = {}  # uid -> 0 visiting, 1 done
    stack: List[Tuple[Node, bool]] = [(node, False) for node in reversed(roots)]
    while stack:
        node, processed = stack.pop()
        if processed:
            state[node.uid] = 1
            order.append(node)
            continue
        mark = state.get(node.uid)
        if mark is not None:
            # Either fully processed (1) or already scheduled (0): the DAG is
            # acyclic by construction (nodes are immutable and arguments are
            # created before their parents), so a 0 mark here is a diamond
            # reconvergence, not a loop.
            continue
        state[node.uid] = 0
        stack.append((node, True))
        for arg in node.args:
            if state.get(arg.uid) != 1:
                stack.append((arg, False))
    return order
