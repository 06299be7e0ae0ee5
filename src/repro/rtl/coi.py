"""Cone-of-influence (COI) slicing.

Property checks only constrain the signals a property mentions, so the
formula handed to the solver only needs the part of the design that can
ever influence those signals.  The *sequential* cone of influence of a
signal set is the least set of nodes closed under

* combinational fan-in: every argument of an in-cone node is in-cone; and
* sequential fan-in: when a register's ``q`` pin is in-cone, the
  register's next-state function is in-cone (its value one cycle earlier
  can influence the targets).

:func:`coi_slice` computes that closure and returns a new
:class:`~repro.rtl.netlist.Netlist` restricted to it -- same node
objects, original topological order, with out-of-cone registers, inputs,
named signals, and outputs dropped.  The sliced netlist is a sound,
complete substitute for the original with respect to any property over
the target signals: every retained node's transitive support is retained,
so simulation and bit-blasting of the slice agree cycle-for-cycle with
the full design on all in-cone signals.

:func:`coi_supports` gives the register and input part of every named
signal's cone at once -- one topological pass plus a bit-mask closure
over the register graph -- for callers that need many cones' supports
rather than a slice.

Beyond solver-side slicing, the cone defines the *observable* part of a
design: :func:`observable_names` (all named signals plus outputs) is the
slice the proof-cache fingerprint hashes, so RTL edits outside every
property's cone do not invalidate cached verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .netlist import Netlist
from .nodes import Node

__all__ = ["CoiSlice", "coi_cone", "coi_slice", "coi_supports", "observable_names"]


def _register_frontier(next_node: Node) -> Iterable[Node]:
    """Nodes to enqueue when the closure reaches a register's ``q`` pin.

    Module-level so tests can monkeypatch it (mutation testing of the
    sequential-closure invariant); the correct frontier is exactly the
    register's next-state root.
    """
    return (next_node,)


@dataclass(frozen=True)
class CoiSlice:
    """A sliced netlist plus the reduction accounting."""

    netlist: Netlist
    targets: Tuple[str, ...]
    kept_cells: int
    dropped_cells: int
    kept_registers: int
    dropped_registers: int

    @property
    def cell_reduction(self) -> float:
        total = self.kept_cells + self.dropped_cells
        return self.dropped_cells / total if total else 0.0


def coi_cone(netlist: Netlist, targets: Iterable[str]) -> FrozenSet[int]:
    """Uids of every node in the sequential cone of the named ``targets``.

    Raises KeyError for names not in ``netlist.named`` or ``outputs``.
    """
    next_of: Dict[str, Node] = {
        reg.name: next_node for reg, next_node in netlist.registers
    }
    roots: List[Node] = []
    for name in targets:
        node = netlist.named.get(name)
        if node is None:
            node = netlist.outputs[name]
        roots.append(node)

    cone: Set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.uid in cone:
            continue
        cone.add(node.uid)
        if node.op == "reg":
            stack.extend(_register_frontier(next_of[node.name]))
        else:
            stack.extend(node.args)
    return frozenset(cone)


def coi_supports(netlist: Netlist) -> Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]]:
    """name -> (register names, input names) of the sequential cone of each
    named signal and output: what :func:`coi_cone` reaches, for every name.

    One pass in topological order gives each node's combinational support
    as two bit masks: the registers whose ``q`` pin it reads and the
    inputs.  A closure over the register graph -- register ``r`` reads
    register ``s`` when ``s``'s ``q`` pin is in the combinational support
    of ``r``'s next-state root -- then gives each register every register
    and input it reaches across cycles, itself included.  A name's support
    is the closure of the registers its node reads, plus its own inputs.
    """
    reg_bit = {reg.name: i for i, (reg, _) in enumerate(netlist.registers)}
    input_bit = {node.uid: i for i, node in enumerate(netlist.inputs)}
    regs_of: Dict[int, int] = {}
    inputs_of: Dict[int, int] = {}
    for node in netlist.order:
        if node.op == "reg":
            regs, inputs = 1 << reg_bit[node.name], 0
        elif node.op == "input":
            regs, inputs = 0, 1 << input_bit[node.uid]
        else:
            regs = inputs = 0
            for arg in node.args:
                regs |= regs_of[arg.uid]
                inputs |= inputs_of[arg.uid]
        regs_of[node.uid] = regs
        inputs_of[node.uid] = inputs

    reach, reach_inputs = _register_closure(
        [list(_bits(regs_of[next_node.uid])) for _, next_node in netlist.registers],
        [inputs_of[next_node.uid] for _, next_node in netlist.registers],
    )
    reg_names = [reg.name for reg, _ in netlist.registers]
    input_names = [node.name for node in netlist.inputs]
    as_names: Dict[Tuple[int, int], Tuple[FrozenSet[str], FrozenSet[str]]] = {}
    supports = {}
    for name in dict.fromkeys(list(netlist.named) + list(netlist.outputs)):
        node = netlist.named.get(name)
        if node is None:
            node = netlist.outputs[name]
        regs, inputs = 0, inputs_of[node.uid]
        for r in _bits(regs_of[node.uid]):
            regs |= reach[r]
            inputs |= reach_inputs[r]
        support = as_names.get((regs, inputs))
        if support is None:
            support = as_names[regs, inputs] = (
                frozenset(reg_names[r] for r in _bits(regs)),
                frozenset(input_names[i] for i in _bits(inputs)),
            )
        supports[name] = support
    return supports


def _register_closure(reads: List[List[int]], own_inputs: List[int]):
    """Per register, the masks of registers and inputs it reaches.

    ``reads[r]`` lists the registers ``r``'s next-state root reads and
    ``own_inputs[r]`` masks the inputs it reads.  Tarjan's algorithm
    finishes each strongly connected component after every component it
    reaches, so a finished component's masks are its members' own bits
    and reads OR the already-final masks of the registers they read.
    """
    n = len(reads)
    order = [-1] * n  # DFS discovery number
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    reach = [0] * n
    reach_inputs = [0] * n
    counter = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(reads[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if order[w] < 0:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(reads[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] != order[v]:
                    continue
                members = []
                regs = inputs = 0
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    regs |= 1 << w
                    inputs |= own_inputs[w]
                    if w == v:
                        break
                # a member's reads outside the component are finished
                # components; inside it they are not yet set (zero)
                for w in members:
                    for x in reads[w]:
                        regs |= reach[x]
                        inputs |= reach_inputs[x]
                for w in members:
                    reach[w] = regs
                    reach_inputs[w] = inputs
    return reach, reach_inputs


def _bits(mask: int) -> Iterable[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def coi_slice(netlist: Netlist, targets: Iterable[str]) -> CoiSlice:
    """Slice ``netlist`` to the sequential cone of the named ``targets``.

    The result preserves the original topological order (a subsequence of
    ``netlist.order``), keeps only in-cone registers/inputs, and restricts
    ``named``/``outputs`` to in-cone entries -- target names always
    survive.  The slice is closed: every argument of a retained node is
    retained, so it is directly usable by the simulator and bit-blaster.
    """
    targets = tuple(dict.fromkeys(targets))  # stable de-dup
    cone = coi_cone(netlist, targets)

    order = [node for node in netlist.order if node.uid in cone]
    inputs = [node for node in netlist.inputs if node.uid in cone]
    registers = [
        (reg, next_node)
        for reg, next_node in netlist.registers
        if reg.q.uid in cone
    ]
    for reg, next_node in registers:
        if next_node.uid not in cone:
            # closure invariant: an in-cone register's next-state function
            # is in-cone.  A violation means the sequential frontier was
            # computed wrong; slicing anyway would silently free the
            # register, so fail loudly instead.
            raise ValueError(
                "COI closure broken: register %r kept without its "
                "next-state cone" % reg.name
            )
    named = {
        name: node for name, node in netlist.named.items() if node.uid in cone
    }
    outputs = {
        name: node for name, node in netlist.outputs.items() if node.uid in cone
    }
    sliced = Netlist(
        name=netlist.name,
        order=order,
        inputs=inputs,
        registers=registers,
        named=named,
        outputs=outputs,
    )
    dropped_cells = netlist.num_cells - sliced.num_cells
    dropped_regs = len(netlist.registers) - len(registers)
    if dropped_cells:
        from ..obs.metrics import REGISTRY

        REGISTRY.counter(
            "repro_coi_cells_dropped_total",
            "combinational cells removed by cone-of-influence slicing",
        ).inc(dropped_cells, design=netlist.name)
    return CoiSlice(
        netlist=sliced,
        targets=targets,
        kept_cells=sliced.num_cells,
        dropped_cells=dropped_cells,
        kept_registers=len(registers),
        dropped_registers=dropped_regs,
    )


def observable_names(netlist: Netlist) -> Tuple[str, ...]:
    """Every externally observable signal: named signals plus outputs.

    The cone of these names is the behaviorally relevant part of the
    design for any property the toolchain can state; the proof cache
    fingerprints the netlist sliced to it.
    """
    return tuple(dict.fromkeys(list(netlist.named) + list(netlist.outputs)))
