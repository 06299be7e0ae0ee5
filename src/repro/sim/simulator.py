"""Cycle-accurate two-valued simulator over elaborated netlists.

The simulator compiles the expression DAG to a flat Python function once
(straight-line code, single-use cells inlined), then steps it.  Compilation makes
exhaustive context enumeration -- the workhorse of the fast verification
engine -- run one to two orders of magnitude faster than tree-walking
evaluation, which matters when a single RTL2MuPATH run executes hundreds of
thousands of simulated cycles.

1-bit logic is emitted as Python tests -- comparisons, ``and``, ``or``,
``not`` -- wherever only a truth value is needed: a mux select reads a
comparison directly, 1-bit ``and``/``or`` short-circuit, and a replicated
taint bit guards the ``and`` it masks.  Every value the step returns is
still an ``int``.  These rules are exact for states and inputs whose values
fit their widths, which a run checks once, not per cycle (DESIGN §5m).

Large cones of cells that read at most 16 bits of state and inputs -- an
instruction decoder keyed on its opcode field, say -- are compiled as
functions of their own and memoized per compile on the values of those
bits, so a step looks such a cone's outputs up instead of recomputing
them (DESIGN §5p).  The memos fill caches of pure functions of their
keys, so the step stays a pure function of ``(state, inputs)``.

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
import heapq
import operator
import weakref
from typing import Dict, List, Optional, Tuple

from ..rtl.netlist import Netlist, netlist_fingerprint

__all__ = ["Simulator", "check_width", "compile_netlist", "compiled", "simulation_key"]


# Deepest parenthesis nesting an inlined expression may reach; a deeper
# one is spilled to a local.  CPython's tokenizer rejects source nested
# more than 200 parentheses deep, and each inlined level adds at most two.
_MAX_DEPTH = 48
# Memoized cones (DESIGN §5p): a block's key packs at most this many
# bits, so its memo holds at most 2**_MAX_KEY_BITS entries ...
_MAX_KEY_BITS = 16
# ... it has at least this many cells ...
_MIN_BLOCK_CELLS = 32
# ... and fewer than half of them are its frontier.

_LEAF_OPS = ("reg", "input")


def _observable_names(netlist: Netlist) -> List[str]:
    """Named signals in insertion order, then the outputs not among them."""
    return list(netlist.named) + [
        name for name in netlist.outputs if name not in netlist.named
    ]


def _replicated(node) -> bool:
    """Whether ``node`` is a concat of one 1-bit signal repeated:
    CellIFT's broadcast of a select taint over a word."""
    if node.op != "concat" or len(node.args) < 2:
        return False
    bit = node.args[0]
    return bit.width == 1 and all(arg is bit for arg in node.args)


def _cell_expr(node, a, t) -> Tuple[str, Optional[str]]:
    """Python expressions of one cell over its arguments' texts.

    ``a`` holds each argument's value text and ``t`` its test text, or
    None where the value text is its own test.  Returns ``(value,
    test)``: ``value`` evaluates to the cell's value, always an ``int``;
    ``test``, where not None, is an expression whose truth is the
    value's.  1-bit logic is tested, not computed: comparisons feed mux
    selects, 1-bit ``and``/``or`` short-circuit, and a replicated bit
    guards the ``and`` it masks (DESIGN §5m).  Exact for argument values
    that fit their widths.
    """
    op = node.op
    mask = (1 << node.width) - 1

    def test(i):
        return a[i] if t[i] is None else t[i]

    if op in ("and", "or"):
        if node.width == 1:
            if t[0] is None and t[1] is None:
                return "%s %s %s" % (a[0], op, a[1]), None
            cond = "%s %s %s" % (test(0), op, test(1))
            return "1 if %s else 0" % cond, cond
        if op == "and":
            for i in (0, 1):
                if _replicated(node.args[i]):
                    return "%s if %s else 0" % (a[1 - i], test(i)), None
            return "%s & %s" % a, None
        return "%s | %s" % a, None
    if op == "xor":
        return "%s ^ %s" % a, None
    if op == "add":
        return "(%s + %s) & %d" % (a + (mask,)), None
    if op == "sub":
        return "(%s - %s) & %d" % (a + (mask,)), None
    if op == "mul":
        return "(%s * %s) & %d" % (a + (mask,)), None
    if op in ("eq", "ult", "redor", "redand"):
        if op == "eq":
            cond = "%s == %s" % a
        elif op == "ult":
            cond = "%s < %s" % a
        elif op == "redor":
            cond = test(0)
        else:
            cond = "%s == %d" % (a[0], (1 << node.args[0].width) - 1)
        return "1 if %s else 0" % cond, cond
    if op == "not":
        if node.width > 1:
            return "%s ^ %d" % (a[0], mask), None
        if t[0] is None:
            return "%s ^ 1" % a[0], "not %s" % a[0]
        return "0 if %s else 1" % t[0], "not %s" % t[0]
    if op == "shl":
        return "(%s << %d) & %d" % (a[0], node.value, mask), None
    if op == "shr":
        return "%s >> %d" % (a[0], node.value), None
    if op == "mux":
        return "%s if %s else %s" % (a[1], test(0), a[2]), None
    if op == "concat":
        if _replicated(node):
            return "%d if %s else 0" % (mask, test(0)), test(0)
        # args are most-significant first
        parts = []
        shift = 0
        for arg, text in zip(reversed(node.args), reversed(a)):
            if arg.op != "const" or arg.value:
                parts.append("(%s << %d)" % (text, shift) if shift else text)
            shift += arg.width
        return " | ".join(parts), None
    if op == "slice":
        if node.value:
            return "(%s >> %d) & %d" % (a[0], node.value, mask), None
        return "%s & %d" % (a[0], mask), None
    raise NotImplementedError("simulator: unknown op %r" % op)


def _is_atom(node) -> bool:
    """A register, an input, or a constant-offset slice of one."""
    return node.op in _LEAF_OPS or (node.op == "slice" and node.args[0].op in _LEAF_OPS)


def _bits(mask: int) -> List[int]:
    """The set bits of ``mask``, lowest first, each as its own mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _memo_blocks(netlist: Netlist, pinned) -> List[Tuple[list, list]]:
    """The cones worth memoizing: ``[(key atoms, cells)]``, disjoint.

    A cell's support is the set of atoms (:func:`_is_atom`) it reads,
    kept as a bit mask over the atoms; ``-1`` marks a support wider than
    ``_MAX_KEY_BITS``.  A support that holds a register or input holds
    none of its slices: the cone computes those from it.  A key's block
    is every cell whose support fits in the key and the slices of its
    atoms, less the cells of blocks taken before; its frontier is the
    block's cells that are in ``pinned`` or read by a cell outside it.
    Blocks are taken greedily, largest first, while they have at least
    ``_MIN_BLOCK_CELLS`` cells and a frontier under half of them.

    The candidate keys are the cells' supports.  Counting a key's block
    visits only the supports inside it, so no pair of unrelated supports
    is ever compared; a key whose block lost cells to a block taken
    before it is requeued at its new size.
    """
    if netlist.num_cells < _MIN_BLOCK_CELLS:
        return []
    atoms: List = []
    width_of = {0: 0}  # support -> its bits
    support: Dict[int, int] = {}
    readers: Dict[int, int] = {}  # uid -> union of its readers' supports
    cells: Dict[int, list] = {}  # support -> its cells
    # a register's or input's atom bit -> the bits of its slice atoms
    slices_of: Dict[int, int] = {}
    wholes = 0  # the keys of slices_of
    trimmed: Dict[int, int] = {}  # support -> it less its wholes' slices

    def slices_in(key):
        """The slice atoms of the registers and inputs in ``key``."""
        found = 0
        for bit in _bits(key & wholes):
            found |= slices_of[bit]
        return found

    for node in netlist.order:
        if node.op == "const":
            support[node.uid] = 0
        elif _is_atom(node):
            if node.width > _MAX_KEY_BITS:
                support[node.uid] = -1
            else:
                mask = support[node.uid] = 1 << len(atoms)
                width_of[mask] = node.width
                atoms.append(node)
                whole = support[node.args[0].uid] if node.op == "slice" else 0
                if whole > 0:
                    slices_of[whole] = slices_of.get(whole, 0) | mask
                    wholes |= whole
        else:
            mask = 0
            for arg in node.args:
                mask |= support[arg.uid]
            if mask > 0 and mask & wholes:
                trim = trimmed.get(mask)
                if trim is None:
                    trim = trimmed[mask] = mask & ~slices_in(mask)
                mask = trim
            if mask > 0:
                width = width_of.get(mask)
                if width is None:
                    width = width_of[mask] = sum(
                        atoms[bit.bit_length() - 1].width for bit in _bits(mask)
                    )
                if width > _MAX_KEY_BITS:
                    mask = -1
                else:
                    cells.setdefault(mask, []).append(node)
            support[node.uid] = mask
            for arg in node.args:
                uid = arg.uid
                readers[uid] = readers.get(uid, 0) | mask
    for uid in pinned:
        readers[uid] = -1

    # The supports inside a key are found by a depth-first walk over its
    # atoms, lowest first, that extends only prefixes of some support.
    prefixes = set()
    for mask in cells:
        prefix = 0
        for bit in _bits(mask):
            prefix |= bit
            prefixes.add(prefix)

    def inside(key):
        bits = _bits(key | slices_in(key))
        found = []
        stack = [(0, 0)]
        while stack:
            prefix, start = stack.pop()
            for i in range(start, len(bits)):
                grown = prefix | bits[i]
                if grown in prefixes:
                    stack.append((grown, i + 1))
                    if grown in cells:
                        found.append(grown)
        return found

    inner = {key: inside(key) for key in cells}
    heap = [(-sum(len(cells[mask]) for mask in masks), key) for key, masks in inner.items()]
    heapq.heapify(heap)
    taken = set()
    blocks = []
    while heap and -heap[0][0] >= _MIN_BLOCK_CELLS:
        _, key = heapq.heappop(heap)
        masks = [mask for mask in inner[key] if mask not in taken]
        count = sum(len(cells[mask]) for mask in masks)
        if heap and count < -heap[0][0]:
            # another key may hold more: requeue this one at its size
            heapq.heappush(heap, (-count, key))
            continue
        if count < _MIN_BLOCK_CELLS:
            break
        members = [node for mask in masks for node in cells[mask]]
        covered = key | slices_in(key)
        frontier = sum(
            1 for node in members if readers.get(node.uid, 0) | covered != covered
        )
        if 2 * frontier < count:
            taken.update(masks)
            blocks.append(([atoms[bit.bit_length() - 1] for bit in _bits(key)], members))
    return blocks


def _key_expr(atoms, text) -> str:
    """A block's memo key: its atoms' values packed into one int."""
    parts = []
    shift = 0
    for atom in atoms:
        parts.append("%s << %d" % (text[atom.uid], shift) if shift else text[atom.uid])
        shift += atom.width
    return " | ".join(parts)


def _emit(nodes, text, depth, tests, uses, pinned, lines):
    """Append one statement per non-inlined cell of ``nodes`` to ``lines``.

    ``nodes`` are topologically ordered.  Constants become literals; a
    cell with one reader in ``uses`` that is not in ``pinned`` is inlined
    into its reader unless that would nest deeper than ``_MAX_DEPTH``.
    ``text`` and ``depth`` map each done node to the text its readers use
    and the parenthesis depth of that text and of its test, which
    ``tests`` holds for an inlined cell that has one (:func:`_cell_expr`);
    nodes already in ``text`` are skipped.
    """
    for node in nodes:
        uid = node.uid
        if uid in text:
            continue
        if node.op == "const":
            text[uid] = "%d" % node.value
            depth[uid] = 0
            continue
        args = node.args
        value, test = _cell_expr(
            node, tuple(text[arg.uid] for arg in args), tuple(tests.get(arg.uid) for arg in args)
        )
        level = 2 + max(depth[arg.uid] for arg in args)
        if uses.get(uid) == 1 and uid not in pinned and level <= _MAX_DEPTH:
            text[uid] = "(%s)" % value
            if test is not None:
                tests[uid] = "(%s)" % test
            depth[uid] = level
        else:
            lines.append("    v%d = %s" % (uid, value))
            text[uid] = "v%d" % uid
            depth[uid] = 0


def _count_uses(nodes) -> Dict[int, int]:
    """uid -> how many of ``nodes`` read it."""
    uses: Dict[int, int] = {}
    for node in nodes:
        for arg in node.args:
            uses[arg.uid] = uses.get(arg.uid, 0) + 1
    return uses


def _packed(nodes, text) -> str:
    return "(%s)" % "".join(text[node.uid] + ", " for node in nodes)


def _emit_cone(index, atoms, frontier, position) -> List[str]:
    """The source of cone function ``_c<index>`` and its memo ``_m<index>``.

    The cone takes the key atoms' values, computes the frontier from
    them, stores the frontier tuple under the key and returns it.  The
    store is its last act, so an interrupted cone stores nothing.
    """
    text = {atom.uid: "v%d" % atom.uid for atom in atoms}
    # the frontier's fan-in down to the key atoms, which hold all of it
    cone: Dict[int, object] = {}
    stack = list(frontier)
    while stack:
        node = stack.pop()
        if node.uid not in cone and node.uid not in text:
            cone[node.uid] = node
            stack.extend(node.args)
    lines = ["def _c%d(%s):" % (index, ", ".join(text.values()))]
    _emit(
        sorted(cone.values(), key=lambda node: position[node.uid]), text,
        dict.fromkeys(text, 0), {}, _count_uses(cone.values()),
        {node.uid for node in frontier}, lines,
    )
    lines.append("    _r = _m%d[%s] = %s" % (index, _key_expr(atoms, text), _packed(frontier, text)))
    lines.append("    return _r")
    lines.append("_m%d = {}" % index)
    return lines


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
    gets a local.  Each block of :func:`_memo_blocks` is a cone function
    memoized on its key (:func:`_emit_cone`): the step looks the block's
    frontier up by key and calls the cone only on a miss.
    """
    observable_names = _observable_names(netlist)
    obs_nodes = [
        netlist.named[name] if name in netlist.named else netlist.outputs[name]
        for name in observable_names
    ]
    next_nodes = [nxt for _, nxt in netlist.registers]
    pinned = {node.uid for node in obs_nodes}
    pinned.update(node.uid for node in next_nodes)
    blocks = _memo_blocks(netlist, pinned)
    claimed = {node.uid for _, members in blocks for node in members}
    step_cells = [node for node in netlist.order if node.uid not in claimed]
    uses = _count_uses(step_cells)
    memoized = [
        (atoms, [node for node in members if node.uid in pinned or node.uid in uses])
        for atoms, members in blocks
    ]
    for atoms, _ in memoized:
        for atom in atoms:
            uses[atom.uid] = uses.get(atom.uid, 0) + 1

    position = {node.uid: i for i, node in enumerate(netlist.order)} if blocks else {}
    # each cone compiles on its own, then the step: one module of them
    # all would hold every function's syntax tree at once, which set the
    # peak memory of a process that compiles the IFT netlist
    pieces = [
        _emit_cone(index, atoms, frontier, position)
        for index, (atoms, frontier) in enumerate(memoized)
    ]
    lines = ["def _step(state, inputs):"]
    pieces.append(lines)
    # per node: the text its consumers use (a local, a literal or an
    # inlined expression) and that text's parenthesis depth
    text: Dict[int, str] = {}
    depth: Dict[int, int] = {}
    tests: Dict[int, str] = {}
    for leaves, source in (
        ([reg.q for reg, _ in netlist.registers], "state"),
        (netlist.inputs, "inputs"),
    ):
        for node in leaves:
            text[node.uid] = "v%d" % node.uid
            depth[node.uid] = 0
        if leaves:
            lines.append("    %s, = %s" % (", ".join(text[n.uid] for n in leaves), source))
    # the lookups come first, and the key atoms before them
    key_atoms = {atom.uid: atom for atoms, _ in memoized for atom in atoms}
    _emit(
        sorted(key_atoms.values(), key=lambda node: position[node.uid]),
        text, depth, tests, uses, pinned, lines,
    )
    for index, (atoms, frontier) in enumerate(memoized):
        for node in frontier:
            text[node.uid] = "v%d" % node.uid
            depth[node.uid] = 0
        lines.append("    %s = _m%d.get(%s) or _c%d(%s)" % (
            _packed(frontier, text), index, _key_expr(atoms, text),
            index, ", ".join(text[atom.uid] for atom in atoms),
        ))
    _emit(step_cells, text, depth, tests, uses, pinned, lines)
    lines.append("    return %s, %s" % (_packed(next_nodes, text), _packed(obs_nodes, text)))
    namespace: Dict[str, object] = {}
    for piece in pieces:
        exec(compile("\n".join(piece), "<netlist:%s>" % netlist.name, "exec"), namespace)
    return namespace["_step"], observable_names


# netlist object -> its simulation_key, held weakly like _BY_NETLIST
_KEYS: "weakref.WeakKeyDictionary[Netlist, str]" = weakref.WeakKeyDictionary()


def simulation_key(netlist: Netlist) -> str:
    """Content key of everything simulation derives from ``netlist``.

    :func:`~repro.rtl.netlist.netlist_fingerprint` plus the observable
    order that :func:`compile_netlist` emits, which the fingerprint does
    not hash.  Equal keys mean equal step functions and equal rows.
    Hashed once per netlist object.
    """
    key = _KEYS.get(netlist)
    if key is None:
        h = hashlib.sha256(netlist_fingerprint(netlist).encode("utf-8"))
        h.update("\n".join(_observable_names(netlist)).encode("utf-8"))
        key = _KEYS[netlist] = h.hexdigest()
    return key


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


def check_width(name: str, value: int, width: int):
    """Raise ValueError unless ``value`` fits ``width`` bits.

    The compiled step is exact only for states and inputs whose values
    fit their widths (DESIGN §5m).  What a run sets once -- reset
    overrides, script steps, a program's ARF values -- is checked; the
    per-cycle inputs of :meth:`Simulator.pack_inputs` are not.
    """
    if value >> width:
        raise ValueError("%s = %r does not fit in %d bits" % (name, value, width))


class Simulator:
    """A netlist's compiled step with its state, stepped one cycle a call.

    Runs of many cycles go through the stimulus loop instead
    (:func:`repro.mc.enumerative.drive`), which stops stepping at a
    fixed point.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        entry = compiled(netlist)
        self._step_fn = entry.step
        self.observable_names = list(entry.observable_names)
        self._reg_names = [reg.name for reg, _ in netlist.registers]
        self._reg_index = {name: i for i, name in enumerate(self._reg_names)}
        self._reg_widths = [reg.width for reg, _ in netlist.registers]
        self._input_names = [node.name for node in netlist.inputs]
        self._input_widths = [node.width for node in netlist.inputs]
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
        its RTL reset value.  An override that does not fit its register
        raises ValueError.
        """
        if overrides:
            values = list(self._reset_values)
            for name, value in overrides.items():
                i = self._reg_index[name]
                check_width(name, value, self._reg_widths[i])
                values[i] = value
            self.state = tuple(values)
        else:
            self.state = self._reset_values
        self.cycle = 0

    def step(self, inputs: Optional[Dict[str, int]] = None):
        """Advance one cycle; returns the observation dict for this cycle."""
        return dict(zip(self.observable_names, self.step_tuple(inputs)))

    def step_tuple(self, inputs: Optional[Dict[str, int]] = None):
        """Advance one cycle; returns the raw observation tuple (fast path).

        Tuple entries follow ``observable_names`` ordering.
        """
        self.state, obs = self._step_fn(self.state, self.pack_inputs(inputs))
        self.cycle += 1
        return obs

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

    def pack_checked(self, inputs: Optional[Dict[str, int]]):
        """:meth:`pack_inputs`, and a value that does not fit its input
        raises ValueError: for the tuples a run packs once, a script's
        steps or a family's alphabet, not for each cycle's inputs."""
        packed = self.pack_inputs(inputs)
        if any(map(operator.rshift, packed, self._input_widths)):
            for name, value, width in zip(self._input_names, packed, self._input_widths):
                check_width(name, value, width)
        return packed
