"""Module builder: the constructive front-end of the netlist IR.

A :class:`Module` plays the role that elaborated SystemVerilog source plays
for the paper's tools: designers build a synchronous design out of inputs,
registers, memories and combinational expressions, and *name* the internal
signals that verification metadata refers to (performing-location occupancy
conditions, commit signals, operand registers, ...).

The builder performs structural hashing and local constant folding so that
equivalent sub-expressions share one node -- this keeps downstream
bit-blasting and simulation compact.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .nodes import Node, WidthError, mux, zext

__all__ = ["Module", "Register", "Memory"]


def _mask(width):
    return (1 << width) - 1


class Register:
    """A clocked state element.

    ``reg.q`` is the current-cycle value node; assign the next-cycle value
    with ``reg.next = expr`` (defaults to holding its value).
    """

    def __init__(self, module, name, width, reset):
        self.module = module
        self.name = name
        self.width = width
        self.reset = reset & _mask(width)
        self.q = Node("reg", width, name=name, module=module, uid=module._next_uid())
        self._next: Optional[Node] = None
        module._nodes.append(self.q)

    @property
    def next(self):
        return self._next if self._next is not None else self.q

    @next.setter
    def next(self, expr):
        if isinstance(expr, int):
            expr = self.module.const(expr, self.width)
        if expr.width != self.width:
            raise WidthError(
                "register %s is %d bits; next-state expression is %d bits"
                % (self.name, self.width, expr.width)
            )
        self._next = expr

    def __repr__(self):
        return "Register(%s, w=%d)" % (self.name, self.width)


class Memory:
    """A small word-addressed memory, lowered onto one register per word.

    Lowering memories to registers keeps the netlist core minimal (wires,
    cells, registers only), which is exactly how our model checker and the
    CellIFT-style instrumentation want to see the design.  Reads are
    combinational muxes; at most one write port takes effect per cycle
    (last ``write`` call wins on address collision, matching typical
    write-port priority in RTL).
    """

    def __init__(self, module, name, width, depth, reset_words=None):
        if depth <= 0:
            raise WidthError("memory depth must be positive")
        self.module = module
        self.name = name
        self.width = width
        self.depth = depth
        self.addr_width = max(1, (depth - 1).bit_length())
        reset_words = reset_words or [0] * depth
        self.words: List[Register] = [
            module.reg("%s_w%d" % (name, i), width, reset=reset_words[i])
            for i in range(depth)
        ]

    def read(self, addr):
        """Combinational read of the word at ``addr`` (extra bits ignored)."""
        addr = self._check_addr(addr)
        out = self.words[0].q
        for i in range(1, self.depth):
            out = mux(addr.eq(i), self.words[i].q, out)
        return out

    def write(self, enable, addr, data):
        """Schedule a synchronous write: when ``enable``, word[addr] <= data."""
        addr = self._check_addr(addr)
        if data.width != self.width:
            raise WidthError("memory %s write data width mismatch" % self.name)
        if enable.width != 1:
            enable = enable.bool()
        for i, word in enumerate(self.words):
            hit = enable & addr.eq(i)
            word.next = mux(hit, data, word.next)

    def _check_addr(self, addr):
        if isinstance(addr, int):
            addr = self.module.const(addr, self.addr_width)
        if addr.width > self.addr_width:
            addr = addr[0 : self.addr_width]
        elif addr.width < self.addr_width:
            addr = zext(addr, self.addr_width)
        return addr


class Module:
    """A synchronous design under construction."""

    def __init__(self, name):
        self.name = name
        self._nodes: List[Node] = []
        self._cache: Dict[tuple, Node] = {}
        self._uid = 0
        self.inputs: List[Node] = []
        self.registers: List[Register] = []
        self.memories: List[Memory] = []
        self.outputs: Dict[str, Node] = {}
        self.named: Dict[str, Node] = {}

    def _next_uid(self):
        self._uid += 1
        return self._uid

    # -- leaf constructors ---------------------------------------------------
    def input(self, name, width=1):
        node = Node("input", width, name=name, module=self, uid=self._next_uid())
        self.inputs.append(node)
        self._nodes.append(node)
        return node

    def const(self, value, width):
        value &= _mask(width)
        key = ("const", width, value)
        node = self._cache.get(key)
        if node is None:
            node = Node("const", width, value=value, module=self, uid=self._next_uid())
            self._cache[key] = node
            self._nodes.append(node)
        return node

    def reg(self, name, width=1, reset=0):
        register = Register(self, name, width, reset)
        self.registers.append(register)
        return register

    def memory(self, name, width, depth, reset_words=None):
        memory = Memory(self, name, width, depth, reset_words)
        self.memories.append(memory)
        return memory

    # -- interface -------------------------------------------------------------
    def output(self, name, node):
        if name in self.outputs:
            raise ValueError("duplicate output %r" % name)
        self.outputs[name] = node
        return node

    def name_signal(self, name, node):
        """Expose an internal signal under a stable name.

        Named signals are how design metadata (performing locations, commit
        signals, operand registers) refers into the netlist; they survive
        elaboration and are addressable from properties and the simulator.
        """
        if name in self.named:
            raise ValueError("duplicate named signal %r" % name)
        self.named[name] = node
        return node

    def signal(self, name):
        """Look up a previously named signal."""
        return self.named[name]

    # -- structural construction with folding -----------------------------------
    def _make(self, op, args, value=None, width=None):
        args = tuple(args)
        if width is None:
            width = self._infer_width(op, args, value)
        folded = self._fold(op, args, value, width)
        if folded is not None:
            return folded
        if op in ("and", "or", "xor", "add", "mul", "eq"):
            # canonical order for commutative ops improves sharing
            args = tuple(sorted(args, key=lambda n: n.uid))
        key = (op, width, value, tuple(a.uid for a in args))
        node = self._cache.get(key)
        if node is None:
            node = Node(op, width, args=args, value=value, module=self, uid=self._next_uid())
            self._cache[key] = node
            self._nodes.append(node)
        return node

    def _infer_width(self, op, args, value):
        if op in ("and", "or", "xor", "add", "sub", "mul"):
            a, b = args
            if a.width != b.width:
                raise WidthError("%s operands differ: %d vs %d" % (op, a.width, b.width))
            return a.width
        if op in ("eq", "ult"):
            a, b = args
            if a.width != b.width:
                raise WidthError("%s operands differ: %d vs %d" % (op, a.width, b.width))
            return 1
        if op == "not":
            return args[0].width
        if op in ("shl", "shr"):
            return args[0].width
        if op == "mux":
            sel, a, b = args
            if sel.width != 1:
                raise WidthError("mux selector must be 1 bit")
            if a.width != b.width:
                raise WidthError("mux data operands differ: %d vs %d" % (a.width, b.width))
            return a.width
        if op == "concat":
            return sum(a.width for a in args)
        raise WidthError("cannot infer width of op %r" % op)

    def _fold(self, op, args, value, width):
        """Local constant folding / identity simplification."""
        consts = [a.value for a in args if a.op == "const"]
        if len(consts) == len(args) and op != "concat" or (
            op == "concat" and len(consts) == len(args)
        ):
            return self._fold_all_const(op, args, value, width)

        if op == "and":
            a, b = args
            for x, y in ((a, b), (b, a)):
                if x.op == "const":
                    if x.value == 0:
                        return self.const(0, width)
                    if x.value == _mask(width):
                        return y
            if a is b:
                return a
        elif op == "or":
            a, b = args
            for x, y in ((a, b), (b, a)):
                if x.op == "const":
                    if x.value == 0:
                        return y
                    if x.value == _mask(width):
                        return self.const(_mask(width), width)
            if a is b:
                return a
        elif op == "xor":
            a, b = args
            if a is b:
                return self.const(0, width)
            for x, y in ((a, b), (b, a)):
                if x.op == "const" and x.value == 0:
                    return y
        elif op == "add":
            a, b = args
            for x, y in ((a, b), (b, a)):
                if x.op == "const" and x.value == 0:
                    return y
        elif op == "sub":
            a, b = args
            if b.op == "const" and b.value == 0:
                return a
            if a is b:
                return self.const(0, width)
        elif op == "mux":
            sel, a, b = args
            if sel.op == "const":
                return a if sel.value else b
            if a is b:
                return a
        elif op == "eq":
            a, b = args
            if a is b:
                return self.const(1, 1)
        elif op == "ult":
            a, b = args
            if a is b:
                return self.const(0, 1)
            if b.op == "const" and b.value == 0:
                return self.const(0, 1)
        elif op == "not":
            (a,) = args
            if a.op == "not":
                return a.args[0]
        elif op in ("shl", "shr") and value == 0:
            return args[0]
        elif op == "slice":
            (a,) = args
            if value == 0 and width == a.width:
                return a
        elif op in ("redor", "redand") and args[0].width == 1:
            return args[0]
        return None

    def _fold_all_const(self, op, args, value, width):
        vals = [a.value for a in args]
        m = _mask(width)
        if op == "and":
            return self.const(vals[0] & vals[1], width)
        if op == "or":
            return self.const(vals[0] | vals[1], width)
        if op == "xor":
            return self.const(vals[0] ^ vals[1], width)
        if op == "add":
            return self.const((vals[0] + vals[1]) & m, width)
        if op == "sub":
            return self.const((vals[0] - vals[1]) & m, width)
        if op == "mul":
            return self.const((vals[0] * vals[1]) & m, width)
        if op == "eq":
            return self.const(1 if vals[0] == vals[1] else 0, 1)
        if op == "ult":
            return self.const(1 if vals[0] < vals[1] else 0, 1)
        if op == "not":
            return self.const(~vals[0] & m, width)
        if op == "shl":
            return self.const((vals[0] << value) & m, width)
        if op == "shr":
            return self.const(vals[0] >> value, width)
        if op == "mux":
            return self.const(vals[1] if vals[0] else vals[2], width)
        if op == "concat":
            out = 0
            for a in args:  # most-significant first
                out = (out << a.width) | a.value
            return self.const(out, width)
        if op == "slice":
            return self.const((vals[0] >> value) & m, width)
        if op == "redor":
            return self.const(1 if vals[0] else 0, 1)
        if op == "redand":
            return self.const(1 if vals[0] == _mask(args[0].width) else 0, 1)
        return None

    # -- convenience expression helpers ------------------------------------------
    def all_of(self, *conds):
        """AND a list of 1-bit conditions (true when empty)."""
        out = self.const(1, 1)
        for cond in conds:
            out = out & cond.bool()
        return out

    def any_of(self, *conds):
        """OR a list of 1-bit conditions (false when empty)."""
        out = self.const(0, 1)
        for cond in conds:
            out = out | cond.bool()
        return out

    def onehot_select(self, selectors_and_values, default):
        """Priority mux: first true selector wins, else ``default``."""
        out = default
        for sel, val in reversed(list(selectors_and_values)):
            out = mux(sel, val, out)
        return out
