"""Word-level RTL expression nodes.

This module defines the expression language of the netlist IR.  A design is a
directed acyclic graph of :class:`Node` objects rooted at register
next-state functions and module outputs.  Nodes are immutable; structural
sharing is achieved through the per-module node cache (see
:mod:`repro.rtl.module`).

Supported operations (the ``op`` field):

========== =========================================================
``input``  primary input, free every cycle
``const``  constant value
``reg``    register output (current-cycle value, i.e. the ``q`` pin)
``not``    bitwise complement
``and``    bitwise AND (2 args, equal widths)
``or``     bitwise OR
``xor``    bitwise XOR
``add``    modular addition
``sub``    modular subtraction
``mul``    modular multiplication (result truncated to operand width)
``eq``     equality, 1-bit result
``ult``    unsigned less-than, 1-bit result
``shl``    logical shift left by constant amount
``shr``    logical shift right by constant amount
``mux``    2:1 multiplexer: ``mux(sel, a, b)`` is ``a`` when sel else ``b``
``concat`` bit concatenation; args listed most-significant first
``slice``  bit slice ``[lo, lo+width)``
``redor``  reduction OR, 1-bit result
``redand`` reduction AND, 1-bit result
========== =========================================================

Widths are checked strictly at construction time; use :func:`zext`,
:func:`sext` and :func:`trunc` for explicit width conversion.
"""

from __future__ import annotations

__all__ = [
    "Node",
    "WidthError",
    "mux",
    "cat",
    "zext",
    "sext",
    "trunc",
    "redor",
    "redand",
]


class WidthError(ValueError):
    """Raised when operand widths are inconsistent."""


_COMMUTATIVE = frozenset({"and", "or", "xor", "add", "mul", "eq"})

# ops whose result width equals the operand width
_SAME_WIDTH_BINOPS = frozenset({"and", "or", "xor", "add", "sub", "mul"})
_BOOL_BINOPS = frozenset({"eq", "ult"})


class Node:
    """One node of the word-level expression DAG.

    Nodes must be created through a :class:`repro.rtl.module.Module` (which
    owns the structural-sharing cache), or through the free functions in
    this module which delegate to the module recorded on their operands.
    """

    __slots__ = ("op", "width", "args", "value", "name", "module", "uid")

    def __init__(self, op, width, args=(), value=None, name=None, module=None, uid=None):
        if width <= 0:
            raise WidthError("node width must be positive, got %r" % width)
        self.op = op
        self.width = width
        self.args = tuple(args)
        self.value = value  # const payload, slice lo bit, or shift amount
        self.name = name
        self.module = module
        self.uid = uid

    # -- pretty printing ---------------------------------------------------
    def __repr__(self):
        if self.op == "const":
            return "Const(%d, w=%d)" % (self.value, self.width)
        if self.op in ("input", "reg"):
            return "%s(%s, w=%d)" % (self.op.capitalize(), self.name, self.width)
        return "%s(w=%d, #%s)" % (self.op, self.width, self.uid)

    # -- module plumbing ---------------------------------------------------
    def _mod(self):
        if self.module is None:
            raise ValueError("node %r is not attached to a module" % (self,))
        return self.module

    def _coerce(self, other):
        """Turn a Python int into a constant node of our width."""
        if isinstance(other, Node):
            return other
        if isinstance(other, int):
            return self._mod().const(other, self.width)
        raise TypeError("cannot use %r in an RTL expression" % (other,))

    def _bin(self, op, other):
        other = self._coerce(other)
        return self._mod()._make(op, (self, other))

    # -- operator overloads ------------------------------------------------
    def __and__(self, other):
        return self._bin("and", other)

    def __rand__(self, other):
        return self._bin("and", other)

    def __or__(self, other):
        return self._bin("or", other)

    def __ror__(self, other):
        return self._bin("or", other)

    def __xor__(self, other):
        return self._bin("xor", other)

    def __rxor__(self, other):
        return self._bin("xor", other)

    def __add__(self, other):
        return self._bin("add", other)

    def __radd__(self, other):
        return self._bin("add", other)

    def __sub__(self, other):
        return self._bin("sub", other)

    def __mul__(self, other):
        return self._bin("mul", other)

    def __invert__(self):
        return self._mod()._make("not", (self,))

    def __lshift__(self, amount):
        if not isinstance(amount, int):
            raise TypeError("shift amounts must be constant ints")
        return self._mod()._make("shl", (self,), value=amount)

    def __rshift__(self, amount):
        if not isinstance(amount, int):
            raise TypeError("shift amounts must be constant ints")
        return self._mod()._make("shr", (self,), value=amount)

    def __getitem__(self, idx):
        """Bit-slice.  ``sig[i]`` is bit i; ``sig[lo:hi]`` is bits [lo, hi)."""
        if isinstance(idx, int):
            lo, width = idx, 1
        elif isinstance(idx, slice):
            if idx.step is not None:
                raise WidthError("strided slices are not supported")
            lo = idx.start or 0
            hi = self.width if idx.stop is None else idx.stop
            width = hi - lo
        else:
            raise TypeError("bad slice index %r" % (idx,))
        if lo < 0 or width <= 0 or lo + width > self.width:
            raise WidthError(
                "slice [%d:+%d) out of range for width %d" % (lo, width, self.width)
            )
        return self._mod()._make("slice", (self,), value=lo, width=width)

    # NOTE: == and != keep Python identity semantics so nodes stay hashable;
    # use .eq / .ne for RTL comparison.
    def eq(self, other):
        return self._bin("eq", other)

    def ne(self, other):
        return ~self.eq(other)

    def ult(self, other):
        return self._bin("ult", other)

    def ule(self, other):
        other = self._coerce(other)
        return ~other.ult(self)

    def ugt(self, other):
        other = self._coerce(other)
        return other.ult(self)

    def uge(self, other):
        return ~self.ult(other)

    # -- misc helpers --------------------------------------------------------
    def bool(self):
        """Reduce to a single bit: nonzero test."""
        if self.width == 1:
            return self
        return redor(self)

    def is_const(self):
        return self.op == "const"


def mux(sel, a, b):
    """2:1 mux: returns ``a`` when ``sel`` (1-bit) is true, else ``b``."""
    if not isinstance(sel, Node):
        raise TypeError("mux selector must be a Node")
    m = sel._mod()
    if isinstance(a, int) and isinstance(b, int):
        raise WidthError("mux needs at least one Node data operand")
    if isinstance(a, int):
        a = m.const(a, b.width)
    if isinstance(b, int):
        b = m.const(b, a.width)
    if sel.width != 1:
        sel = sel.bool()
    return m._make("mux", (sel, a, b))


def cat(*parts):
    """Concatenate ``parts`` (most-significant first) into one node."""
    parts = tuple(parts)
    if not parts:
        raise WidthError("cat() needs at least one operand")
    m = parts[0]._mod()
    return m._make("concat", parts)


def zext(node, width):
    """Zero-extend ``node`` to ``width`` bits (no-op when already as wide)."""
    if width < node.width:
        raise WidthError("zext target %d narrower than %d" % (width, node.width))
    if width == node.width:
        return node
    pad = node._mod().const(0, width - node.width)
    return cat(pad, node)


def sext(node, width):
    """Sign-extend ``node`` to ``width`` bits."""
    if width < node.width:
        raise WidthError("sext target %d narrower than %d" % (width, node.width))
    if width == node.width:
        return node
    sign = node[node.width - 1]
    pad_parts = [sign] * (width - node.width)
    return cat(*(pad_parts + [node]))


def trunc(node, width):
    """Truncate ``node`` to its low ``width`` bits."""
    if width > node.width:
        raise WidthError("trunc target %d wider than %d" % (width, node.width))
    if width == node.width:
        return node
    return node[0:width]


def redor(node):
    """Reduction OR over all bits of ``node`` (1-bit result)."""
    return node._mod()._make("redor", (node,), width=1)


def redand(node):
    """Reduction AND over all bits of ``node`` (1-bit result)."""
    return node._mod()._make("redand", (node,), width=1)
