"""Bit-level circuit construction over a SAT solver.

:class:`BitBuilder` provides AND/OR/XOR/ITE gates that emit Tseitin clauses
into a :class:`~repro.solver.sat.SatSolver` on the fly, with structural
hashing and constant folding, so equivalent gates share one variable and
concrete logic (e.g. the reset-state portion of an unrolled trace)
disappears entirely.  Negation is free (literal sign flip).

The two pseudo-literals ``TRUE`` and ``FALSE`` are backed by a dedicated
variable asserted at the root level.
"""

from __future__ import annotations

from typing import Dict, List

from .sat import SatSolver

__all__ = ["BitBuilder"]


class BitBuilder:
    """Gate-level formula builder with sharing."""

    def __init__(self, solver: SatSolver):
        self.solver = solver
        true_var = solver.new_var()
        solver.add_clause([true_var])
        self.TRUE = true_var
        self.FALSE = -true_var
        # gate caches keyed by (smaller << 32) + larger literal: an int
        # key hashes to itself, which beats allocating and hashing a
        # tuple on every gate request (injective while |literal| < 2**31)
        self._and_cache: Dict[int, int] = {}
        self._xor_cache: Dict[int, int] = {}

    def new_bit(self) -> int:
        return self.solver.new_var()

    # ------------------------------------------------------------------ gates
    def and_(self, a: int, b: int) -> int:
        if a == self.FALSE or b == self.FALSE or a == -b:
            return self.FALSE
        if a == self.TRUE:
            return b
        if b == self.TRUE or a == b:
            return a
        key = (a << 32) + b if a < b else (b << 32) + a
        out = self._and_cache.get(key)
        if out is None:
            out = self.solver.new_and_gate(a, b)
            self._and_cache[key] = out
        return out

    def or_(self, a: int, b: int) -> int:
        return -self.and_(-a, -b)

    def not_(self, a: int) -> int:
        return -a

    def xor_(self, a: int, b: int) -> int:
        if a == self.FALSE:
            return b
        if b == self.FALSE:
            return a
        if a == self.TRUE:
            return -b
        if b == self.TRUE:
            return -a
        if a == b:
            return self.FALSE
        if a == -b:
            return self.TRUE
        # canonicalize: positive smaller literal first, fold polarity out
        negate = False
        if a < 0:
            a, negate = -a, not negate
        if b < 0:
            b, negate = -b, not negate
        key = (a << 32) + b if a < b else (b << 32) + a
        out = self._xor_cache.get(key)
        if out is None:
            out = self.solver.new_xor_gate(a, b)
            self._xor_cache[key] = out
        return -out if negate else out

    def ite(self, sel: int, a: int, b: int) -> int:
        """``sel ? a : b``."""
        if sel == self.TRUE:
            return a
        if sel == self.FALSE:
            return b
        if a == b:
            return a
        if a == self.TRUE:
            return self.or_(sel, b)
        if a == self.FALSE:
            return self.and_(-sel, b)
        if b == self.TRUE:
            return self.or_(-sel, a)
        if b == self.FALSE:
            return self.and_(sel, a)
        if a == -b:
            # sel ? a : not(a)  ==  xnor(sel, a)  ==  xor(sel, b)
            return self.xor_(sel, b)
        return self.or_(self.and_(sel, a), self.and_(-sel, b))

    # -------------------------------------------------------------- vectors
    def and_many(self, lits: List[int]) -> int:
        out = self.TRUE
        for lit in lits:
            out = self.and_(out, lit)
        return out

    def or_many(self, lits: List[int]) -> int:
        out = self.FALSE
        for lit in lits:
            out = self.or_(out, lit)
        return out

    def const_word(self, value: int, width: int) -> List[int]:
        return [self.TRUE if (value >> i) & 1 else self.FALSE for i in range(width)]

    def fresh_word(self, width: int) -> List[int]:
        return [self.new_bit() for _ in range(width)]

    def word_and(self, a, b):
        return [self.and_(x, y) for x, y in zip(a, b)]

    def word_or(self, a, b):
        return [self.or_(x, y) for x, y in zip(a, b)]

    def word_xor(self, a, b):
        return [self.xor_(x, y) for x, y in zip(a, b)]

    def word_not(self, a):
        return [-x for x in a]

    def word_add(self, a, b, carry_in=None):
        carry = carry_in if carry_in is not None else self.FALSE
        out = []
        for x, y in zip(a, b):
            s = self.xor_(self.xor_(x, y), carry)
            carry = self.or_(self.and_(x, y), self.and_(carry, self.xor_(x, y)))
            out.append(s)
        return out

    def word_sub(self, a, b):
        return self.word_add(a, self.word_not(b), carry_in=self.TRUE)

    def word_mul(self, a, b):
        width = len(a)
        acc = self.const_word(0, width)
        for i, bit in enumerate(b):
            partial = [self.FALSE] * i + [self.and_(bit, x) for x in a[: width - i]]
            acc = self.word_add(acc, partial)
        return acc

    def word_eq(self, a, b) -> int:
        return self.and_many([-self.xor_(x, y) for x, y in zip(a, b)])

    def word_ult(self, a, b) -> int:
        """Unsigned a < b: borrow-out of a - b."""
        borrow = self.FALSE
        for x, y in zip(a, b):
            # borrow' = (~x & y) | (~(x ^ y) & borrow)
            borrow = self.or_(
                self.and_(-x, y), self.and_(-self.xor_(x, y), borrow)
            )
        return borrow

    def word_ite(self, sel, a, b):
        return [self.ite(sel, x, y) for x, y in zip(a, b)]

    def word_value(self, word: List[int]) -> int:
        """Read a word back from the solver model (after SAT)."""
        value = 0
        for i, lit in enumerate(word):
            var = abs(lit)
            bit = self.solver.model_value(var)
            if lit < 0:
                bit = not bit
            if bit:
                value |= 1 << i
        return value
