"""Trace views and boolean-ops adapters for dual property interpretation.

A *view* exposes the values of named signals at each cycle of a (bounded)
trace.  :class:`ConcreteTraceView` wraps a recorded simulation;
:class:`SymbolicTraceView` wraps the bit-blasted frames of a BMC unrolling.
The matching ops adapters (:class:`ConcreteOps`, :class:`SymbolicOps`)
provide and/or/not in the right domain, so one property definition serves
both the fast enumerative engine and the SAT-backed engine.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = [
    "ConcreteOps",
    "SymbolicOps",
    "ConcreteTraceView",
    "SymbolicTraceView",
]


class ConcreteOps:
    TRUE = True
    FALSE = False

    @staticmethod
    def and_(a, b):
        return a and b

    @staticmethod
    def or_(a, b):
        return a or b

    @staticmethod
    def not_(a):
        return not a


class SymbolicOps:
    """Adapter over a :class:`~repro.solver.bits.BitBuilder`."""

    def __init__(self, builder):
        self.builder = builder
        self.TRUE = builder.TRUE
        self.FALSE = builder.FALSE

    def and_(self, a, b):
        return self.builder.and_(a, b)

    def or_(self, a, b):
        return self.builder.or_(a, b)

    def not_(self, a):
        return -a


class ConcreteTraceView:
    """View over a simulated trace.

    Two storage modes: per-cycle observation *dicts* (convenient), or raw
    observation *tuples* plus a shared name list (compact and fast -- the
    enumerative engine simulates hundreds of thousands of cycles, and dict
    construction would dominate its runtime).  A caller holding many views
    over one layout passes ``names`` together with its ``{name: position}``
    ``index``; the view then shares both instead of building its own.
    """

    def __init__(self, cycles: Sequence, names: Sequence[str] = None,
                 index: Dict[str, int] = None):
        self.cycles = cycles
        if names is not None and index is None:
            names = list(names)
            index = {name: i for i, name in enumerate(names)}
        self.names = names
        self.index = index

    @property
    def horizon(self):
        return len(self.cycles)

    def bit(self, name, t):
        if self.index is not None:
            return bool(self.cycles[t][self.index[name]])
        return bool(self.cycles[t][name])

    def word(self, name, t):
        if self.index is not None:
            return self.cycles[t][self.index[name]]
        return self.cycles[t][name]

    def word_eq_const(self, name, value, t):
        return self.word(name, t) == value

    def as_dicts(self):
        """Materialize per-cycle observation dicts (witness extraction)."""
        if self.index is None:
            return list(self.cycles)
        return [dict(zip(self.names, row)) for row in self.cycles]


class SymbolicTraceView:
    """View over bit-blasted frames (one per cycle)."""

    def __init__(self, frames, builder):
        self.frames = frames
        self.builder = builder

    @property
    def horizon(self):
        return len(self.frames)

    def bit(self, name, t):
        word = self.frames[t].named[name]
        if len(word) == 1:
            return word[0]
        return self.builder.or_many(word)

    def word(self, name, t):
        return self.frames[t].named[name]

    def word_eq_const(self, name, value, t):
        word = self.frames[t].named[name]
        return self.builder.word_eq(word, self.builder.const_word(value, len(word)))
