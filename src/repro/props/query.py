"""Verification queries: a cover property plus trace assumptions.

A :class:`Query` is the unit of work handed to a model-checking engine --
the analogue of one auto-generated SVA property file in the paper's flow.
``assumes`` are cycle expressions that must hold at *every* cycle of a
considered trace (SVA ``assume``); ``prop`` is the cover target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .exprs import CycleExpr
from .trace_props import TraceProp

__all__ = ["Query"]


@dataclass
class Query:
    name: str
    prop: TraceProp
    assumes: Tuple[CycleExpr, ...] = ()

    def __post_init__(self):
        self.assumes = tuple(self.assumes)

    def signals(self):
        names = set(self.prop.signals())
        for expr in self.assumes:
            names |= expr.signals()
        return names
