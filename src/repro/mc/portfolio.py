"""Portfolio engine: enumerative first, SAT second.

A commercial property verifier schedules several proof engines per
property; this combinator does the light-weight equivalent for our stack.
Queries are first answered against an exhaustive context family (cheap,
and conclusive when the family is complete); inconclusive verdicts fall
through to the SAT-backed bounded model checker over a symbolic context,
which can both find witnesses outside the family and (under a declared
complete horizon) prove unreachability.
"""

from __future__ import annotations

import time
from typing import Optional

from .. import obs
from ..props.query import Query
from .bmc import BmcContext
from .enumerative import EnumerativeEngine, TraceDB
from .outcomes import UNDETERMINED, CheckResult
from .stats import PropertyStats

__all__ = ["PortfolioEngine"]


class PortfolioEngine:
    """Answer queries with the cheapest engine that is conclusive."""

    name = "portfolio"

    def __init__(
        self,
        tracedb: TraceDB,
        bmc: Optional[BmcContext] = None,
        stats: Optional[PropertyStats] = None,
    ):
        self.enumerative = EnumerativeEngine(tracedb)
        self.bmc = bmc
        self.stats = stats

    def check(self, query: Query) -> CheckResult:
        with obs.span("mc.check", engine=self.name, query=query.name) as sp:
            started = time.perf_counter()
            first = self.enumerative.check(query)
            result = first
            if first.outcome == UNDETERMINED and self.bmc is not None:
                second = self.bmc.check(query)
                # the symbolic engine can upgrade an inconclusive verdict either
                # way; keep the stronger of the two
                if second.outcome != UNDETERMINED:
                    result = second
            elapsed = time.perf_counter() - started
            result = CheckResult(
                query_name=query.name,
                outcome=result.outcome,
                engine="%s->%s" % (self.name, result.engine),
                witness=result.witness,
                time_seconds=elapsed,
                detail=result.detail,
                depth=result.depth,
                solver=result.solver,
            )
            sp.set("outcome", result.outcome)
            if self.stats is not None:
                self.stats.record(result)
                obs.note_property(result.outcome, elapsed)
            return result
