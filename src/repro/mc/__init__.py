"""Model-checking engines with JasperGold-style verdicts.

Three engines share the :class:`~repro.props.query.Query` interface:

* :class:`EnumerativeEngine` -- exhaustive simulation of a finite context
  family (fast path; sound and complete within the family);
* :class:`BmcContext` -- SAT-based bounded model checking over a symbolic
  context (one unrolling amortized over many queries);
* :func:`prove_unreachable_kinduction` -- unbounded invariant proofs.

All report the paper's verdict trichotomy: reachable / unreachable /
undetermined.
"""

from .outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult
from .stats import PropertyStats
from .enumerative import Context, EnumerativeEngine, TraceDB, simulate_context
from .bmc import BmcContext, SymbolicContextSpec
from .kinduction import prove_unreachable_kinduction
from .portfolio import PortfolioEngine

__all__ = [
    "REACHABLE",
    "UNDETERMINED",
    "UNREACHABLE",
    "CheckResult",
    "PropertyStats",
    "Context",
    "EnumerativeEngine",
    "TraceDB",
    "simulate_context",
    "BmcContext",
    "SymbolicContextSpec",
    "prove_unreachable_kinduction",
    "PortfolioEngine",
]
