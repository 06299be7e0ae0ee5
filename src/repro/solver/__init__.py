"""SAT solving and bit-blasting: the decision-procedure substrate.

These modules play the role of JasperGold's proof engines in the paper's
toolflow: :mod:`repro.solver.sat` is a CDCL SAT solver,
:mod:`repro.solver.bits` builds hashed gate-level formulas over it, and
:mod:`repro.solver.bitblast` translates elaborated netlists into those
formulas one clock cycle at a time.
"""

from .sat import SAT, UNKNOWN, UNSAT, SatSolver
from .bits import BitBuilder
from .bitblast import Frame, blast_frame, paused_gc

__all__ = [
    "SAT",
    "UNKNOWN",
    "UNSAT",
    "SatSolver",
    "BitBuilder",
    "Frame",
    "blast_frame",
    "paused_gc",
]
