"""Hardware side-channel safety (Definition V.1) as an executable oracle.

The paper's security argument states that SynthLC's leakage signatures
capture *all* violations of SC-Safe(M, R_uPATH), where the receiver
R_uPATH observes the PLs occupied by in-flight instructions each cycle.
This module makes the definition executable on our designs:

* :class:`UPathReceiver` -- the R_uPATH observer: per-cycle multisets of
  occupied PLs (with occupying-instruction identity erased, since the
  attacker sees resource usage, not tags);
* :func:`check_sc_safe` -- runs one program from pairs of low-equivalent
  architectural states and compares observation traces; any mismatch is
  an SC-Safe violation witness;
* :func:`violation_explained_by_signatures` -- checks that a violation's
  diverging instruction is accounted for by some synthesized leakage
  signature (the empirical counterpart of the paper's completeness proof).

This is the cross-check the test-suite uses to validate SynthLC end to
end: programs that keep secrets away from CT-contract unsafe operands
produce identical observation traces; programs that feed a secret to a
transmitter's unsafe operand produce detectably different ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence

from ..designs.harness import program_context
from ..mc.enumerative import simulate_context
from ..sim.simulator import Simulator
from .pl import DesignMetadata

__all__ = [
    "UPathReceiver",
    "Observation",
    "ScSafeViolation",
    "check_sc_safe",
    "violation_explained_by_signatures",
]


class UPathReceiver:
    """R_uPATH: observes which PLs are occupied in each cycle.

    Reads the stimulus loop's rows over ``observable_names``: each
    slot's occupancy column is resolved once, here.
    """

    def __init__(self, metadata: DesignMetadata, observable_names: Sequence[str]):
        index = {name: i for i, name in enumerate(observable_names)}
        self._columns = [
            ("%s#%s" % (name, slot.occ_signal), index[slot.occ_signal])
            for name, pl in metadata.pls.items()
            for slot in pl.slots
        ]

    def observe(self, row: Sequence[int]) -> FrozenSet[str]:
        """One cycle's observation: the set of occupied PL slots."""
        return frozenset(label for label, column in self._columns if row[column])


@dataclass(frozen=True)
class ScSafeViolation:
    """A witness that SC-Safe(M, R) fails for this program & policy."""

    secret_register: str
    value_a: int
    value_b: int
    first_divergence_cycle: int
    observation_a: FrozenSet[str]
    observation_b: FrozenSet[str]

    def diverging_pls(self) -> FrozenSet[str]:
        sym_diff = self.observation_a ^ self.observation_b
        return frozenset(entry.split("#")[0] for entry in sym_diff)


def _observation_trace(netlist, metadata, program, overrides, horizon):
    sim = Simulator(netlist)
    receiver = UPathReceiver(metadata, sim.observable_names)
    context = program_context([("feed", tuple(program))], overrides, horizon=horizon)
    return [receiver.observe(row) for row in simulate_context(sim, context)]


def check_sc_safe(
    design,
    program: Sequence[int],
    secret_registers: Sequence[str],
    public_overrides: Optional[Dict[str, int]] = None,
    secret_values: Sequence[int] = (0, 1, 3, 8, 128, 255),
    horizon: int = 48,
) -> Optional[ScSafeViolation]:
    """Check Eq. V.1 for one straight-line program.

    All registers outside ``secret_registers`` are fixed by
    ``public_overrides`` (low-equivalence); secret registers sweep over
    pairs from ``secret_values``.  Returns the first violation found, or
    None when every pair yields identical observation traces.
    """
    public_overrides = dict(public_overrides or {})
    netlist = design.netlist
    metadata = design.metadata
    for register in secret_registers:
        baseline = None
        for value in secret_values:
            overrides = dict(public_overrides)
            overrides[register] = value
            trace = _observation_trace(netlist, metadata, program, overrides, horizon)
            if baseline is None:
                baseline = (value, trace)
                continue
            base_value, base_trace = baseline
            for cycle, (obs_a, obs_b) in enumerate(zip(base_trace, trace)):
                if obs_a != obs_b:
                    return ScSafeViolation(
                        secret_register=register,
                        value_a=base_value,
                        value_b=value,
                        first_divergence_cycle=cycle,
                        observation_a=obs_a,
                        observation_b=obs_b,
                    )
    return None


def violation_explained_by_signatures(violation: ScSafeViolation, signatures) -> bool:
    """Is the violation accounted for by a synthesized leakage signature?

    True when some signature's decision source or destination PLs
    intersect the PLs that diverged in the violation witness -- the
    empirical form of the paper's claim that the signature set captures
    all SC-Safe violations under R_uPATH.
    """
    diverged = violation.diverging_pls()
    for signature in signatures:
        touched = {signature.src}
        for dst in signature.destinations:
            touched |= set(dst)
        if touched & diverged:
            return True
    return False
