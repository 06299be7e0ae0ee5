"""repro.fuzz: differential + metamorphic fuzzing with shrinking.

The subsystem has four layers, each usable on its own:

* :mod:`repro.fuzz.gen` -- seeded generators (combinational expressions
  and sequential :class:`~repro.fuzz.gen.DesignSpec` recipes) paired
  with independent reference evaluators;
* :mod:`repro.fuzz.oracle` -- the cross-engine differential oracle over
  the paper's REACHABLE/UNREACHABLE/UNDETERMINED verdict lattice;
* :mod:`repro.fuzz.metamorphic` -- verdict-preserving netlist transforms
  and canonical serializers for invariance testing;
* :mod:`repro.fuzz.shrink` -- greedy delta-debugging of failing specs
  down to corpus-sized reproducers;
* :mod:`repro.fuzz.campaign` -- the budgeted fuzz loop behind
  ``python -m repro fuzz``.
"""

from .campaign import (
    CampaignConfig,
    CampaignResult,
    run_campaign,
)
from .gen import (
    MASK,
    WIDTH,
    DesignSpec,
    GeneratedDesign,
    GenProfile,
    RefModel,
    build_design,
    build_random_expr,
    sample_spec,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
)
from .oracle import (
    CHECK_KINDS,
    Disagreement,
    OracleConfig,
    OracleReport,
    check_design,
)
from .shrink import ddmin_chunks, shrink_sequence, shrink_spec

__all__ = [
    "MASK",
    "WIDTH",
    "DesignSpec",
    "GeneratedDesign",
    "GenProfile",
    "RefModel",
    "build_design",
    "build_random_expr",
    "sample_spec",
    "spec_from_dict",
    "spec_from_json",
    "spec_to_dict",
    "spec_to_json",
    "CHECK_KINDS",
    "Disagreement",
    "OracleConfig",
    "OracleReport",
    "check_design",
    "shrink_spec",
    "shrink_sequence",
    "ddmin_chunks",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
]
