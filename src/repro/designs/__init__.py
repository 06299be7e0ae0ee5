"""Case-study designs: the CVA6-like core, variants, and the data cache."""

from . import isa
from .core import CoreConfig, CoreDesign, build_core
from .variants import build_cva6_mul, build_cva6_op, build_fixed_core, oppack_context, OpPackConfig
from .cache import CacheConfig, CacheContextProvider, CacheDesign, build_cache, cache_context
from .harness import (
    ContextFamilyConfig,
    ContextGroup,
    CoreContextProvider,
    OPERAND_CLASSES,
    ProgramRun,
    STRAIGHT_LINE_POOL,
    TaintSpec,
    golden_model,
    golden_steps,
    program_context,
    run_program,
    sample_sequence,
    slot_pc,
)

__all__ = [
    "isa",
    "CoreConfig",
    "CoreDesign",
    "build_core",
    "build_cva6_mul",
    "build_cva6_op",
    "build_fixed_core",
    "OpPackConfig",
    "oppack_context",
    "CacheConfig",
    "CacheContextProvider",
    "CacheDesign",
    "build_cache",
    "cache_context",
    "ContextFamilyConfig",
    "ContextGroup",
    "CoreContextProvider",
    "TaintSpec",
    "program_context",
    "slot_pc",
    "STRAIGHT_LINE_POOL",
    "OPERAND_CLASSES",
    "golden_model",
    "golden_steps",
    "ProgramRun",
    "run_program",
    "sample_sequence",
]
