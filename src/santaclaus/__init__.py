"""Restricted max-min fair allocation: exact oracle, certified 12-approximation pipeline, tooling."""

from .instances import (
    Allocation,
    Instance,
    InstanceFormatError,
    JobSpec,
    OracleBudgetError,
    exact_optimum,
    exact_optimum_with_witness,
    generate_random,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
    verify_allocation,
)
from .configlp import find_T, solve_clp_feasibility
from .pipeline import PipelineError, SolveReport, solve

__all__ = [
    "PipelineError",
    "SolveReport",
    "find_T",
    "solve",
    "solve_clp_feasibility",
    "Allocation",
    "Instance",
    "InstanceFormatError",
    "JobSpec",
    "OracleBudgetError",
    "exact_optimum",
    "exact_optimum_with_witness",
    "generate_random",
    "parse_allocation",
    "parse_instance",
    "serialize_allocation",
    "serialize_instance",
    "verify_allocation",
]
