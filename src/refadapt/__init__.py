"""Many-objective evolutionary optimization with adaptive reference vectors.

Two interacting engines drive the search: cascade-clustering selection
keeps the population evenly spread over a set of reference vectors, and a
layered reference archive densifies ("shrink") or coarsens ("expand")
that set to follow the directional footprint of the tracked Pareto front.
"""

from .adaptation import AdaptationEvent, AdaptationParams, adapt
from .core import associate, nearest, nondominated_split, update_ideal
from .metrics import Trajectory, confidence_trajectory, igd, stability
from .problems import ProblemSpec, available_problems, make_problem
from .reference import (
    ReferenceArchive,
    initial_density,
    lattice_size,
    simplex_lattice,
)
from .runner import ConfigError, ExperimentResult, RunConfig, RunRecord, experiment, maintain, run
from .selection import SelectionResult, cascade_cluster
from .simulate import (
    ArcSegment,
    LineSegment,
    PermutationReport,
    Scenario,
    ScenarioReport,
    default_scenarios,
    load_scenarios,
    partial_arc_scenario,
    permutation_similarity,
    quarter_circle_scenario,
    run_scenario,
)
from .variation import VariationParams, make_offspring, poly_mutate, sbx

__version__ = "0.1.0"

__all__ = [
    "AdaptationEvent",
    "AdaptationParams",
    "ArcSegment",
    "ConfigError",
    "ExperimentResult",
    "LineSegment",
    "PermutationReport",
    "ProblemSpec",
    "ReferenceArchive",
    "RunConfig",
    "RunRecord",
    "Scenario",
    "ScenarioReport",
    "SelectionResult",
    "Trajectory",
    "VariationParams",
    "adapt",
    "associate",
    "available_problems",
    "cascade_cluster",
    "confidence_trajectory",
    "default_scenarios",
    "experiment",
    "igd",
    "initial_density",
    "lattice_size",
    "load_scenarios",
    "maintain",
    "make_offspring",
    "make_problem",
    "nearest",
    "nondominated_split",
    "partial_arc_scenario",
    "permutation_similarity",
    "poly_mutate",
    "quarter_circle_scenario",
    "run",
    "run_scenario",
    "sbx",
    "simplex_lattice",
    "stability",
    "update_ideal",
]
