"""Correct-by-construction controller synthesis via dual abstractions.

The library abstracts a discrete-time affine control system into a pair of
finite transition systems (an under- and an over-approximation of its
one-step reachability), solves a GR(1) game on both, and iteratively
refines only the undecided part of the state space until the problem is
proved realizable (with a concrete finite-memory controller), proved
unrealizable, or a budget runs out.
"""

from dualsynth.geometry import (
    Box,
    ControlSystem,
    GeometryError,
    reach_exists_from_point,
    reach_optimistic,
    reach_pessimistic,
)
from dualsynth.partition import (
    PartitionForest,
    Status,
    advance_iteration,
    initial_partition,
    locate,
    split,
)
from dualsynth.abstraction import (
    AbstractionPair,
    EnvAlphabet,
    build_initial,
    reachability_queries_saved,
    refine,
)
from dualsynth.gr1 import (
    GameGraph,
    Gr1Spec,
    RawSpec,
    SpecError,
    StrategyAutomaton,
    check_lasso,
    convert_to_gr1,
    parse_formula,
    solve_game,
    strategy_invariance_check,
)
from dualsynth.engine import (
    ContinuousController,
    EngineOptions,
    SetTriple,
    Verdict,
    classify,
    run,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "Box", "ControlSystem", "GeometryError",
    "reach_exists_from_point", "reach_optimistic", "reach_pessimistic",
    "PartitionForest", "Status", "advance_iteration", "initial_partition",
    "locate", "split",
    "AbstractionPair", "EnvAlphabet", "build_initial", "refine",
    "reachability_queries_saved",
    "GameGraph", "Gr1Spec", "RawSpec", "SpecError", "StrategyAutomaton",
    "check_lasso", "convert_to_gr1", "parse_formula", "solve_game",
    "strategy_invariance_check",
    "ContinuousController", "EngineOptions", "SetTriple", "Verdict",
    "classify", "run", "simulate",
]
