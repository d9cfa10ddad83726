"""Message-passing solvers for sparse linear systems Ax = b.

The package simulates synchronous distributed solvers (a Gaussian
belief-propagation-style scheme for asymmetric matrices, Jacobi, and a
projection-consensus baseline), analyzes when the walk-sum series behind
them converges, and ships independent oracles that cross-check every
claimed identity against direct linear algebra.

Importing the package loads numpy only: each scipy module is imported
inside the functions that use it, so a command pays for the part of
scipy it runs.
"""
from .analysis import (DominanceReport, analyze, find_gdd_scaling,
                       is_diagonally_dominant, residual_matrix,
                       spectral_radius_nonneg)
from .core import (GeneratorSpec, SparseSystem, UndirectedGraph,
                   bfs_distances, connected_components, diameter,
                   generate_instance, induced_graph, is_acyclic,
                   system_from_edges)
from .engine import (ConvergenceTrace, NodeProgram, RoundAccounting,
                     SolverFault, TraceRound, delta_stop, run_rounds)
from .errors import (CyclicGraphError, DimensionMismatchError,
                     DivergedEstimateError, MissingDiagonalError,
                     NoConvergenceError, NotAnEdgeError, NotWalkSummableError,
                     NotWalkSummableWarning, ParseError,
                     ProtocolViolationError, SingularMatrixError,
                     SingularMessageError, SolverError, TooLargeError,
                     WalksolveError, ZeroRowError)
from .mmio import (load_system, read_matrix_market, read_rhs,
                   write_matrix_market, write_rhs)
from .oracle import (UnwrappedCheck, UnwrappedTree, Walk, message_oracle,
                     partial_walk_sum, restricted_subgraph, unwrap_tree,
                     unwrapped_equivalence_check, unwrapped_system,
                     walk_weight)
from .solvers import (BPProgram, ConsensusProgram, JacobiProgram, bp_solve,
                      dense_solve, gauss_seidel_sweep)
from .verify import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "BPProgram", "CheckResult", "ConsensusProgram", "ConvergenceTrace",
    "CyclicGraphError", "DimensionMismatchError", "DivergedEstimateError",
    "DominanceReport", "GeneratorSpec", "JacobiProgram",
    "MissingDiagonalError", "NoConvergenceError", "NodeProgram",
    "NotAnEdgeError", "NotWalkSummableError", "NotWalkSummableWarning",
    "ParseError", "ProtocolViolationError", "RoundAccounting",
    "SingularMatrixError", "SingularMessageError", "SolverError",
    "SolverFault", "SparseSystem", "TooLargeError", "TraceRound",
    "UndirectedGraph", "UnwrappedCheck", "UnwrappedTree", "Walk",
    "WalksolveError", "ZeroRowError", "analyze", "bfs_distances", "bp_solve",
    "connected_components", "delta_stop", "dense_solve", "diameter",
    "find_gdd_scaling", "gauss_seidel_sweep", "generate_instance",
    "induced_graph", "is_acyclic", "is_diagonally_dominant", "load_system",
    "message_oracle", "partial_walk_sum", "read_matrix_market", "read_rhs",
    "residual_matrix", "restricted_subgraph", "run_all_checks", "run_rounds",
    "spectral_radius_nonneg", "system_from_edges", "unwrap_tree",
    "unwrapped_equivalence_check", "unwrapped_system", "walk_weight",
    "write_matrix_market", "write_rhs",
]
