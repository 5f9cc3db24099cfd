"""Equilibrium solvers for principal-agent incentive-design games.

Two families of games are covered, each under four information regimes
(full information, Bayesian asymmetry, agent-driven persuasion, and costly
information acquisition):

- two-state finite matrix games, solved exactly by linear programming and
  grid concavification;
- a scalar quadratic-Gaussian game, solved in closed form.

Brute-force oracles in :mod:`incentive_games.oracle` independently verify
every analytic result at desk scale.
"""

from incentive_games.belief_engine import (
    PosteriorSplit,
    envelope_from_samples,
    lower_hull_indices,
    tilde_entropy,
)
from incentive_games.lp_kernel import (
    LinearProgram,
    LpSolution,
    LpStatus,
    Polytope,
    lexicographic_argmin,
    parametric_walk,
    solve_lp,
)
from incentive_games.matrix_games import (
    AcquisitionReport,
    CostTable,
    EquilibriumReport,
    IncentiveScheme,
    PersuasionReport,
    SolverError,
    agent_value_curve,
    principal_value_curve,
    solve_g1,
    solve_g2,
    solve_g3,
    solve_g4,
    value_curves,
)
from incentive_games.oracle import (
    OracleReport,
    collect_xi,
    enumerate_bounded_vertices,
    enumerate_vertices,
    oracle_envelope_by_pairs,
    oracle_g2_by_enumeration,
    oracle_g3_by_obedience,
    oracle_qg_montecarlo,
    verify_matrix,
    verify_qg,
)
from incentive_games.qg_games import (
    QGParams,
    QGReport,
    disclosure_coefficient,
    qg_g1,
    qg_g2,
    qg_g3,
    qg_g4_cost,
    qg_g4_optimize,
)
from incentive_games.scenarios import Scenario, ScenarioError, load_scenario

__all__ = [
    "AcquisitionReport",
    "CostTable",
    "EquilibriumReport",
    "IncentiveScheme",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "OracleReport",
    "PersuasionReport",
    "Polytope",
    "PosteriorSplit",
    "QGParams",
    "QGReport",
    "Scenario",
    "ScenarioError",
    "SolverError",
    "agent_value_curve",
    "collect_xi",
    "disclosure_coefficient",
    "enumerate_bounded_vertices",
    "enumerate_vertices",
    "envelope_from_samples",
    "lexicographic_argmin",
    "lower_hull_indices",
    "oracle_envelope_by_pairs",
    "oracle_g2_by_enumeration",
    "oracle_g3_by_obedience",
    "oracle_qg_montecarlo",
    "parametric_walk",
    "principal_value_curve",
    "qg_g1",
    "qg_g2",
    "qg_g3",
    "qg_g4_cost",
    "qg_g4_optimize",
    "solve_g1",
    "solve_g2",
    "solve_g3",
    "solve_g4",
    "solve_lp",
    "tilde_entropy",
    "value_curves",
    "verify_matrix",
    "verify_qg",
]

__version__ = "0.1.0"
