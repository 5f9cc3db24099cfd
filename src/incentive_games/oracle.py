"""Brute-force cross-checks for the game solvers.

Each oracle recomputes a quantity by a deliberately different route — explicit
vertex enumeration and evaluation instead of simplex optimization, exhaustive
pair bracketing instead of the hull walk, Monte-Carlo playouts instead of
closed forms — so agreement is evidence, not tautology. They share only the
raw vertex enumerator with the solvers, never the minimization logic.

Default Monte-Carlo seed is fixed (and recorded in every report) so the
verification suite is reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from incentive_games.belief_engine import (
    as_probability,
    lower_convex_envelope,
    tilde_entropy,
)
from incentive_games.lp_kernel import Polytope, enumerate_vertices
from incentive_games.matrix_games import (
    CostTable,
    solve_g2,
    solve_g3,
    solve_g4,
    value_curves,
)
from incentive_games.qg_games import (
    QGParams,
    qg_g1,
    qg_g2,
    qg_g4_cost,
    qg_g4_optimize,
)

DEFAULT_SEED = 20250817
_TIE = 1e-9


@dataclass(frozen=True)
class OracleReport:
    quantity: str
    solver_value: float
    oracle_value: float
    tolerance: float
    seed: int | None = None
    passed: bool = field(init=False)

    def __post_init__(self):
        ok = abs(self.solver_value - self.oracle_value) <= self.tolerance
        object.__setattr__(self, "passed", bool(ok))


# ---------------------------------------------------------------------------
# matrix-game oracles
# ---------------------------------------------------------------------------


def _favorable_evaluation(table: CostTable, scheme: np.ndarray, mu: float) -> float:
    """Expected principal cost of a fixed scheme when the agent picks its
    cheapest column per state and breaks ties in the principal's favor."""
    total = 0.0
    for state, weight in ((0, mu), (1, 1.0 - mu)):
        agent = np.array([scheme[:, l] @ table.ca[state][:, l] for l in range(table.n)])
        tied = np.flatnonzero(agent <= agent.min() + _TIE)
        total += weight * min(
            float(scheme[:, l] @ table.cp[state][:, l]) for l in tied
        )
    return total


def oracle_g2_by_enumeration(table: CostTable, belief) -> float:
    """Recompute the g2 value without any optimization: enumerate every
    vertex of every response-pair polytope and evaluate each directly."""
    mu = as_probability(belief)
    m, n = table.m, table.n
    eye = np.eye(n)
    simplex_rows = np.kron(eye, np.ones(m))
    best = math.inf
    for i in range(n):
        for j in range(n):
            rows = []
            for state, rec in ((0, i), (1, j)):
                ca = table.ca[state]
                for alt in range(n):
                    if alt != rec:
                        rows.append(np.kron(eye[rec], ca[:, rec]) - np.kron(eye[alt], ca[:, alt]))
            poly = Polytope(
                dim=m * n,
                constraint_matrix=np.array(rows),
                rhs=np.zeros(len(rows)),
                equality_matrix=simplex_rows,
                equality_rhs=np.ones(n),
            )
            for x in enumerate_vertices(poly):
                gamma = x.reshape(n, m).T
                best = min(best, _favorable_evaluation(table, gamma, mu))
    if math.isinf(best):
        raise RuntimeError("no feasible response pair found by enumeration")
    return best


def oracle_envelope_by_pairs(xs, ys, query: float) -> float:
    """Lower convex envelope at one point the slow way: try every pair of
    sample points bracketing the query and take the cheapest plausible
    two-atom mixture (single atoms included when the query is on the grid)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    q = float(query)
    left = np.flatnonzero(xs <= q)
    right = np.flatnonzero(xs >= q)
    if left.size == 0 or right.size == 0:
        raise ValueError("query outside the sampled range")
    best = math.inf
    hits = np.flatnonzero(xs == q)
    if hits.size:
        best = float(ys[hits].min())
    xl, yl = xs[left][:, None], ys[left][:, None]
    xr, yr = xs[right][None, :], ys[right][None, :]
    span = xr - xl
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (xr - q) / span
        mixed = lam * yl + (1.0 - lam) * yr
    strict = span > 0.0
    if np.any(strict):
        best = min(best, float(mixed[strict].min()))
    return best


def verify_matrix(table: CostTable, prior, grid_size: int = 2001, kappa: float | None = None) -> list[OracleReport]:
    """Cross-check every matrix solver on one table: g2 against enumeration
    at several beliefs, the hull walk against pair bracketing, persuasion
    against the envelope theorem, and acquisition against an independently
    assembled envelope."""
    mu = as_probability(prior)
    reports = []

    beliefs = sorted({0.0, 0.25, 0.5, 0.75, 1.0, mu})
    for b in beliefs:
        reports.append(
            OracleReport(
                quantity=f"g2 principal value at belief {b:g}",
                solver_value=solve_g2(table, b).principal_cost,
                oracle_value=oracle_g2_by_enumeration(table, b),
                tolerance=1e-8,
            )
        )

    xs, jp, ja = value_curves(table, grid_size)
    hull = lower_convex_envelope(ja, mu, grid_size=grid_size)
    reports.append(
        OracleReport(
            quantity="agent-curve envelope at the prior",
            solver_value=hull.value,
            oracle_value=oracle_envelope_by_pairs(xs, ja, mu),
            tolerance=1e-10,
        )
    )
    if 0.0 < mu < 1.0:
        lipschitz = float(np.max(np.abs(np.diff(ja)))) * (grid_size - 1)
        reports.append(
            OracleReport(
                quantity="persuasion value vs envelope",
                solver_value=solve_g3(table, mu).agent_cost,
                oracle_value=hull.value,
                tolerance=2.0 * lipschitz / grid_size,
            )
        )
        if kappa is not None and kappa >= 0.0:
            net = jp - kappa * tilde_entropy(xs, mu)
            reports.append(
                OracleReport(
                    quantity=f"acquisition total at kappa={kappa:g}",
                    solver_value=solve_g4(table, mu, kappa, grid_size).total_cost,
                    oracle_value=oracle_envelope_by_pairs(xs, net, mu) + kappa,
                    tolerance=1e-9,
                )
            )
    return reports


# ---------------------------------------------------------------------------
# quadratic-Gaussian oracles
# ---------------------------------------------------------------------------


def _playout(p: QGParams, game: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """Realized principal costs when everyone follows the committed affine
    policy and the agent best-responds via its own first-order condition."""
    theta = p.z0 + math.sqrt(p.sigma0_sq) * rng.standard_normal(n)
    pol = qg_g2(p).policy
    constant = 0.0
    if game == "G1":
        anchor = theta
    elif game == "G2":
        anchor = p.z0
    elif game == "G4":
        if not math.isfinite(p.sigma_w_sq):
            raise ValueError("G4 playout needs a finite channel variance")
        noise = math.sqrt(p.sigma_w_sq) * rng.standard_normal(n)
        anchor = (p.sigma_w_sq * p.z0 + p.sigma0_sq * (theta + noise)) / (
            p.sigma0_sq + p.sigma_w_sq
        )
        constant = 0.5 * p.kappa * math.log1p(1.0 / p.sigma_w_sq)
    else:
        raise ValueError(f"no playout for game {game!r}")
    intercept = pol.intercept_slope * anchor
    slope = 1.0 + pol.q
    v = slope * (theta - intercept) / (slope * slope + 1.0)  # agent FOC
    u = pol.q * v + intercept
    return (theta - u - v) ** 2 + 2.0 * u ** 2 + p.beta * v ** 2 + constant


def oracle_qg_montecarlo(
    p: QGParams, game: str, n_samples: int = 1_000_000, seed: int = DEFAULT_SEED
) -> OracleReport:
    """Average realized costs over sampled states (and channel noise for G4)
    and compare with the closed form at four standard errors."""
    if game == "G1":
        solver = qg_g1(p).principal_cost
    elif game == "G2":
        solver = qg_g2(p).principal_cost
    elif game == "G4":
        solver = qg_g4_cost(p, p.sigma_w_sq)
    else:
        raise ValueError(f"no Monte-Carlo oracle for game {game!r}")
    rng = np.random.default_rng(seed)
    costs = _playout(p, game, rng, n_samples)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1)) / math.sqrt(n_samples)
    return OracleReport(
        quantity=f"{game} expected principal cost",
        solver_value=solver,
        oracle_value=mean,
        tolerance=4.0 * stderr + 1e-12 * (1.0 + abs(solver)),
        seed=seed,
    )


def verify_qg(p: QGParams, n_samples: int = 1_000_000, seed: int = DEFAULT_SEED) -> list[OracleReport]:
    """Monte-Carlo checks for the closed forms plus a dense-grid check of the
    channel optimizer."""
    reports = [
        oracle_qg_montecarlo(p, "G1", n_samples, seed),
        oracle_qg_montecarlo(p, "G2", n_samples, seed),
    ]
    g4_params = p
    if not math.isfinite(p.sigma_w_sq):
        g4_params = QGParams(p.beta, p.z0, p.sigma0_sq, p.kappa, sigma_w_sq=1.0)
    reports.append(oracle_qg_montecarlo(g4_params, "G4", n_samples, seed))

    # dense sweep of the printed cost expression, assembled independently
    grid = np.logspace(-6.0, 6.0, 100_001)
    b, z, s0, k = p.beta, p.z0, p.sigma0_sq, p.kappa
    mean_var = s0 * s0 / (s0 + grid)
    residual = s0 * grid / (s0 + grid)
    w = b * b
    curve = (
        2.0 * b * (z * z + mean_var) / (3.0 * b + 2.0)
        + 0.5 * k * np.log1p(1.0 / grid)
        + (w * w + w * b + 2.0 * w - 4.0 * b + 2.0) / (w + 1.0) ** 2 * residual
    )
    no_acquisition = qg_g2(p).principal_cost
    dense_best = float(curve.min())
    opt = qg_g4_optimize(p)
    if math.isfinite(opt.channel) and dense_best < no_acquisition:
        reports.append(
            OracleReport(
                quantity="g4 channel argmin (log10)",
                solver_value=math.log10(opt.channel),
                oracle_value=math.log10(float(grid[np.argmin(curve)])),
                tolerance=1e-4,
                seed=seed,
            )
        )
    reports.append(
        OracleReport(
            quantity="g4 optimized total",
            solver_value=opt.principal_cost,
            oracle_value=min(dense_best, no_acquisition),
            tolerance=1e-6,
            seed=seed,
        )
    )
    return reports
