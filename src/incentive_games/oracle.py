"""Brute-force cross-checks for the game solvers.

Each oracle recomputes a quantity by a deliberately different route — explicit
vertex enumeration and evaluation instead of simplex optimization, exhaustive
pair bracketing instead of the hull walk, the obedience LP instead of the
g3 hull, Monte-Carlo playouts instead of closed forms — so agreement is
evidence, not tautology. They share only the raw vertex enumerator and the
simplex kernel with the solvers, never the g2 or g3 decision logic.

Default Monte-Carlo seed is fixed (and recorded in every report) so the
verification suite is reproducible run to run.

The two brute-force kernels never hold a full-size temporary array:

- The pair oracle walks the left-hand samples in blocks of `_PAIR_ROWS`
  rows. Each pair's weight and mixture use the same formula as one big
  left-by-right array would, and a minimum over blocks equals the minimum
  over all pairs, so the value is the same bit for bit.
- The Monte-Carlo games G1, G2 and G4 use one seed, so their state draws are
  the same samples. `verify_qg` draws them once, then the G4 channel noise
  from the same generator: the stream each `oracle_qg_montecarlo` call draws
  alone. The playout fills one cost buffer in blocks of `_MC_BLOCK` samples
  (G4 writes its costs over the noise), and the mean and standard deviation
  are taken over the whole buffer, so every report equals the per-game call
  field for field. The draws are shared only among the oracle's own games,
  so the oracle stays independent of the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from incentive_games.belief_engine import (
    as_probability,
    envelope_from_samples,
    tilde_entropy,
)
from incentive_games.lp_kernel import (
    LinearProgram,
    Polytope,
    SolverError,
    enumerate_vertices,
    solve_lp,
)
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
# left-hand samples per block of the pair oracle: 32 x 2,001 pairs, 512 kB
# per temporary
_PAIR_ROWS = 32
# samples per block of a Monte-Carlo playout, 128 kB per temporary
_MC_BLOCK = 16_384


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


def _oracle_vertices(table: CostTable) -> list[tuple[int, int, np.ndarray]]:
    """(i, j, scheme) for every vertex of every response-pair polytope,
    built and enumerated here rather than read from the solver's cache."""
    m, n = table.m, table.n
    eye = np.eye(n)
    simplex_rows = np.kron(eye, np.ones(m))
    out = []
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
            out.extend((i, j, x.reshape(n, m).T) for x in enumerate_vertices(poly))
    if not out:
        raise RuntimeError("no feasible response pair found by enumeration")
    return out


def _g2_by_evaluation(table: CostTable, vertices, mu: float) -> float:
    return min(_favorable_evaluation(table, gamma, mu) for _, _, gamma in vertices)


def oracle_g2_by_enumeration(table: CostTable, belief) -> float:
    """Recompute the g2 value without any optimization: enumerate every
    vertex of every response-pair polytope and evaluate each directly."""
    return _g2_by_evaluation(table, _oracle_vertices(table), as_probability(belief))


# The obedience LP has one tableau row per (vertex, deviation), and a 3x3 table
# can have hundreds of vertices: gigabytes of dense tableau. Above this many
# cells (rows x (columns + rows), 4 MB) the oracle refuses instead.
_OBEDIENCE_MAX_CELLS = 500_000


def _g3_by_obedience(table: CostTable, vertices, mu: float) -> tuple[float, float]:
    w = np.array([mu, 1.0 - mu])
    principal, agent = np.array([
        [[g[:, i] @ c[0][:, i], g[:, j] @ c[1][:, j]] for i, j, g in vertices]
        for c in (table.cp, table.ca)
    ])
    # Deviations range over the Pareto-minimal distinct principal profiles:
    # the obedience row against a dominated deviation is implied by the row
    # against the deviation that dominates it.
    distinct = np.unique(principal, axis=0)
    deviations = np.array([
        d for d in distinct
        if not np.any(np.all(distinct <= d, axis=1) & np.any(distinct < d, axis=1))
    ])
    n_vert, n_dev = len(vertices), len(deviations)
    n_rows = n_vert * n_dev + 3
    if n_rows * (2 * n_vert + n_rows) > _OBEDIENCE_MAX_CELLS:
        raise SolverError(
            f"oracle_g3_by_obedience: {n_vert} vertices and {n_dev} deviations exceed "
            f"the obedience LP's size limit of {_OBEDIENCE_MAX_CELLS} tableau cells"
        )

    # variable 2v + k is pi(vertex v | state k); row (v, d) keeps the principal
    # from gaining by switching to deviation d when vertex v is recommended
    rows = np.zeros((n_vert, n_dev, n_vert, 2))
    v = np.arange(n_vert)
    rows[v, :, v, :] = w * (principal[:, None, :] - deviations[None, :, :])
    rows = rows.reshape(n_vert * n_dev, 2 * n_vert)
    normalize = np.kron(np.ones(n_vert), np.eye(2))
    agent_obj = (w * agent).reshape(-1)
    stage1 = solve_lp(LinearProgram(
        objective=agent_obj,
        constraint_matrix=rows,
        rhs=np.zeros(len(rows)),
        equality_matrix=normalize,
        equality_rhs=np.ones(2),
    ))
    if not stage1.optimal:
        raise SolverError("oracle_g3_by_obedience: the obedience LP did not solve")
    # stage 2: the least principal cost among agent-optimal policies
    stage2 = solve_lp(LinearProgram(
        objective=(w * principal).reshape(-1),
        constraint_matrix=rows,
        rhs=np.zeros(len(rows)),
        equality_matrix=np.vstack([normalize, agent_obj]),
        equality_rhs=np.array([1.0, 1.0, stage1.value]),
    ))
    if not stage2.optimal:
        raise SolverError("oracle_g3_by_obedience: the tie-break LP did not solve")
    return stage1.value, stage2.value


def oracle_g3_by_obedience(table: CostTable, prior) -> tuple[float, float]:
    """(agent value, principal value) of agent-optimal persuasion from the
    two-stage obedience LP over every vertex of every response-pair polytope:
    pi(v | state) recommends vertex v, no deviation may profit the principal,
    the agent's expected cost is minimized, then the principal's."""
    mu = as_probability(prior)
    if not (0.0 < mu < 1.0):
        raise ValueError("the obedience LP needs an interior prior")
    return _g3_by_obedience(table, _oracle_vertices(table), mu)


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
    xr, yr = xs[right], ys[right]
    ahead = xr - q
    # three block buffers, reused: a fresh 0.5 MB array per block would pay
    # for new pages every time
    shape = (min(_PAIR_ROWS, left.size), right.size)
    span, lam, mixed = np.empty(shape), np.empty(shape), np.empty(shape)
    block_mins = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, left.size, _PAIR_ROWS):
            rows = left[start:start + _PAIR_ROWS]
            s, w, m = span[: rows.size], lam[: rows.size], mixed[: rows.size]
            np.subtract(xr, xs[rows][:, None], out=s)
            np.divide(ahead, s, out=w)
            np.multiply(w, ys[rows][:, None], out=m)
            np.subtract(1.0, w, out=w)
            np.multiply(w, yr, out=w)
            m += w  # lam * yl + (1 - lam) * yr
            strict = s > 0.0
            if strict.all():
                block_mins.append(m.min())
            elif strict.any():
                block_mins.append(m[strict].min())
    if block_mins:
        # np.min, like the minimum over all pairs at once, propagates a nan
        best = min(best, float(np.min(block_mins)))
    return best


def verify_matrix(table: CostTable, prior, grid_size: int = 2001, kappa: float | None = None) -> list[OracleReport]:
    """Cross-check every matrix solver on one table: g2 against enumeration
    at several beliefs, the hull walk against pair bracketing, persuasion
    against the envelope theorem and the obedience LP, and acquisition
    against an independently assembled envelope. The vertices are
    enumerated once and shared by the g2 and obedience oracles."""
    mu = as_probability(prior)
    vertices = _oracle_vertices(table)
    reports = []

    beliefs = sorted({0.0, 0.25, 0.5, 0.75, 1.0, mu})
    for b in beliefs:
        reports.append(
            OracleReport(
                quantity=f"g2 principal value at belief {b:g}",
                solver_value=solve_g2(table, b).principal_cost,
                oracle_value=_g2_by_evaluation(table, vertices, b),
                tolerance=1e-8,
            )
        )

    xs, jp, ja = value_curves(table, grid_size)
    envelope, _ = envelope_from_samples(xs, ja, mu)
    reports.append(
        OracleReport(
            quantity="agent-curve envelope at the prior",
            solver_value=envelope,
            oracle_value=oracle_envelope_by_pairs(xs, ja, mu),
            tolerance=1e-10,
        )
    )
    if 0.0 < mu < 1.0:
        g3 = solve_g3(table, mu)
        agent, principal = _g3_by_obedience(table, vertices, mu)
        lipschitz = float(np.max(np.abs(np.diff(ja)))) * (grid_size - 1)
        for quantity, solver_value, oracle_value, tolerance in (
            ("persuasion value vs envelope", g3.agent_cost, envelope, 2.0 * lipschitz / grid_size),
            ("persuasion agent cost vs obedience LP", g3.agent_cost, agent, 1e-9),
            ("persuasion principal cost vs obedience LP", g3.principal_cost, principal, 1e-9),
        ):
            reports.append(OracleReport(quantity, solver_value, oracle_value, tolerance))
        if kappa is not None and kappa >= 0.0:
            total = jp + kappa * (1.0 - tilde_entropy(xs, mu))
            reports.append(
                OracleReport(
                    quantity=f"acquisition total at kappa={kappa:g}",
                    solver_value=solve_g4(table, mu, kappa, grid_size).total_cost,
                    oracle_value=oracle_envelope_by_pairs(xs, total, mu),
                    tolerance=1e-9,
                )
            )
    return reports


# ---------------------------------------------------------------------------
# quadratic-Gaussian oracles
# ---------------------------------------------------------------------------


def _playout_report(p: QGParams, game: str, z: np.ndarray, costs: np.ndarray, seed: int) -> OracleReport:
    """Realized principal costs when everyone follows the committed affine
    policy and the agent best-responds via its own first-order condition,
    written into `costs`; their mean is compared with the closed form at four
    standard errors. The state is z0 + sigma0 * z; for G4, `costs` holds the
    channel's standard normals on entry."""
    constant = 0.0
    if game == "G1":
        solver = qg_g1(p).principal_cost
    elif game == "G2":
        solver = qg_g2(p).principal_cost
    elif game == "G4":
        if not math.isfinite(p.sigma_w_sq):
            raise ValueError("G4 playout needs a finite channel variance")
        solver = qg_g4_cost(p, p.sigma_w_sq)
        constant = 0.5 * p.kappa * math.log1p(1.0 / p.sigma_w_sq)
    else:
        raise ValueError(f"no Monte-Carlo oracle for game {game!r}")
    pol = qg_g2(p).policy
    slope = 1.0 + pol.q
    sd = math.sqrt(p.sigma0_sq)
    n = z.size
    for start in range(0, n, _MC_BLOCK):
        block = slice(start, start + _MC_BLOCK)
        theta = p.z0 + sd * z[block]
        if game == "G1":
            anchor = theta
        elif game == "G2":
            anchor = p.z0
        else:
            noise = math.sqrt(p.sigma_w_sq) * costs[block]
            anchor = (p.sigma_w_sq * p.z0 + p.sigma0_sq * (theta + noise)) / (
                p.sigma0_sq + p.sigma_w_sq
            )
        intercept = pol.intercept_slope * anchor
        v = slope * (theta - intercept) / (slope * slope + 1.0)  # agent FOC
        u = pol.q * v + intercept
        costs[block] = (theta - u - v) ** 2 + 2.0 * u ** 2 + p.beta * v ** 2 + constant
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1)) / math.sqrt(n)
    return OracleReport(
        quantity=f"{game} expected principal cost",
        solver_value=solver,
        oracle_value=mean,
        tolerance=4.0 * stderr + 1e-12 * (1.0 + abs(solver)),
        seed=seed,
    )


def oracle_qg_montecarlo(
    p: QGParams, game: str, n_samples: int = 1_000_000, seed: int = DEFAULT_SEED
) -> OracleReport:
    """Average realized costs over sampled states (and channel noise for G4)
    and compare with the closed form at four standard errors."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_samples)
    costs = np.empty_like(z)
    if game == "G4":
        rng.standard_normal(out=costs)
    return _playout_report(p, game, z, costs, seed)


def _montecarlo_reports(p: QGParams, n_samples: int, seed: int) -> list[OracleReport]:
    """`oracle_qg_montecarlo` on G1, G2 and G4, field for field, from one
    draw of the state and one cost buffer. G4 needs a finite channel, so an
    infinite one is checked at sigma_w_sq = 1."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_samples)
    costs = np.empty_like(z)
    reports = [
        _playout_report(p, "G1", z, costs, seed),
        _playout_report(p, "G2", z, costs, seed),
    ]
    if not math.isfinite(p.sigma_w_sq):
        p = QGParams(p.beta, p.z0, p.sigma0_sq, p.kappa, sigma_w_sq=1.0)
    rng.standard_normal(out=costs)
    reports.append(_playout_report(p, "G4", z, costs, seed))
    return reports


def verify_qg(p: QGParams, n_samples: int = 1_000_000, seed: int = DEFAULT_SEED) -> list[OracleReport]:
    """Monte-Carlo checks for the closed forms plus a dense-grid check of the
    channel optimizer."""
    reports = _montecarlo_reports(p, n_samples, seed)

    # dense sweep of the printed cost expression, assembled independently; the
    # cost is flat to round-off below 1e-6, so the argmin is compared above it
    grid = np.logspace(-12.0, 6.0, 150_001)
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
        visible = grid >= 1e-6
        reports.append(
            OracleReport(
                quantity="g4 channel argmin (log10)",
                solver_value=math.log10(min(max(opt.channel, 1e-6), 1e6)),
                oracle_value=math.log10(float(grid[visible][np.argmin(curve[visible])])),
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
