"""Brute-force cross-checks for the game solvers.

Each oracle recomputes a quantity by a deliberately different route — explicit
vertex enumeration and evaluation instead of simplex optimization, exhaustive
pair bracketing instead of the hull walk, the obedience LP instead of the
g3 hull, playouts of the committed policy instead of closed forms — so
agreement is evidence, not tautology. They share only the raw vertex
enumerator and the simplex kernel with the solvers, never the g2 or g3
decision logic.

`verify_qg` takes the playouts' expectation by Gauss–Hermite quadrature, so
it draws nothing and needs no seed. `oracle_qg_montecarlo` averages the same
playouts over sampled states; its default seed is fixed and recorded in its
report, so it is reproducible run to run.

The pair oracle never holds a full-size temporary array: it walks the
left-hand samples in blocks of `_PAIR_ROWS` rows. Each pair's weight and
mixture use the same formula as one big left-by-right array would, and a
minimum over blocks equals the minimum over all pairs, so the value is the
same bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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


def _playout(p: QGParams, game: str, z: np.ndarray, noise: np.ndarray | None) -> tuple[float, np.ndarray]:
    """The closed form of `game` and its realized principal costs at the
    standard normals z (the state is z0 + sigma0 * z) and, for G4, `noise`
    (the channel's), under the committed policy u = q*v + c*anchor/beta, where
    q = (1 - beta)/beta, c = beta * intercept_slope = (beta^2 + 2*beta - 2) /
    (3*beta + 2), and the anchor is the state (G1), the prior mean (G2) or
    the posterior mean (G4). The agent's condition (1 + q)*(theta - u - v) = v
    with 1 + q = 1/beta gives v = (beta*theta - c*anchor)/(1 + beta^2) and
    u = ((1 - beta)*theta + (1 + beta)*c*anchor)/(1 + beta^2), which hold no
    term of size q, so nothing cancels at small beta."""
    theta = p.z0 + math.sqrt(p.sigma0_sq) * z
    constant = 0.0
    if game == "G1":
        solver, anchor = qg_g1(p).principal_cost, theta
    elif game == "G2":
        solver, anchor = qg_g2(p).principal_cost, p.z0
    elif game == "G4":
        s = p.sigma_w_sq
        if not math.isfinite(s):
            raise ValueError("G4 playout needs a finite channel variance")
        solver = qg_g4_cost(p, s)
        constant = 0.5 * p.kappa * math.log1p(1.0 / s)
        anchor = (s * p.z0 + p.sigma0_sq * (theta + math.sqrt(s) * noise)) / (p.sigma0_sq + s)
    else:
        raise ValueError(f"no playout for game {game!r}")
    b = p.beta
    c_anchor = b * qg_g2(p).policy.intercept_slope * anchor
    v = (b * theta - c_anchor) / (1.0 + b * b)
    u = ((1.0 - b) * theta + (1.0 + b) * c_anchor) / (1.0 + b * b)
    return solver, (theta - u - v) ** 2 + 2.0 * u ** 2 + b * v ** 2 + constant


def oracle_qg_montecarlo(
    p: QGParams, game: str, n_samples: int = 1_000_000, seed: int = DEFAULT_SEED
) -> OracleReport:
    """Average realized costs over sampled states (and channel noise for G4)
    and compare with the closed form at four standard errors."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_samples)
    noise = rng.standard_normal(n_samples) if game == "G4" else None
    solver, costs = _playout(p, game, z, noise)
    stderr = float(costs.std(ddof=1)) / math.sqrt(n_samples)
    return OracleReport(
        quantity=f"{game} expected principal cost",
        solver_value=solver,
        oracle_value=float(costs.mean()),
        tolerance=4.0 * stderr + 1e-12 * (1.0 + abs(solver)),
        seed=seed,
    )


def _quadrature_report(p: QGParams, game: str) -> OracleReport:
    """The playout's expectation by the 3 x 3 Gauss-Hermite product rule,
    compared with the closed form. The realized cost has degree 2 in the two
    standard normals and an n-node rule is exact to degree 2n - 1 (Golub &
    Welsch 1969, Math. Comp. 23), so only rounding separates the two. Each
    cost is (1 + beta)*beta*v^2 + 2*u^2 plus the channel price (theta - u - v
    = beta*v), a sum of nonnegative terms, and the nine weights are positive
    and sum to 1, so both sides are good to a few dozen ulp of the cost's
    scale: 3.5e-15 relative at worst on 2,000 random games. The tolerance
    1e-12 * (1 + |closed form|) keeps a margin over 100; its 1 covers a
    closed form of 0 and, below beta of about 1e-31, the square of u's
    rounding error of about 1e-16 * |theta|."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(3)
    weights = weights / weights.sum()
    z, noise = np.meshgrid(nodes, nodes)
    solver, costs = _playout(p, game, z.ravel(), noise.ravel())
    expectation = float(np.outer(weights, weights).ravel() @ costs)
    return OracleReport(f"{game} expected principal cost", solver, expectation, 1e-12 * (1.0 + abs(solver)))


def verify_qg(p: QGParams) -> list[OracleReport]:
    """Quadrature checks of the G1, G2 and G4 closed forms (G4 at
    sigma_w_sq = 1 when the channel is infinite) and a dense-grid check of
    the channel optimizer. With s0 = sigma0_sq, a = 2*beta/(3*beta + 2), W
    the ignorance weight and r(s) = s0*s/(s0 + s) the residual variance at
    channel noise s, the posterior mean's variance is s0 - r(s), so

        C(s) = a*(z0^2 + s0) + (W - a)*r(s) + (kappa/2)*ln(1 + 1/s).

    The grid holds only the part that depends on s: the constant can dwarf
    it, and its rounding would make the argmin wander where C is flat. The
    dense argmin is refined on a 2,001-point log grid between its two
    neighbours, so the dense step (1.2e-4 decades) limits neither comparison.
    The argmin is compared on [1e-6, 1e6], a channel outside counting as the
    nearer end.
    """
    g4 = p if math.isfinite(p.sigma_w_sq) else replace(p, sigma_w_sq=1.0)
    reports = [_quadrature_report(p, "G1"), _quadrature_report(p, "G2"), _quadrature_report(g4, "G4")]

    b, s0, k = p.beta, p.sigma0_sq, p.kappa
    a = 2.0 * b / (3.0 * b + 2.0)
    b2 = b * b
    w = (b2 * b2 + b2 * b + 2.0 * b2 - 4.0 * b + 2.0) / (b2 + 1.0) ** 2

    def varying(s):
        return (w - a) * s0 * s / (s0 + s) + 0.5 * k * np.log1p(1.0 / s)

    grid = np.logspace(-12.0, 6.0, 150_001)
    i = int(np.argmin(varying(grid)))
    fine = np.logspace(math.log10(grid[max(i - 1, 0)]), math.log10(grid[min(i + 1, grid.size - 1)]), 2001)
    curve = varying(fine)
    j = int(np.argmin(curve))
    dense_best = a * (p.z0 * p.z0 + s0) + float(curve[j])
    no_acquisition = qg_g2(p).principal_cost
    opt = qg_g4_optimize(p)
    if math.isfinite(opt.channel) and dense_best < no_acquisition:
        window = [math.log10(min(max(s, 1e-6), 1e6)) for s in (opt.channel, float(fine[j]))]
        reports.append(OracleReport("g4 channel argmin (log10)", *window, tolerance=1e-4))
    reports.append(
        OracleReport(
            quantity="g4 optimized total",
            solver_value=opt.principal_cost,
            oracle_value=min(dense_best, no_acquisition),
            tolerance=1e-6,
        )
    )
    return reports
