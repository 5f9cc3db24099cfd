"""Brute-force cross-checks for the game solvers.

Each oracle recomputes a quantity by a deliberately different route — explicit
vertex enumeration and evaluation instead of simplex optimization, exhaustive
pair bracketing instead of the hull walk, the obedience LP instead of the
g3 hull, playouts of the committed policy instead of closed forms — so
agreement is evidence, not tautology. The vertex enumerator lives here, and
no solver calls it: the oracles share only the simplex kernel with the
solvers, never the g2 or g3 decision logic. So the enumerator's capacity
(_MAX_BASES) limits `verify` and the oracles alone; a 4x4 or 3x5 table has
more bases than that, and its solvers still answer.

Vertex enumeration has one core, _vertices: for one bounded, nonempty
polytope and its rank setup (enumeration_setup) it solves the square systems
of the candidate bases in fixed-size batches, tests them with one
feasibility rule (Polytope.contains) and deduplicates them in basis order;
the vertices do not depend on the batch size. enumerate_vertices first
checks the polytope's boundedness and feasibility with one LP.
_pair_vertices enumerates a table's pair polytopes one by one, after one
phase one per pair tells the empty ones. `verify` and the g2 and obedience
oracles read its vertices in pair and basis order, and collect_xi reads them
as sorted schemes. Where the enumerator cannot finish (more than _MAX_BASES
bases) it raises SolverError, before any LP or basis.

`verify_qg` takes the playouts' expectation by Gauss–Hermite quadrature, so
it draws nothing and needs no seed. `oracle_qg_montecarlo` averages the same
playouts over sampled states, in blocks of `_MC_BLOCK` samples; its default
seed is fixed and recorded in its report, so it is reproducible run to run.

The pair oracle never holds a full-size temporary array: it walks the
left-hand samples in blocks of `_PAIR_ROWS` rows. Each pair's weight and
mixture use the same formula as one big left-by-right array would, and a
minimum over blocks equals the minimum over all pairs, so the value is the
same bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from incentive_games.belief_engine import (
    as_probability,
    envelope_from_samples,
    tilde_entropy,
)
from incentive_games.lp_kernel import (
    FEAS_TOL,
    Polytope,
    SolverError,
    phase_one,
    phase_two,
)
from incentive_games.matrix_games import (
    CostTable,
    _scheme_key,
    _to_matrix,
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
# samples per block of the Monte-Carlo playout: 128 kB per temporary
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
# vertex enumeration
# ---------------------------------------------------------------------------

DEDUPE_TOL = 1e-9        # L-inf distance under which two vertices are one
_MAX_BASES = 400_000
# A polytope's candidate systems are assembled, factored and solved in
# batches of _SYSTEMS_PER_BATCH: enough that per-batch overhead vanishes, few
# enough that a batch's (batch, dim, dim) systems and their temporaries stay a
# few MB (about 5 MB at dim 12).
_SYSTEMS_PER_BATCH = 2048
_RESIDUAL_TOL = 1e-9     # a candidate system solved worse than this is singular


def _bounded_and_feasible(p: Polytope) -> bool:
    """False for an empty polytope; ValueError for an unbounded one.

    One LP maximizes the sum of the coordinates. Every x_t is >= 0, so a
    finite maximum bounds each x_t; conversely an unbounded x_t makes the LP
    unbounded. Its phase one decides feasibility.
    """
    start = phase_one(p)
    if start is None:
        return False
    if phase_two(-np.ones(p.dim), start) is None:
        raise ValueError("polytope is unbounded")
    return True


def enumerate_vertices(p: Polytope) -> list[np.ndarray]:
    """All basic feasible solutions of a bounded polytope, deduplicated, in
    basis order (see _vertices). One LP first decides that `p` is bounded
    (ValueError if not) and nonempty ([] if empty)."""
    if not _bounded_and_feasible(p):
        return []
    return _vertices(p, *enumeration_setup(p))


def enumeration_setup(p: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """The equality rows that every candidate basis of `p` makes tight (a
    maximal independent subset, in row order) and their rhs. Raises
    SolverError when `p` has more than _MAX_BASES candidate bases, before any
    is built."""
    keep: list[int] = []
    for r in range(p.equality_matrix.shape[0]):
        if np.linalg.matrix_rank(p.equality_matrix[keep + [r]]) > len(keep):
            keep.append(r)
    n_bases = math.comb(p.constraint_matrix.shape[0] + p.dim, p.dim - len(keep))
    if n_bases > _MAX_BASES:
        raise SolverError(
            f"the vertex-enumeration oracle would examine {n_bases} bases (limit {_MAX_BASES}); "
            "polytope too large for combinatorial enumeration"
        )
    return p.equality_matrix[keep], p.equality_rhs[keep]


def _candidate_bases(G: np.ndarray, E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Every choice of dim - len(E) of the inequality rows G (the x_t >= 0
    rows last), in lexicographic order, as a (choices, dim - len(E)) index
    array; minus two kinds of choice that give no vertex:
    - one with a zero row: the system is singular, its LU keeps that row
      zero, and det is exactly 0;
    - one whose x_t >= 0 rows zero the whole support of an equality row with
      |rhs| > 2 * _RESIDUAL_TOL * (1 + sum of |coefficients|): the system
      forces |x_t| <= _RESIDUAL_TOL there, so the computed residual on the
      equality row exceeds _RESIDUAL_TOL.
    """
    n_rows, d = G.shape
    k = d - E.shape[0]
    nonzero = np.flatnonzero(np.any(G, axis=1)).tolist()
    n_bases = math.comb(len(nonzero), k)
    bases = np.fromiter(itertools.chain.from_iterable(itertools.combinations(nonzero, k)),
                        dtype=np.intp, count=n_bases * k).reshape(n_bases, k)
    for row, rhs in zip(E, f):
        if abs(rhs) > 2 * _RESIDUAL_TOL * (1 + np.sum(np.abs(row))):
            support = np.zeros(n_rows, dtype=bool)
            support[n_rows - d:] = row != 0
            bases = bases[np.count_nonzero(support[bases], axis=1) < np.count_nonzero(row)]
    return bases


def _vertices(p: Polytope, E: np.ndarray, f: np.ndarray) -> list[np.ndarray]:
    """The basic feasible solutions of a bounded, nonempty polytope `p`,
    deduplicated, in basis order; E and f are its rank setup
    (enumeration_setup). Feasibility and boundedness are the caller's to
    establish.

    Combinatorial active-set enumeration: every candidate choice of
    dim - len(E) inequalities (the constraint rows, then -x_t <= 0 for each t
    in order; _candidate_bases), made tight together with E, is solved as a
    square system and kept if it satisfies every row of `p`
    (Polytope.contains). The systems go through in lexicographic order, in
    batches of _SYSTEMS_PER_BATCH, each step one batched array operation
    whose per-system result does not depend on the batch. A candidate is a
    new vertex when its L-inf distance to every vertex kept before it
    exceeds DEDUPE_TOL.
    """
    d, n_eq = p.dim, E.shape[0]
    G = np.vstack([p.constraint_matrix, -np.eye(d)])   # x >= 0 as -x <= 0
    h = np.concatenate([p.rhs, np.zeros(d)])
    bases = _candidate_bases(G, E, f)
    # max |entry| of a system is the max over its rows' maxima: max is exact
    row_max = np.max(np.abs(G), axis=1)
    eq_max = float(np.max(np.abs(E))) if n_eq else 0.0
    unique: list[np.ndarray] = []
    for start in range(0, len(bases), _SYSTEMS_PER_BATCH):
        rows = bases[start:start + _SYSTEMS_PER_BATCH]
        mats = np.empty((len(rows), d, d))
        rhss = np.empty((len(rows), d))
        mats[:, :n_eq] = E
        rhss[:, :n_eq] = f
        mats[:, n_eq:] = G[rows]
        rhss[:, n_eq:] = h[rows]
        scale = np.max(row_max[rows], axis=1, initial=eq_max)
        with np.errstate(all="ignore"):
            dets = np.linalg.det(mats)
        ok = np.abs(dets) > 1e-12 * np.maximum(1.0, scale ** d)
        mats, rhss = mats[ok], rhss[ok]
        xs = np.linalg.solve(mats, rhss[..., None])[..., 0]
        resid = np.max(np.abs(np.einsum("bij,bj->bi", mats, xs) - rhss), axis=1)
        # x >= -FEAS_TOL is also a test of contains: checked here for the
        # whole batch, it leaves contains fewer points
        pts = xs[~(resid > _RESIDUAL_TOL) & np.all(np.isfinite(xs) & (xs >= -FEAS_TOL), axis=1)]
        pts = pts[p.contains(pts)]
        # Greedy dedupe in basis order, one pass per kept vertex: the
        # earliest remaining candidate is always kept, and drops every later
        # one near it.
        for u in unique:
            pts = pts[np.abs(pts - u).max(axis=1) > DEDUPE_TOL]
        while len(pts):
            unique.append(pts[0].copy())
            pts = pts[np.abs(pts - pts[0]).max(axis=1) > DEDUPE_TOL]
    return unique


def _pair_polytopes(table: CostTable) -> dict[tuple[int, int], Polytope]:
    """Every response-pair polytope of `table`, in pair order, assembled
    here rather than taken from the solver."""
    m, n = table.m, table.n
    eye = np.eye(n)
    simplex_rows = np.kron(eye, np.ones(m))
    out = {}
    for i in range(n):
        for j in range(n):
            rows = []
            for state, rec in ((0, i), (1, j)):
                ca = table.ca[state]
                for alt in range(n):
                    if alt != rec:
                        rows.append(np.kron(eye[rec], ca[:, rec]) - np.kron(eye[alt], ca[:, alt]))
            out[i, j] = Polytope(
                dim=m * n,
                constraint_matrix=np.array(rows),
                rhs=np.zeros(len(rows)),
                equality_matrix=simplex_rows,
                equality_rhs=np.ones(n),
            )
    return out


def _pair_vertices(table: CostTable) -> dict[tuple[int, int], list[np.ndarray]]:
    """The raw vertices of every response-pair polytope, in pair order and,
    within a pair, in basis order ([] for an empty pair). The pair polytopes
    share their shape and equality rows, so one rank setup serves them all,
    and a table too large to enumerate fails there, before any LP or basis.
    Every pair polytope is bounded (each variable lies in a column-sum row
    with x >= 0), so one phase one per pair tells the empty ones, and each
    other pair gets the vertices its own enumerate_vertices call would."""
    polytopes = _pair_polytopes(table)
    E, f = enumeration_setup(polytopes[0, 0])
    return {pair: [] if phase_one(p) is None else _vertices(p, E, f) for pair, p in polytopes.items()}


def collect_xi(table: CostTable) -> dict[tuple[int, int], tuple[np.ndarray, ...]]:
    """Every vertex of every response-pair polytope as a scheme, grouped by
    pair in pair order (a pair whose polytope is empty maps to ()), each
    group sorted by _scheme_key (_pair_vertices)."""
    return {
        pair: tuple(sorted((_to_matrix(v, table.m, table.n) for v in verts), key=_scheme_key))
        for pair, verts in _pair_vertices(table).items()
    }


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
    """(i, j, scheme) for every vertex of every response-pair polytope, in
    pair and basis order (_pair_vertices), built and enumerated here rather
    than read from the solver's cache. A scheme is the raw vertex reshaped,
    with no clip or rescale."""
    m, n = table.m, table.n
    out = [(i, j, x.reshape(n, m).T) for (i, j), verts in _pair_vertices(table).items() for x in verts]
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

    def least(objective: np.ndarray, equality_matrix: np.ndarray, equality_rhs, what: str) -> float:
        region = Polytope(2 * n_vert, rows, np.zeros(len(rows)), equality_matrix, equality_rhs)
        start = phase_one(region)
        optimum = None if start is None else phase_two(objective, start)
        if optimum is None:
            raise SolverError(f"oracle_g3_by_obedience: the {what} LP did not solve")
        return float(objective @ optimum.solution(region.dim))

    agent_value = least(agent_obj, normalize, np.ones(2), "obedience")
    # stage 2: the least principal cost among agent-optimal policies
    principal_value = least((w * principal).reshape(-1), np.vstack([normalize, agent_obj]),
                            np.array([1.0, 1.0, agent_value]), "tie-break")
    return agent_value, principal_value


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
    against an independently assembled envelope. The vertices are enumerated
    once, pair polytope by pair polytope (_pair_vertices), and shared by the
    g2 and obedience oracles. At prior 0 or 1 there is nothing to persuade,
    so the g3 and acquisition checks are left out. `kappa`, when given, must
    be finite and nonnegative; None leaves out the acquisition check."""
    mu = as_probability(prior)
    if kappa is not None and not (math.isfinite(kappa) and kappa >= 0.0):
        raise ValueError("kappa must be finite and nonnegative")
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
        if kappa is not None:
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
    and compare with the closed form at four standard errors. Only the draws
    are held whole: the playout runs in blocks of _MC_BLOCK samples, and each
    block's mean and sum of squared deviations are merged into the running
    ones (Chan, Golub & LeVeque 1979)."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_samples)
    noise = rng.standard_normal(n_samples) if game == "G4" else None
    count, mean, squares = 0, 0.0, 0.0
    for start in range(0, n_samples, _MC_BLOCK):
        block = slice(start, start + _MC_BLOCK)
        solver, costs = _playout(p, game, z[block], None if noise is None else noise[block])
        size, block_mean = costs.size, float(costs.mean())
        delta = block_mean - mean
        count += size
        mean += delta * size / count
        squares += float(np.sum((costs - block_mean) ** 2)) + delta * delta * (count - size) * size / count
    stderr = math.sqrt(squares / (count - 1)) / math.sqrt(count)
    return OracleReport(
        quantity=f"{game} expected principal cost",
        solver_value=solver,
        oracle_value=mean,
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
