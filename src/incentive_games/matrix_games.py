"""Solvers for two-state matrix incentive-design games.

Four information regimes over the same cost data:

- g1: the principal observes the state and commits, per state, to a mixed
  reaction per agent action (full information).
- g2: the principal knows only a belief over the two states and commits to a
  single state-independent scheme (Bayesian asymmetry).
- g3: before playing g2, the agent commits to a signaling scheme about the
  state; solved exactly as the lower convex hull of the agent's least cost
  among principal-optimal vertices, sampled at the breakpoints of the g2
  principal value (persuasion).
- g4: the principal buys information, paying kappa times the induced entropy
  reduction; solved by grid concavification of the g2 value net of the
  channel cost (costly acquisition).

Agent ties break in the principal's favor throughout (the weak-inequality
best-response constraints encode exactly that). Principal ties follow one
rule everywhere: the first candidate, in order, whose cost is within
_OPTIMAL_TOL of the least wins (the first response pair in g2, the first
response per state in g1, the lexicographically smallest optimal vertex
within a pair). Every reported scheme is that vertex, so reruns are
reproducible bit for bit. g3 at an interior prior reads only the cached
vertex profiles: once they are built it solves no LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from incentive_games.belief_engine import (
    PosteriorSplit,
    as_probability,
    envelope_from_samples,
    tilde_entropy,
)
from incentive_games.lp_kernel import (
    LinearProgram,
    LpSolution,
    Polytope,
    SolverError,
    enumerate_vertices,
    lexicographic_argmin,
    solve_lp,
)

BEST_RESPONSE_TOL = 1e-8
# Principal ties: a candidate whose cost is within this of the least is
# optimal. It is the simplex's reduced-cost tolerance, below which an LP
# stops and cannot tell two vertices apart, so the LP path and the vertex
# profiles choose alike.
_OPTIMAL_TOL = 1e-9


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def _cost_pair(mats, name: str) -> tuple[np.ndarray, np.ndarray]:
    if len(mats) != 2:
        raise ValueError(f"{name} must hold one matrix per state")
    a = np.array(mats[0], dtype=float)
    b = np.array(mats[1], dtype=float)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"{name} matrices must share one m-by-n shape")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError(f"{name} entries must be finite")
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


@dataclass(frozen=True, eq=False)
class CostTable:
    """Per-state cost matrices: cp for the principal, ca for the agent.
    Rows are principal actions, columns agent actions.

    Instances hash by identity so derived vertex data can be memoized;
    the matrices are frozen read-only to keep that sound."""

    cp: tuple[np.ndarray, np.ndarray]
    ca: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        cp = _cost_pair(self.cp, "cp")
        ca = _cost_pair(self.ca, "ca")
        if cp[0].shape != ca[0].shape:
            raise ValueError("cp and ca must share one m-by-n shape")
        object.__setattr__(self, "cp", cp)
        object.__setattr__(self, "ca", ca)

    @property
    def m(self) -> int:
        return self.cp[0].shape[0]

    @property
    def n(self) -> int:
        return self.cp[0].shape[1]


def _clean_columns(cols: np.ndarray) -> np.ndarray:
    cols = np.asarray(cols, dtype=float)
    if np.any(cols < -1e-10):
        raise ValueError("scheme columns must be nonnegative")
    cols = np.clip(cols, 0.0, None) + 0.0  # also normalizes -0.0
    sums = cols.sum(axis=-2)
    if np.any(np.abs(sums - 1.0) > 1e-10):
        raise ValueError("scheme columns must sum to 1")
    return cols


@dataclass(frozen=True)
class IncentiveScheme:
    """The principal's committed mixed reaction per agent action.

    `columns` has shape (m, n) for a state-independent scheme or (2, m, n)
    when the reaction may depend on the state."""

    columns: np.ndarray

    def __post_init__(self):
        cols = _clean_columns(self.columns)
        if cols.ndim == 3 and cols.shape[0] != 2:
            raise ValueError("state-indexed scheme needs exactly two states")
        if cols.ndim not in (2, 3):
            raise ValueError("columns must be (m, n) or (2, m, n)")
        object.__setattr__(self, "columns", cols)

    @property
    def state_dependent(self) -> bool:
        return self.columns.ndim == 3

    def for_state(self, k: int) -> np.ndarray:
        return self.columns[k] if self.state_dependent else self.columns


@dataclass(frozen=True)
class StateOutcome:
    agent_action: int
    principal_cost: float
    agent_cost: float


@dataclass(frozen=True)
class EquilibriumReport:
    scheme: IncentiveScheme
    agent_actions: tuple[int, int]
    principal_cost: float
    agent_cost: float
    per_state: tuple[StateOutcome, StateOutcome]
    belief: float

    def check(self, table: CostTable, tol: float = 1e-9, br_tol: float = BEST_RESPONSE_TOL) -> None:
        """Re-evaluate costs and best responses against the table."""
        mu = self.belief
        weights = (mu, 1.0 - mu)
        jp = ja = 0.0
        for k, w in enumerate(weights):
            gamma = self.scheme.for_state(k)
            j = self.agent_actions[k]
            ac = float(gamma[:, j] @ table.ca[k][:, j])
            pc = float(gamma[:, j] @ table.cp[k][:, j])
            for l in range(table.n):
                alt = float(gamma[:, l] @ table.ca[k][:, l])
                if alt < ac - br_tol:
                    raise AssertionError(
                        f"state {k}: action {l} beats committed response {j}"
                    )
            jp += w * pc
            ja += w * ac
        if abs(jp - self.principal_cost) > tol or abs(ja - self.agent_cost) > tol:
            raise AssertionError("reported costs do not match re-evaluation")


@dataclass(frozen=True)
class RecommendedScheme:
    group: tuple[int, int]
    scheme: np.ndarray
    prob_given_state: tuple[float, float]
    posterior: float


@dataclass(frozen=True)
class PersuasionReport:
    recommendation_distribution: tuple[RecommendedScheme, ...]
    split: PosteriorSplit
    principal_cost: float
    agent_cost: float
    prior: float

    @property
    def revealing(self) -> bool:
        return len(self.split.atoms) > 1


@dataclass(frozen=True)
class AcquisitionReport:
    split: PosteriorSplit
    gross_cost: float
    channel_cost: float
    total_cost: float
    agent_cost: float
    kappa: float
    prior: float
    grid_size: int


# ---------------------------------------------------------------------------
# constraint assembly
# ---------------------------------------------------------------------------


def _best_response_rows(table: CostTable, state: int, rec: int) -> np.ndarray:
    """Rows R with R x <= 0 making column `rec` a best response in `state`,
    over the flattened scheme x (columns stacked left to right)."""
    m, n = table.m, table.n
    ca = table.ca[state]
    rows = np.zeros((n - 1, m * n))
    r = 0
    for l in range(n):
        if l == rec:
            continue
        rows[r, rec * m : (rec + 1) * m] += ca[:, rec]
        rows[r, l * m : (l + 1) * m] -= ca[:, l]
        r += 1
    return rows


def _column_sum_equalities(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    eq = np.zeros((n, m * n))
    for c in range(n):
        eq[c, c * m : (c + 1) * m] = 1.0
    return eq, np.ones(n)


def _pair_polytope(table: CostTable, i: int, j: int) -> Polytope:
    """Feasible state-independent schemes inducing response i in state one
    and j in state two."""
    rows = np.vstack([
        _best_response_rows(table, 0, i),
        _best_response_rows(table, 1, j),
    ])
    eq, eqr = _column_sum_equalities(table.m, table.n)
    return Polytope(
        dim=table.m * table.n,
        constraint_matrix=rows,
        rhs=np.zeros(rows.shape[0]),
        equality_matrix=eq,
        equality_rhs=eqr,
    )


def _to_matrix(x: np.ndarray, m: int, n: int) -> np.ndarray:
    """Reshape a stacked-columns LP point into an (m, n) scheme, washing out
    solver residue: clip tiny negatives and rescale each column to sum to 1."""
    gamma = np.clip(x.reshape(n, m).T, 0.0, None) + 0.0
    sums = gamma.sum(axis=0)
    if np.any(sums < 0.5):
        raise SolverError("scheme column collapsed; LP solution is not a distribution")
    return gamma / sums


def _scheme_key(x: np.ndarray) -> tuple:
    return tuple(np.round(np.asarray(x).reshape(-1), 9) + 0.0)


# ---------------------------------------------------------------------------
# g1 and g2
# ---------------------------------------------------------------------------


def _first_optimal(solutions: list[LpSolution], what: str) -> int:
    """Index of the first solved LP whose value is within _OPTIMAL_TOL of the
    least: the principal's tie rule over LP values."""
    values = np.array([s.value if s.optimal else np.inf for s in solutions])
    if np.isinf(values.min()):
        raise SolverError(f"no inducible {what}")
    return int(np.argmax(values <= values.min() + _OPTIMAL_TOL))


def solve_g1(table: CostTable, prior) -> EquilibriumReport:
    """Full-information game: per state, the principal commits to the scheme
    minimizing its cost at the induced best response; costs aggregate under
    the prior."""
    mu = as_probability(prior)
    m, n = table.m, table.n
    eq, eqr = _column_sum_equalities(m, n)
    schemes = []
    outcomes = []
    for k in range(2):
        lps = []
        for j in range(n):
            rows = _best_response_rows(table, k, j)
            c = np.zeros(m * n)
            c[j * m : (j + 1) * m] = table.cp[k][:, j]
            lps.append(LinearProgram(
                objective=c,
                constraint_matrix=rows,
                rhs=np.zeros(rows.shape[0]),
                equality_matrix=eq,
                equality_rhs=eqr,
            ))
        j = _first_optimal([solve_lp(lp) for lp in lps], f"agent response in state {k}")
        canon = lexicographic_argmin(lps[j])
        gamma = _to_matrix(canon.point, m, n)
        principal_cost = float(gamma[:, j] @ table.cp[k][:, j])
        agent_cost = float(gamma[:, j] @ table.ca[k][:, j])
        schemes.append(gamma)
        outcomes.append(StateOutcome(j, principal_cost, agent_cost))

    weights = (mu, 1.0 - mu)
    jp = sum(w * o.principal_cost for w, o in zip(weights, outcomes))
    ja = sum(w * o.agent_cost for w, o in zip(weights, outcomes))
    return EquilibriumReport(
        scheme=IncentiveScheme(np.stack(schemes)),
        agent_actions=(outcomes[0].agent_action, outcomes[1].agent_action),
        principal_cost=float(jp),
        agent_cost=float(ja),
        per_state=tuple(outcomes),
        belief=mu,
    )


def _pair_objective(table: CostTable, i: int, j: int, mu: float) -> np.ndarray:
    m = table.m
    c = np.zeros(m * table.n)
    c[i * m : (i + 1) * m] += mu * table.cp[0][:, i]
    c[j * m : (j + 1) * m] += (1.0 - mu) * table.cp[1][:, j]
    return c


def solve_g2(table: CostTable, belief) -> EquilibriumReport:
    """Bayesian game: one state-independent scheme; the response pair with
    the cheapest induced (feasible) scheme wins, the first pair within
    _OPTIMAL_TOL of the least on ties."""
    mu = as_probability(belief)
    m, n = table.m, table.n
    pairs = [(i, j) for i in range(n) for j in range(n)]
    lps = [_pair_polytope(table, i, j).lp(_pair_objective(table, i, j, mu)) for i, j in pairs]
    best = _first_optimal([solve_lp(lp) for lp in lps], "response pair")
    i, j = pairs[best]
    canon = lexicographic_argmin(lps[best])
    gamma = _to_matrix(canon.point, m, n)
    outcomes = []
    for k, rec in enumerate((i, j)):
        pc = float(gamma[:, rec] @ table.cp[k][:, rec])
        ac = float(gamma[:, rec] @ table.ca[k][:, rec])
        outcomes.append(StateOutcome(rec, pc, ac))
    jp = mu * outcomes[0].principal_cost + (1.0 - mu) * outcomes[1].principal_cost
    ja = mu * outcomes[0].agent_cost + (1.0 - mu) * outcomes[1].agent_cost
    return EquilibriumReport(
        scheme=IncentiveScheme(gamma),
        agent_actions=(i, j),
        principal_cost=float(jp),
        agent_cost=float(ja),
        per_state=tuple(outcomes),
        belief=mu,
    )


# ---------------------------------------------------------------------------
# vertex profiles and value curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PairProfile:
    group: tuple[int, int]
    schemes: np.ndarray                   # (n_vertices, m, n) lex-sorted vertex schemes
    principal: np.ndarray                 # (n_vertices, 2) per-state costs
    agent: np.ndarray                     # (n_vertices, 2)


@lru_cache(maxsize=128)
def _pair_profiles(table: CostTable) -> tuple[_PairProfile, ...]:
    profiles = []
    for i in range(table.n):
        for j in range(table.n):
            verts = enumerate_vertices(_pair_polytope(table, i, j))
            if not verts:
                continue
            verts = sorted(verts, key=_scheme_key)
            mats = [_to_matrix(v, table.m, table.n) for v in verts]
            p = np.array(
                [[g[:, i] @ table.cp[0][:, i], g[:, j] @ table.cp[1][:, j]] for g in mats]
            )
            a = np.array(
                [[g[:, i] @ table.ca[0][:, i], g[:, j] @ table.ca[1][:, j]] for g in mats]
            )
            profiles.append(_PairProfile((i, j), np.stack(mats), p, a))
    if not profiles:
        raise SolverError("no inducible response pair")
    return tuple(profiles)


def _curves_from_profiles(
    profiles: tuple[_PairProfile, ...], beliefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Principal and agent g2 value curves over a belief grid, replicating
    the solver's tie-breaks (first pair, then lex-smallest vertex)."""
    mu = beliefs[None, :]
    pair_vals = []
    pair_agent = []
    for prof in profiles:
        v = prof.principal[:, :1] @ mu + prof.principal[:, 1:] @ (1.0 - mu)
        vmin = v.min(axis=0)
        first = np.argmax(v <= vmin + _OPTIMAL_TOL, axis=0)  # lex-smallest vertex
        a = prof.agent[first, 0] * beliefs + prof.agent[first, 1] * (1.0 - beliefs)
        pair_vals.append(vmin)
        pair_agent.append(a)
    vals = np.vstack(pair_vals)
    agents = np.vstack(pair_agent)
    jp2 = vals.min(axis=0)
    chosen = np.argmax(vals <= jp2 + _OPTIMAL_TOL, axis=0)   # first pair in lex order
    ja2 = agents[chosen, np.arange(beliefs.shape[0])]
    return jp2, ja2


def value_curves(table: CostTable, grid_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A uniform belief grid of `grid_size` points with, at each belief, the
    g2 principal value (piecewise affine and concave in the belief) and the
    agent cost at the principal's chosen scheme."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    beliefs = np.linspace(0.0, 1.0, grid_size)
    jp2, ja2 = _curves_from_profiles(_pair_profiles(table), beliefs)
    return beliefs, jp2, ja2


def principal_value_curve(table: CostTable, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled belief -> g2 principal value. Piecewise affine and concave."""
    beliefs, jp2, _ = value_curves(table, grid_size)
    return beliefs, jp2


def agent_value_curve(table: CostTable, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled belief -> g2 agent cost at the principal's chosen scheme."""
    beliefs, _, ja2 = value_curves(table, grid_size)
    return beliefs, ja2


# ---------------------------------------------------------------------------
# candidate-scheme collection (persuasion action set)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XiCollection:
    """Vertices of every response-pair polytope, grouped by pair (a pair
    whose polytope is empty maps to ())."""

    groups: dict[tuple[int, int], tuple[np.ndarray, ...]]


def collect_xi(table: CostTable) -> XiCollection:
    """The cached pair-profile vertices as schemes, each group sorted by
    _scheme_key of the scheme matrix."""
    groups = {(i, j): () for i in range(table.n) for j in range(table.n)}
    for prof in _pair_profiles(table):
        groups[prof.group] = tuple(sorted(prof.schemes, key=_scheme_key))
    return XiCollection(groups=groups)


# ---------------------------------------------------------------------------
# g3: agent-driven persuasion
# ---------------------------------------------------------------------------


def _principal_breakpoints(principal: np.ndarray) -> list[float]:
    """Beliefs in (0, 1) where min over rows (p0, p1) of mu*p0 + (1 - mu)*p1
    changes line. The walk starts at mu = 0 and moves each time to the
    least-slope line at the first crossing with a line of smaller slope, so
    the slope falls at every step; each step is O(lines)."""
    lines = np.unique(principal, axis=0)
    start, slope = lines[:, 1], lines[:, 0] - lines[:, 1]
    cur = np.flatnonzero(start <= start.min() + _OPTIMAL_TOL)
    cur = cur[np.argmin(slope[cur])]
    x, out = 0.0, []
    while (lower := np.flatnonzero(slope < slope[cur])).size:
        cross = np.maximum((start[lower] - start[cur]) / (slope[cur] - slope[lower]), x)
        x = float(cross.min())
        if x >= 1.0:
            break
        at = lower[cross <= x]
        cur = at[np.argmin(slope[at])]
        out.append(x)
    return out


def solve_g3(table: CostTable, prior) -> PersuasionReport:
    """Agent-optimal persuasion by concavification.

    With two states, the agent's best value at prior mu is the lower convex
    envelope at mu of ja*(p), the least agent cost over the vertices that are
    principal-optimal at posterior p, i.e. whose principal value is within
    _OPTIMAL_TOL of the g2 value jp2(p) (Kamenica & Gentzkow 2011). It is exact
    to take that envelope over S = {0, mu, 1} and the breakpoints of jp2:
    between two breakpoints the optimal set is fixed, so ja* is a minimum of
    affine functions and hence concave; at a breakpoint the optimal set only
    grows, so ja* can only drop. So every vertex of the envelope is in S.

    Tie rules:
    - Among agent-optimal splits the principal's cost is least: the hull
      drops collinear interior points, so on a collinear stretch it returns
      the widest split, which dominates every other split on that stretch in
      convex order and so has the least sum of w * jp2 (jp2 is concave).
    - A split whose agent and principal costs equal ja*(mu) and jp2(mu)
      within 1e-9 buys nothing; the report is the single atom at mu.
    - Each atom recommends the first vertex, in _pair_profiles order, that
      is principal-optimal there and has the least agent cost.
    - At mu = 0 or 1 no split is possible and g3 is g2: the report is
      solve_g2's scheme. Elsewhere g3 solves no LP beyond building the
      cached profiles.
    """
    mu = as_probability(prior)
    if mu <= 0.0 or mu >= 1.0:
        g2 = solve_g2(table, mu)
        rec = RecommendedScheme(g2.agent_actions, g2.scheme.columns, (1.0, 1.0), mu)
        return PersuasionReport((rec,), PosteriorSplit(((mu, 1.0),)), g2.principal_cost, g2.agent_cost, mu)

    profiles = _pair_profiles(table)
    principal = np.vstack([prof.principal for prof in profiles])
    beliefs = np.unique([0.0, mu, 1.0, *_principal_breakpoints(principal)])
    weights = np.stack([beliefs, 1.0 - beliefs], axis=1)
    pv = weights @ principal.T                      # (beliefs, vertices)
    jp2 = pv.min(axis=1)
    agent = weights @ np.vstack([prof.agent for prof in profiles]).T
    agent[pv > jp2[:, None] + _OPTIMAL_TOL] = np.inf    # not principal-optimal
    ja = agent.min(axis=1)

    agent_value, atoms = envelope_from_samples(beliefs, ja, mu)
    idx = np.searchsorted(beliefs, [p for p, _ in atoms])
    principal_value = float(sum(w * jp2[t] for (_, w), t in zip(atoms, idx)))
    t = int(np.searchsorted(beliefs, mu))
    if abs(agent_value - ja[t]) <= 1e-9 and abs(principal_value - jp2[t]) <= 1e-9:
        atoms, idx = ((mu, 1.0),), [t]

    owner = [(prof.group, s) for prof in profiles for s in prof.schemes]
    entries = []
    for (p, w), t in zip(atoms, idx):
        (i, j), gamma = owner[int(np.argmin(agent[t]))]
        obeyed = p * gamma[:, i] @ table.cp[0][:, i] + (1.0 - p) * gamma[:, j] @ table.cp[1][:, j]
        if obeyed > jp2[t] + BEST_RESPONSE_TOL:
            raise SolverError("recommended scheme is not principal-optimal at its posterior")
        entries.append(RecommendedScheme((i, j), gamma, (w * p / mu, w * (1.0 - p) / (1.0 - mu)), p))
    return PersuasionReport(
        recommendation_distribution=tuple(entries),
        split=PosteriorSplit(atoms),
        principal_cost=principal_value,
        agent_cost=float(agent_value),
        prior=mu,
    )


# ---------------------------------------------------------------------------
# g4: costly information acquisition
# ---------------------------------------------------------------------------


def solve_g4(table: CostTable, prior, kappa: float, grid_size: int = 2001) -> AcquisitionReport:
    """Grid concavification of the g2 value net of the entropy-reduction
    channel cost; the supporting split is the principal's optimal acquisition.
    Gross and agent costs are the g2 curves averaged over the split's atoms,
    so both come from the same g2 choice at each atom."""
    mu = as_probability(prior)
    if not (0.0 < mu < 1.0):
        raise ValueError("acquisition needs an interior prior; degenerate beliefs are a g2 problem")
    kappa = float(kappa)
    if not (np.isfinite(kappa) and kappa >= 0.0):
        raise ValueError("kappa must be finite and nonnegative")
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")

    beliefs, jp2, ja2 = value_curves(table, grid_size)
    htilde = tilde_entropy(beliefs, mu)
    value, atoms = envelope_from_samples(beliefs, jp2 - kappa * htilde, mu)
    idx = [int(round(p * (grid_size - 1))) for p, _ in atoms]

    def expected(curve: np.ndarray) -> float:
        return sum(w * float(curve[t]) for (_, w), t in zip(atoms, idx))

    return AcquisitionReport(
        split=PosteriorSplit(atoms),
        gross_cost=expected(jp2),
        channel_cost=kappa * (1.0 - expected(htilde)),
        total_cost=float(value + kappa),
        agent_cost=expected(ja2),
        kappa=kappa,
        prior=mu,
        grid_size=grid_size,
    )
