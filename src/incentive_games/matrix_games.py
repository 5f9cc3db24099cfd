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
reproducible bit for bit. One per-table cache holds what no belief changes:
the vertex profiles (_pair_profiles), per response pair that can be
principal-optimal, only the vertices that a tie rule picks at some belief.
One parametric walk of the belief from 0 to 1 (lp_kernel.parametric_walk)
per pair finds them from the phase one of its polytope: it breaks the
principal's ties by the agent's least cost first, as g3 does, and where the
agent broke a tie it forks to break them by the lex-min rule, as g2 does. A
pair whose least possible principal cost lies above the walked pairs' lower
envelope by a margin at every belief is neither walked nor given a phase
one, and a walked pair whose vertices all lie that far above it is dropped;
the kept profiles are the ones every pair's walks give. No vertex is
enumerated, so the size of a table limits nothing but time. g2, the value
curves, g3 and g4 read only these profiles: once they are built, g2 at any
belief and g3 at any prior take no pivot. Only g1 solves LPs per call.
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
    Polytope,
    SolverError,
    lexicographic_descent,
    parametric_walk,
    phase_one,
    phase_two,
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
    """Reshape a stacked-columns LP point (d,) into an (m, n) scheme, or a
    stack of them (B, d) into (B, m, n), washing out solver residue: clip
    tiny negatives and rescale each column to sum to 1."""
    gamma = np.clip(np.swapaxes(x.reshape(*x.shape[:-1], n, m), -1, -2), 0.0, None) + 0.0
    sums = gamma.sum(axis=-2, keepdims=True)
    if np.any(sums < 0.5):
        raise SolverError("scheme column collapsed; LP solution is not a distribution")
    return gamma / sums


def _state_cost(mats: tuple[np.ndarray, np.ndarray], k: int, rec: int) -> np.ndarray:
    """State k's cost under `mats` (cp or ca) of a stacked-columns scheme
    to which the agent responds with `rec` in state k."""
    m, n = mats[k].shape
    c = np.zeros(m * n)
    c[rec * m : (rec + 1) * m] = mats[k][:, rec]
    return c


def _same_vertex(x) -> np.ndarray:
    """The "same vertex" rule of the profiles and the oracle's group sort:
    points equal after rounding to 9 decimals (-0.0 made 0.0) are one."""
    return np.round(x, 9) + 0.0


def _scheme_key(x: np.ndarray) -> tuple:
    return tuple(_same_vertex(np.asarray(x).reshape(-1)))


# ---------------------------------------------------------------------------
# g1 and g2
# ---------------------------------------------------------------------------


def _first_optimal_lexmin(objectives: list[np.ndarray], starts, what: str) -> tuple[int, np.ndarray]:
    """Phase two of each LP from its phase-one result (None: an empty
    polytope); the index of the first LP whose value is within _OPTIMAL_TOL
    of the least (the principal's tie rule over LP values) and its
    lex-min optimal point, continued on its phase-two tableau."""
    optima = [None if s is None else phase_two(c, s) for c, s in zip(objectives, starts)]
    values = np.array([np.inf if t is None else float(c @ t.solution(c.shape[0]))
                       for c, t in zip(objectives, optima)])
    if np.isinf(values.min()):
        raise SolverError(f"no inducible {what}")
    best = int(np.argmax(values <= values.min() + _OPTIMAL_TOL))
    return best, lexicographic_descent(objectives[best], optima[best])


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
        objectives, starts = [], []
        for j in range(n):
            rows = _best_response_rows(table, k, j)
            objectives.append(_state_cost(table.cp, k, j))
            starts.append(phase_one(Polytope(m * n, rows, np.zeros(rows.shape[0]), eq, eqr)))
        j, x = _first_optimal_lexmin(objectives, starts, f"agent response in state {k}")
        gamma = _to_matrix(x, m, n)
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


def solve_g2(table: CostTable, belief) -> EquilibriumReport:
    """Bayesian game: one state-independent scheme; the response pair with
    the cheapest induced (feasible) scheme wins, the first pair within
    _OPTIMAL_TOL of the least on ties, and within it the lex-smallest
    vertex within _OPTIMAL_TOL of the pair's least. It is one evaluation of
    the cached vertex profiles by value_curves' rule, so the principal cost
    is the g2 value jp2 and the agent cost ja2, bit for bit."""
    mu = as_probability(belief)
    profiles = _pair_profiles(table)
    jp2, ja2, chosen, vertex = _curves_from_profiles(profiles, np.array([mu]))
    prof, v = profiles[chosen[0]], vertex[0]
    outcomes = tuple(StateOutcome(rec, float(prof.principal[v, k]), float(prof.agent[v, k]))
                     for k, rec in enumerate(prof.group))
    return EquilibriumReport(
        scheme=IncentiveScheme(prof.schemes[v]),
        agent_actions=prof.group,
        principal_cost=float(jp2[0]),
        agent_cost=float(ja2[0]),
        per_state=outcomes,
        belief=mu,
    )


# ---------------------------------------------------------------------------
# per-table cache: vertex profiles and value curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PairProfile:
    group: tuple[int, int]
    schemes: np.ndarray                   # (n_vertices, m, n) lex-sorted vertex schemes
    principal: np.ndarray                 # (n_vertices, 2) per-state costs
    agent: np.ndarray                     # (n_vertices, 2)


def _dominated(lines: np.ndarray, kept: np.ndarray, margin: float) -> np.ndarray:
    """Per row (p0, p1) of `lines`, whether mu * p0 + (1 - mu) * p1 lies
    above the lower envelope of the `kept` lines by more than `margin` at
    every mu in [0, 1]. A kept line sits more than the margin below a line
    on all of [0, 1], on some [0, x), on some (x, 1] or nowhere, as the gap
    is affine in mu; the line is dominated when one kept line covers all of
    [0, 1], or the largest left end is past the smallest right start. No
    breakpoint of the envelope is needed, and the cost is O(lines * kept)."""
    above1, above0 = (lines[:, None, k] - kept[None, :, k] for k in (0, 1))   # at mu = 1 and 0
    gap1, gap0 = above1 - margin, above0 - margin
    left, right = (gap0 > 0) & (gap1 <= 0), (gap1 > 0) & (gap0 <= 0)
    cross = gap0 / np.where(left | right, above0 - above1, 1.0)     # where the gap is the margin
    ends = np.where(left, cross, -np.inf).max(axis=1, initial=-np.inf)
    starts = np.where(right, cross, np.inf).min(axis=1, initial=np.inf)
    return np.any((gap0 > 0) & (gap1 > 0), axis=1) | (ends > starts)


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The index of each distinct row's first occurrence, in lexicographic
    order of the rows (np.unique(rows, axis=0, return_index=True)[1]): a
    stable sort keeps equal rows in their given order."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return order[new]


def _profile(table: CostTable, group: tuple[int, int], points: list[np.ndarray]) -> _PairProfile | None:
    """A pair's profile from its walk's and forks' points: sorted
    lexicographically by the stacked-columns point under the "same vertex"
    rounding (_same_vertex), equal ones kept once, so the first optimal one
    is the lex-min; None when no point is a scheme."""
    m, n = table.m, table.n
    i, j = group
    verts = np.array(points).reshape(-1, m * n)
    # a walk from a phase one that lost feasibility on a tiny pivot can
    # reach a point whose columns are no distribution: it is no scheme
    verts = verts[np.all(verts.reshape(-1, n, m).sum(axis=2) >= 0.5, axis=1)]
    if not len(verts):
        return None
    mats = _to_matrix(verts[_unique_rows(_same_vertex(verts))], m, n)
    # per vertex, state one's cost at response i and state two's at j:
    # (1, m) @ (m, 1) products, the dot products of a scheme's columns
    p, a = (np.concatenate([mats[:, None, :, i] @ c[0][:, i, None],
                            mats[:, None, :, j] @ c[1][:, j, None]], axis=1)[..., 0]
            for c in (table.cp, table.ca))
    return _PairProfile(group, np.ascontiguousarray(mats), p, a)


@lru_cache(maxsize=128)
def _pair_profiles(table: CostTable) -> tuple[_PairProfile, ...]:
    """Per response pair that can be principal-optimal somewhere, in pair
    order, the vertices that a tie rule picks at some belief, with their
    per-state costs (_profile).

    One parametric walk of the belief from 0 to 1 (lp_kernel.parametric_walk)
    finds a pair's vertices from the phase one of its polytope. Its levels
    break the principal's ties by the agent's least cost and then the
    lex-min rule, which gives g3's recommended scheme; where the agent broke
    a tie the walk forks, breaking them by the lex-min rule alone
    (Walk.forks), which gives g2's scheme. The profile holds the walk's
    points and its forks'.

    Most pairs can be skipped. A vertex's state-k principal cost is a
    distribution dotted with the response column, so the line L = (min
    cp0[:, i], min cp1[:, j]) lies below every vertex line of pair (i, j).
    The pairs are walked in increasing L(0) + L(1) order (ties in pair
    order), and a pair whose L lies above the lower envelope of the walked
    vertices' lines by more than a margin at every belief (_dominated) is
    neither walked nor given a phase one. After the walks a pair is dropped
    when each of its own lines lies above that envelope by the margin. This
    is sound: at every belief the envelope is met by a vertex of a kept pair
    (a dropped pair's lines all lie above it), so jp2 is at most the
    envelope, and a pruned pair's vertices lie above it by the margin, far
    more than _OPTIMAL_TOL, so no tie rule could pick them. The margin, 10 *
    BEST_RESPONSE_TOL * (1 + max |cp|), is above a vertex cost's round-off.
    A pair whose walk fails on round-off (an unbounded column) gets no
    profile and adds no line to the envelope, so it prunes no other pair."""
    n = table.n
    margin = 10 * BEST_RESPONSE_TOL * (1.0 + np.abs(table.cp).max())
    # a scheme column is a distribution, so no vertex of pair (i, j) costs
    # the principal less than the least entry of its response column
    bound = np.stack([np.repeat(table.cp[0].min(axis=0), n), np.tile(table.cp[1].min(axis=0), n)], axis=1)
    walked, kept = {}, np.empty((0, 2))
    for k in np.argsort(bound.sum(axis=1), kind="stable"):
        if _dominated(bound[k : k + 1], kept, margin)[0]:
            continue
        i, j = divmod(int(k), n)
        start = phase_one(_pair_polytope(table, i, j))
        levels = tuple((_state_cost(c, 0, i), _state_cost(c, 1, j)) for c in (table.cp, table.ca))
        walk = None if start is None else parametric_walk(start, levels)
        if walk is None:        # an empty polytope, or round-off made a bounded column unbounded
            continue
        prof = _profile(table, (i, j), [*walk.at, *walk.between, *(x for _, _, x in walk.forks)])
        if prof is not None:
            walked[k] = prof
            kept = np.vstack([kept, prof.principal])
    profiles = tuple(walked[k] for k in sorted(walked) if not _dominated(walked[k].principal, kept, margin).all())
    if not profiles:
        raise SolverError("no inducible response pair")
    return profiles


def _curves_from_profiles(
    profiles: tuple[_PairProfile, ...], beliefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The g2 choice over a belief grid, by the solver's tie rules (the
    first pair within _OPTIMAL_TOL of the least, then its lex-smallest
    vertex within _OPTIMAL_TOL of the pair's least): the principal value
    jp2 (the least), the agent cost ja2 at the chosen vertex, and per
    belief the index of the chosen pair in `profiles` and of its vertex."""
    mu = beliefs[None, :]
    pair_vals, pair_agent, pair_first = [], [], []
    for prof in profiles:
        v = prof.principal[:, :1] @ mu + prof.principal[:, 1:] @ (1.0 - mu)
        vmin = v.min(axis=0)
        first = np.argmax(v <= vmin + _OPTIMAL_TOL, axis=0)  # lex-smallest vertex
        pair_vals.append(vmin)
        pair_agent.append(prof.agent[first, 0] * beliefs + prof.agent[first, 1] * (1.0 - beliefs))
        pair_first.append(first)
    vals = np.vstack(pair_vals)
    jp2 = vals.min(axis=0)
    chosen = np.argmax(vals <= jp2 + _OPTIMAL_TOL, axis=0)   # first pair in lex order
    cols = np.arange(beliefs.shape[0])
    return jp2, np.vstack(pair_agent)[chosen, cols], chosen, np.vstack(pair_first)[chosen, cols]


def value_curves(table: CostTable, grid_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A uniform belief grid of `grid_size` points with, at each belief, the
    g2 principal value (piecewise affine and concave in the belief) and the
    agent cost at the principal's chosen scheme."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    beliefs = np.linspace(0.0, 1.0, grid_size)
    jp2, ja2, _, _ = _curves_from_profiles(_pair_profiles(table), beliefs)
    return beliefs, jp2, ja2


def agent_value_curve(table: CostTable, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled belief -> g2 agent cost at the principal's chosen scheme."""
    beliefs, _, ja2 = value_curves(table, grid_size)
    return beliefs, ja2


# ---------------------------------------------------------------------------
# g3: agent-driven persuasion
# ---------------------------------------------------------------------------


def _principal_breakpoints(principal: np.ndarray) -> list[float]:
    """Beliefs in (0, 1) where min over rows (p0, p1) of mu*p0 + (1 - mu)*p1
    changes line. The walk starts at mu = 0 and moves each time to the
    least-slope line at the first crossing with a line of smaller slope, so
    the slope falls at every step; each step is O(lines)."""
    lines = principal[_unique_rows(principal)]
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
      is principal-optimal there and whose agent cost is within
      _OPTIMAL_TOL of the least.
    - At mu = 0 or 1 no split is possible and g3 is g2: the report is
      solve_g2's scheme. At any prior g3 takes no pivot beyond building the
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
        (i, j), gamma = owner[int(np.argmax(agent[t] <= ja[t] + _OPTIMAL_TOL))]
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
    """Grid concavification of the per-posterior total cost, the g2 value
    plus the entropy-reduction channel cost kappa * (1 - h~); the supporting
    split is the principal's optimal acquisition, and the envelope's value at
    the prior is the total cost, read off that one objective. Gross and agent
    costs are the g2 curves averaged over the split's atoms, so both come
    from the same g2 choice at each atom."""
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
    total, atoms = envelope_from_samples(beliefs, jp2 + kappa * (1.0 - htilde), mu)
    idx = [int(round(p * (grid_size - 1))) for p, _ in atoms]

    def expected(curve: np.ndarray) -> float:
        return sum(w * float(curve[t]) for (_, w), t in zip(atoms, idx))

    return AcquisitionReport(
        split=PosteriorSplit(atoms),
        gross_cost=expected(jp2),
        channel_cost=kappa * (1.0 - expected(htilde)),
        total_cost=float(total),
        agent_cost=expected(ja2),
        kappa=kappa,
        prior=mu,
        grid_size=grid_size,
    )
