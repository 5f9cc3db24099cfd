"""Dense linear programming and polytope vertex enumeration.

Everything here is deliberately small-scale: a scheme of an m x n table has
m * n variables (16 for 4 x 4), so a two-phase tableau simplex with Bland's
rule (deterministic, cycle-free in exact arithmetic, each pivot one outer
product) and combinatorial vertex enumeration are both exact enough and fast
enough. Every variable is a probability, so x >= 0 is the only variable
domain: each tableau column is a variable of the caller's LP, with no shift,
mirror or split in between. The two phases are separate routines: phase
one reads only the constraints and returns a read-only feasible tableau, and
phase two minimizes an objective from a copy of it. So a caller that solves
many objectives over one polytope runs phase one once per polytope; solve_lp
and lexicographic_argmin are the two phases run back to back. The
lexicographic minimum goes on from the final tableau of phase two: a
nonbasic column with positive reduced cost is zero at every optimum, so it
is dropped, and no pinned LP is solved again.
Enumeration checks boundedness with one LP, then solves the candidate bases
in fixed-size blocks of batched square systems, tests them with one
feasibility rule (Polytope.contains) and deduplicates in basis order.
Re-running any routine on the same input is bit-identical.
Where either one cannot finish (a capped pivot count, a capped number of
bases) it raises SolverError rather than reporting the input as invalid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

FEAS_TOL = 1e-8          # constraint satisfaction tolerance
DEDUPE_TOL = 1e-9        # L-inf distance under which two vertices are one
_PIVOT_TOL = 1e-9        # reduced-cost / pivot element threshold
# Pivots one simplex phase may take per row plus column of its tableau. The
# solvers' LPs have finished within 1x wherever measured; Bland's rule rules
# out cycling only in exact arithmetic, and a phase that cycles never ends.
_PIVOTS_PER_LINE = 10


class SolverError(RuntimeError):
    """The solver could not answer a valid input: an internal invariant
    failed or a capacity limit was hit (distinct from input validation)."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _as_matrix(a, cols: int, name: str) -> np.ndarray:
    if a is None:
        return np.zeros((0, cols))
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[1] != cols:
        raise ValueError(f"{name} must be a 2-D array with {cols} columns, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    return m


def _as_vector(b, rows: int, name: str) -> np.ndarray:
    if b is None:
        return np.zeros(0)
    v = np.asarray(b, dtype=float).reshape(-1)
    if v.shape[0] != rows:
        raise ValueError(f"{name} must have length {rows}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _set_constraints(obj, d: int) -> None:
    """Validate and normalize, in place, the constraint fields that
    LinearProgram and Polytope share, for `d` variables."""
    a = _as_matrix(obj.constraint_matrix, d, "constraint_matrix")
    e = _as_matrix(obj.equality_matrix, d, "equality_matrix")
    object.__setattr__(obj, "constraint_matrix", a)
    object.__setattr__(obj, "rhs", _as_vector(obj.rhs, a.shape[0], "rhs"))
    object.__setattr__(obj, "equality_matrix", e)
    object.__setattr__(obj, "equality_rhs", _as_vector(obj.equality_rhs, e.shape[0], "equality_rhs"))


@dataclass(frozen=True)
class LinearProgram:
    """min objective @ x  s.t.  constraint_matrix @ x <= rhs,
    equality_matrix @ x = equality_rhs, x >= 0."""

    objective: np.ndarray
    constraint_matrix: np.ndarray | None = None
    rhs: np.ndarray | None = None
    equality_matrix: np.ndarray | None = None
    equality_rhs: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        if not np.all(np.isfinite(c)):
            raise ValueError("objective must be finite")
        object.__setattr__(self, "objective", c)
        _set_constraints(self, c.shape[0])

    @property
    def dim(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    point: np.ndarray | None = None
    value: float | None = None

    @property
    def optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


@dataclass(frozen=True)
class Polytope:
    """A bounded feasible region in x >= 0; same constraint data as
    LinearProgram minus the objective."""

    dim: int
    constraint_matrix: np.ndarray | None = None
    rhs: np.ndarray | None = None
    equality_matrix: np.ndarray | None = None
    equality_rhs: np.ndarray | None = None

    def __post_init__(self):
        d = int(self.dim)
        if d <= 0:
            raise ValueError("dim must be positive")
        object.__setattr__(self, "dim", d)
        _set_constraints(self, d)

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        """Per-variable (lower, upper) bounds: always x >= 0."""
        return ((0.0, math.inf),) * self.dim

    def lp(self, objective) -> LinearProgram:
        return LinearProgram(
            objective=objective,
            constraint_matrix=self.constraint_matrix,
            rhs=self.rhs,
            equality_matrix=self.equality_matrix,
            equality_rhs=self.equality_rhs,
        )

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        """Whether a point (d,) lies in the polytope within FEAS_TOL; for a
        batch (B, d), a mask over its rows. Each row's products are summed the
        same way whatever the batch, so a row's answer never depends on it."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        ok = np.all(pts >= -FEAS_TOL, axis=1)
        if self.constraint_matrix.shape[0]:
            ok &= ~np.any(np.einsum("bj,ij->bi", pts, self.constraint_matrix) > self.rhs + FEAS_TOL, axis=1)
        if self.equality_matrix.shape[0]:
            resid = np.einsum("bj,ij->bi", pts, self.equality_matrix) - self.equality_rhs
            ok &= ~np.any(np.abs(resid) > FEAS_TOL, axis=1)
        return bool(ok[0]) if x.ndim < 2 else ok


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot in place: scale `row` to a unit entry at `col`,
    then subtract its multiples from every other row with a nonzero entry
    there (one outer product; the same products and differences as a loop
    over those rows)."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    tableau[rows] -= factors[rows, None] * tableau[row]


def _bland_simplex(tableau: np.ndarray, basis: np.ndarray, n_vars: int):
    """Phase core: minimize the objective row in-place with Bland's rule.

    tableau rows: constraints then objective (last row); columns: variables
    then rhs (last column). Returns "optimal" or "unbounded"; raises
    SolverError when the phase needs more than _PIVOTS_PER_LINE pivots per
    tableau row plus column.
    """
    m = tableau.shape[0] - 1
    max_pivots = _PIVOTS_PER_LINE * sum(tableau.shape)
    for pivots in itertools.count():
        # Bland: smallest index with negative reduced cost
        negative = (tableau[-1, :n_vars] < -_PIVOT_TOL).nonzero()[0]
        if not negative.size:
            return "optimal"
        if pivots == max_pivots:
            raise SolverError(
                f"simplex phase did not finish within {max_pivots} pivots "
                f"on a {m}-row tableau (floating-point cycling)"
            )
        entering = int(negative[0])
        col = tableau[:m, entering]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        # round-off below 0 is degenerate, not a step back
        ratios = np.maximum(tableau[rows, -1], 0.0) / col[rows]
        leave = -1
        best = np.inf
        # near ties within 1e-12 go to the smaller basic index; the rule
        # depends on scan order, so it stays a sequential scan
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best - 1e-12 or (
                abs(ratio - best) <= 1e-12 and (leave < 0 or basis[i] < basis[leave])
            ):
                best = ratio
                leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tableau, leave, entering)
        basis[leave] = entering


class Tableau(NamedTuple):
    """A simplex tableau and its basis. Rows: the constraints (inequality
    rows first), then the objective; columns: the region's variables, one
    slack per inequality row, the artificials, then the rhs. The first
    n_real columns are the non-artificial ones."""

    array: np.ndarray
    basis: np.ndarray
    n_real: int

    def solution(self, objective: np.ndarray) -> LpSolution:
        """The basic point of this tableau and its objective value."""
        y = np.zeros(self.array.shape[1] - 1)
        y[self.basis] = self.array[:-1, -1]
        x = y[: objective.shape[0]] + 0.0     # no -0.0 in the reported point
        return LpSolution(LpStatus.OPTIMAL, x, float(objective @ x))


def phase_one(region: LinearProgram | Polytope) -> Tableau | None:
    """Phase one of the two-phase simplex (Bland's rule) over the constraints
    of `region`; an objective is never read. Returns a feasible basis and its
    tableau, artificial columns kept, after the artificials still basic at
    zero are driven out where a pivot exists; None when the constraints are
    infeasible. The arrays are read-only, so one result can start the phase
    two of any number of objectives over the same constraints."""
    A, b, E, f = region.constraint_matrix, region.rhs, region.equality_matrix, region.equality_rhs
    n = region.dim
    m = A.shape[0] + E.shape[0]
    n_slack = A.shape[0]                    # inequality rows come first
    n_real = n + n_slack
    brhs = np.concatenate([b, f])
    neg = brhs < 0
    brhs = np.abs(brhs)
    # initial basis: the slack of each inequality row left unnegated, an
    # artificial for the other rows
    need_art = np.flatnonzero(neg | (np.arange(m) >= n_slack))
    basis = n + np.arange(m)
    basis[need_art] = n_real + np.arange(need_art.size)
    n_total = n_real + need_art.size

    tab = np.zeros((m + 1, n_total + 1))
    tab[:m, :n] = np.vstack([A, E])
    tab[np.arange(n_slack), n + np.arange(n_slack)] = 1.0
    tab[:m, :n_real][neg] *= -1.0         # normalize to nonnegative rhs
    tab[need_art, basis[need_art]] = 1.0
    tab[:m, -1] = brhs

    if need_art.size:
        tab[-1, n_real:n_total] = 1.0
        for i in need_art:                       # price out artificial basics
            tab[-1] -= tab[i]
        status = _bland_simplex(tab, basis, n_total)
        phase1 = -tab[-1, -1]
        scale = max(1.0, float(np.max(np.abs(brhs))))
        if status == "unbounded" or phase1 > FEAS_TOL * scale:
            return None
        # drive artificials still basic at zero out where possible; rows where
        # no pivot exists are redundant and their zero artificial stays basic
        for i in np.flatnonzero(basis >= n_real):
            cand = (np.abs(tab[i, :n_real]) > _PIVOT_TOL).nonzero()[0]
            if cand.size:
                basis[i] = cand[0]
                _pivot(tab, i, basis[i])
    tab.setflags(write=False)
    basis.setflags(write=False)
    return Tableau(tab, basis, n_real)


def phase_two(objective: np.ndarray, start: Tableau) -> Tableau | None:
    """Phase two on a copy of a phase-one result: minimize `objective` (one
    entry per variable of the region) from that feasible basis. Returns the
    optimal tableau, or None when the LP is unbounded. Artificial columns
    never re-enter because the entering scan in _bland_simplex is limited to
    the first n_real columns."""
    tab = start.array.copy()
    basis = start.basis.copy()
    tab[-1, :] = 0.0                        # fresh objective row
    tab[-1, : objective.shape[0]] = objective
    for i in range(basis.size):
        j = basis[i]
        if tab[-1, j] != 0.0:
            tab[-1] -= tab[-1, j] * tab[i]
    if _bland_simplex(tab, basis, start.n_real) == "unbounded":
        return None
    return Tableau(tab, basis, start.n_real)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase dense simplex (Bland's rule). Deterministic; minimization."""
    start = phase_one(lp)
    if start is None:
        return LpSolution(LpStatus.INFEASIBLE)
    optimum = phase_two(lp.objective, start)
    return LpSolution(LpStatus.UNBOUNDED) if optimum is None else optimum.solution(lp.objective)


def lexicographic_descent(objective: np.ndarray, optimum: Tableau) -> LpSolution:
    """The lexicographically smallest optimal point (the lex-min optimal
    vertex), continued in place on the final phase-two tableau of
    `objective` (Isermann 1982).

    At an optimal basis c @ x = z* + sum over nonbasic j of r_j x_j for every
    feasible x, each reduced cost r_j >= 0, so a column with r_j > 0 (beyond
    the simplex's _PIVOT_TOL) is zero at every optimum. Zeroing those columns
    leaves the optimal face; x_0 is then minimized on it from the current,
    feasible basis, the face narrowed the same way, then x_1, and so on, with
    no pinned equality and no second phase one. Once every nonbasic column is
    dropped the face is the current vertex, and the walk stops.
    """
    tab, basis, n_real = optimum
    dropped = np.zeros(n_real, dtype=bool)
    for t in range(objective.shape[0]):
        nonbasic = ~np.isin(np.arange(n_real), basis)
        dropped |= nonbasic & (tab[-1, :n_real] > _PIVOT_TOL)
        if np.all(dropped | ~nonbasic):
            break
        tab[:, :n_real][:, dropped] = 0.0
        tab[-1] = -tab[:-1][basis == t].sum(axis=0)     # objective x_t, priced out
        tab[-1, t] += 1.0
        _bland_simplex(tab, basis, n_real)      # x_t >= 0: never unbounded
    return optimum.solution(objective)


def lexicographic_argmin(lp: LinearProgram) -> LpSolution:
    """The lexicographically smallest optimal point of `lp`: phase one, phase
    two, then lexicographic_descent on the optimal tableau."""
    start = phase_one(lp)
    if start is None:
        return LpSolution(LpStatus.INFEASIBLE)
    optimum = phase_two(lp.objective, start)
    if optimum is None:
        return LpSolution(LpStatus.UNBOUNDED)
    return lexicographic_descent(lp.objective, optimum)


# ---------------------------------------------------------------------------
# vertex enumeration
# ---------------------------------------------------------------------------

_MAX_BASES = 400_000
# Candidate bases assembled, factored and solved together: large enough that
# per-block overhead vanishes, small enough that the (block, dim, dim) systems
# stay a few MB (at the 400k cap with dim 16 the whole batch would be 0.8 GB).
_BASES_PER_BLOCK = 8192


def _bounded_and_feasible(p: Polytope) -> bool:
    """False for an empty polytope; ValueError for an unbounded one.

    One LP maximizes the sum of the coordinates. Every x_t is >= 0, so a
    finite maximum bounds each x_t; conversely an unbounded x_t makes the LP
    unbounded. Its phase one decides feasibility.
    """
    sol = solve_lp(p.lp(-np.ones(p.dim)))
    if sol.status is LpStatus.UNBOUNDED:
        raise ValueError("polytope is unbounded")
    return sol.status is LpStatus.OPTIMAL


def enumerate_vertices(p: Polytope) -> list[np.ndarray]:
    """All basic feasible solutions of a bounded polytope, deduplicated.

    Combinatorial active-set enumeration: every choice of dim - rank(eq)
    inequalities (the constraint rows, then -x_t <= 0 for each t in order),
    made tight together with a maximal independent subset of
    the equality rows (taken in row order), is solved as a square system and
    kept if it satisfies every row; the candidate bases go through in
    lexicographic blocks of _BASES_PER_BLOCK, each one batched array
    operation per step. A candidate is a new vertex when its L-inf distance to
    every vertex kept before it, in basis order, exceeds DEDUPE_TOL.
    Unbounded input raises ValueError; more than _MAX_BASES candidate bases
    raise SolverError before any is built.
    """
    d = p.dim
    if not _bounded_and_feasible(p):
        return []

    G = np.vstack([p.constraint_matrix, -np.eye(d)])    # x >= 0 as -x <= 0
    h = np.concatenate([p.rhs, np.zeros(d)])
    keep: list[int] = []
    for r in range(p.equality_matrix.shape[0]):
        if np.linalg.matrix_rank(p.equality_matrix[keep + [r]]) > len(keep):
            keep.append(r)
    E, f = p.equality_matrix[keep], p.equality_rhs[keep]
    n_eq = len(keep)
    k = d - n_eq
    n_bases = math.comb(G.shape[0], k)
    if n_bases > _MAX_BASES:
        raise SolverError(
            f"vertex enumeration would examine {n_bases} bases (limit {_MAX_BASES}); "
            "polytope too large for combinatorial enumeration"
        )

    combos = itertools.combinations(range(G.shape[0]), k)
    unique: list[np.ndarray] = []
    for start in range(0, n_bases, _BASES_PER_BLOCK):
        b = min(_BASES_PER_BLOCK, n_bases - start)
        idx = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, b)),
                          dtype=np.intp, count=b * k).reshape(b, k)
        mats = np.empty((b, d, d))
        rhss = np.empty((b, d))
        mats[:, :n_eq] = E
        rhss[:, :n_eq] = f
        mats[:, n_eq:] = G[idx]
        rhss[:, n_eq:] = h[idx]
        with np.errstate(all="ignore"):
            dets = np.linalg.det(mats)
        ok = np.abs(dets) > 1e-12 * np.maximum(1.0, np.max(np.abs(mats), axis=(1, 2)) ** d)
        mats, rhss = mats[ok], rhss[ok]
        xs = np.linalg.solve(mats, rhss[..., None])[..., 0]
        resid = np.max(np.abs(np.einsum("bij,bj->bi", mats, xs) - rhss), axis=1)
        xs = xs[~(resid > 1e-9) & np.all(np.isfinite(xs), axis=1)]
        pts = xs[p.contains(xs)]
        # Greedy dedupe in basis order, one pass per kept vertex: the earliest
        # remaining candidate is always kept, and drops every later one near it.
        for u in unique:
            pts = pts[np.max(np.abs(pts - u), axis=1) > DEDUPE_TOL]
        while len(pts):
            unique.append(pts[0].copy())
            pts = pts[np.max(np.abs(pts - pts[0]), axis=1) > DEDUPE_TOL]
    return unique
