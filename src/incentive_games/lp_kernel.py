"""Dense linear programming and polytope vertex enumeration.

Everything here is deliberately small-scale: a scheme of an m x n table has
m * n variables (16 for 4 x 4), so a two-phase tableau simplex with Bland's
rule (deterministic, cycle-free in exact arithmetic, each pivot one outer
product) and combinatorial vertex enumeration are both exact enough and fast
enough. Every variable is a probability, so x >= 0 is the only variable
domain: each tableau column is a variable of the caller's LP, with no shift,
mirror or split in between. The two phases are separate routines: phase
one reads only the constraints and returns a read-only feasible tableau, its
artificial columns and redundant rows deleted, and phase two minimizes an
objective from a copy of it, every column a candidate. So a caller that solves
many objectives over one polytope runs phase one once per polytope; solve_lp
and lexicographic_argmin are the two phases run back to back. The
lexicographic minimum goes on from the final tableau of phase two: a
nonbasic column with positive reduced cost is zero at every optimum, so it
is dropped, and no pinned LP is solved again.
Vertex enumeration has one core, enumerate_bounded_vertices: for a sequence
of bounded, nonempty polytopes of one shape (dim, row count and equality
rows), such as the response-pair polytopes of one table, it builds the
rank setup and the candidate bases once, solves the square systems of all
the polytopes in fixed-size batches, tests them with one feasibility rule
(Polytope.contains) and deduplicates each polytope's in basis order; a
polytope's vertices do not depend on the others or on the batch size.
enumerate_vertices first checks one polytope's boundedness and feasibility
with one LP, then runs the core on it alone.
Re-running any routine on the same input is bit-identical.
Where either one cannot finish (a capped pivot count, a capped number of
bases) it raises SolverError rather than reporting the input as invalid.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
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


def _bland_simplex(tableau: np.ndarray, basis: np.ndarray) -> bool:
    """Phase core: minimize the objective row in-place with Bland's rule.

    tableau rows: constraints then objective (last row); columns: variables
    then rhs (last column), every variable a candidate to enter. Returns True
    at an optimum and False when an entering column has no leaving row (the
    objective is unbounded below); raises SolverError when the phase needs
    more than _PIVOTS_PER_LINE pivots per tableau row plus column.
    """
    m = tableau.shape[0] - 1
    max_pivots = _PIVOTS_PER_LINE * sum(tableau.shape)
    for pivots in itertools.count():
        # Bland: smallest index with negative reduced cost
        negative = (tableau[-1, :-1] < -_PIVOT_TOL).nonzero()[0]
        if not negative.size:
            return True
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
            return False
        _pivot(tableau, leave, entering)
        basis[leave] = entering


class Tableau(NamedTuple):
    """A feasible simplex tableau of a region and its basis. Rows: the
    region's constraints (inequality rows first) less any that phase one
    found redundant, then the objective; columns: the region's variables,
    one slack per inequality row, then the rhs. It holds no artificial
    column."""

    array: np.ndarray
    basis: np.ndarray

    def solution(self, objective: np.ndarray) -> LpSolution:
        """The basic point of this tableau and its objective value."""
        y = np.zeros(self.array.shape[1] - 1)
        y[self.basis] = self.array[:-1, -1]
        x = y[: objective.shape[0]] + 0.0     # no -0.0 in the reported point
        return LpSolution(LpStatus.OPTIMAL, x, float(objective @ x))


def phase_one(region: LinearProgram | Polytope) -> Tableau | None:
    """Phase one of the two-phase simplex (Bland's rule) over the constraints
    of `region`; an objective is never read. Returns a feasible basis and its
    tableau, or None when the constraints are infeasible.

    An artificial column starts each row that no slack starts. Once the
    artificials' sum is minimized to zero, those still basic are driven out
    where a pivot exists; a row where none exists is redundant and is deleted,
    and so are the artificial columns (Bertsimas & Tsitsiklis 1997, section
    3.5). The arrays are read-only, so one result can start the phase two of
    any number of objectives over the same constraints."""
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

    tab = np.zeros((m + 1, n_real + need_art.size + 1))
    tab[:m, :n] = np.vstack([A, E])
    tab[np.arange(n_slack), n + np.arange(n_slack)] = 1.0
    tab[:m, :n_real][neg] *= -1.0         # normalize to nonnegative rhs
    tab[need_art, basis[need_art]] = 1.0
    tab[:m, -1] = brhs

    if need_art.size:
        tab[-1, n_real:-1] = 1.0
        for i in need_art:                       # price out artificial basics
            tab[-1] -= tab[i]
        scale = max(1.0, float(np.max(np.abs(brhs))))
        # an unbounded phase one is a float pathology: count it as empty
        if not _bland_simplex(tab, basis) or -tab[-1, -1] > FEAS_TOL * scale:
            return None
        for i in np.flatnonzero(basis >= n_real):
            cand = (np.abs(tab[i, :n_real]) > _PIVOT_TOL).nonzero()[0]
            if cand.size:
                basis[i] = cand[0]
                _pivot(tab, i, basis[i])
        kept = basis < n_real
        tab = np.delete(tab[np.append(kept, True)], np.s_[n_real:-1], axis=1)
        basis = basis[kept]
    tab.setflags(write=False)
    basis.setflags(write=False)
    return Tableau(tab, basis)


def phase_two(objective: np.ndarray, start: Tableau) -> Tableau | None:
    """Phase two on a copy of a phase-one result: minimize `objective` (one
    entry per variable of the region) from that feasible basis. Returns the
    optimal tableau, or None when the LP is unbounded."""
    tab = start.array.copy()
    basis = start.basis.copy()
    tab[-1, :] = 0.0                        # fresh objective row
    tab[-1, : objective.shape[0]] = objective
    for i in range(basis.size):
        j = basis[i]
        if tab[-1, j] != 0.0:
            tab[-1] -= tab[-1, j] * tab[i]
    return Tableau(tab, basis) if _bland_simplex(tab, basis) else None


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
    tab, basis = optimum
    dropped = np.zeros(tab.shape[1] - 1, dtype=bool)
    for t in range(objective.shape[0]):
        nonbasic = np.ones_like(dropped)
        nonbasic[basis] = False
        dropped |= nonbasic & (tab[-1, :-1] > _PIVOT_TOL)
        if np.all(dropped | ~nonbasic):
            break
        tab[:, :-1][:, dropped] = 0.0
        tab[-1] = -tab[:-1][basis == t].sum(axis=0)     # objective x_t, priced out
        tab[-1, t] += 1.0
        _bland_simplex(tab, basis)      # x_t >= 0: never unbounded
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
# The square systems of the candidate bases are assembled, factored and
# solved in batches of _BASES_PER_BLOCK // 4, across polytopes: enough that
# per-batch overhead vanishes, few enough that a batch's (batch, dim, dim)
# systems and their temporaries stay a few MB (about 5 MB at dim 12).
_BASES_PER_BLOCK = 8192
_RESIDUAL_TOL = 1e-9     # a candidate system solved worse than this is singular


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
    """All basic feasible solutions of a bounded polytope, deduplicated, in
    basis order (see enumerate_bounded_vertices). One LP first decides that
    `p` is bounded (ValueError if not) and nonempty ([] if empty)."""
    if not _bounded_and_feasible(p):
        return []
    return enumerate_bounded_vertices([p])[0]


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
            f"vertex enumeration would examine {n_bases} bases (limit {_MAX_BASES}); "
            "polytope too large for combinatorial enumeration"
        )
    return p.equality_matrix[keep], p.equality_rhs[keep]


def _candidate_index(G: np.ndarray, E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Every choice of dim - len(E) rows of the inequality rows G (stacked
    per polytope, the x_t >= 0 rows last), in lexicographic order, as an
    index array; minus two kinds of choice that give no vertex:
    - one with a row that is zero in every polytope: the system is singular,
      its LU keeps that row zero, and det is exactly 0;
    - one whose x_t >= 0 rows zero the whole support of an equality row with
      |rhs| > 2 * _RESIDUAL_TOL * (1 + sum of |coefficients|): the system
      forces |x_t| <= _RESIDUAL_TOL there, so the computed residual on the
      equality row exceeds _RESIDUAL_TOL.
    """
    n_rows, d = G.shape[1:]
    k = d - E.shape[0]
    n_bases = math.comb(n_rows, k)
    combos = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n_rows), k)),
                         dtype=np.min_scalar_type(n_rows), count=n_bases * k).reshape(n_bases, k)
    excluded = [(np.flatnonzero(~np.any(G, axis=(0, 2))), 1)]     # rows zero in every polytope
    for row, rhs in zip(E, f):
        if abs(rhs) > 2 * _RESIDUAL_TOL * (1 + np.sum(np.abs(row))):
            support = np.flatnonzero(row)
            excluded.append((n_rows - d + support, support.size))
    chosen = np.zeros(n_rows, dtype=bool)
    for rows, needed in excluded:
        chosen[:] = False
        chosen[rows] = True
        combos = combos[np.count_nonzero(chosen[combos], axis=1) < needed]
    return combos


def enumerate_bounded_vertices(polytopes: Iterable[Polytope]) -> list[list[np.ndarray]]:
    """The vertices of each of a sequence of bounded, nonempty polytopes that
    share dim, the number of constraint rows and the equality rows (say the
    response-pair polytopes of one table): per polytope, its basic feasible
    solutions, deduplicated, in basis order.

    Combinatorial active-set enumeration: every choice of dim - rank(eq)
    inequalities (the constraint rows, then -x_t <= 0 for each t in order),
    made tight together with a maximal independent subset of the equality
    rows (taken in row order), is solved as a square system and kept if it
    satisfies every row of its polytope (Polytope.contains). The rank setup
    and the candidate index array are built once for all the polytopes; the
    systems, polytope by polytope and each polytope's bases in lexicographic
    order, go through in batches of a quarter of _BASES_PER_BLOCK, each step
    one batched array operation whose per-system result does not depend on
    the batch. A candidate is a new vertex of its polytope when its L-inf
    distance to every vertex kept before it exceeds DEDUPE_TOL. More than
    _MAX_BASES candidate bases per polytope raise SolverError before any is
    built. Feasibility and boundedness are the caller's to establish.
    """
    polytopes = list(polytopes)
    if not polytopes:
        return []
    p0 = polytopes[0]
    d, n_ineq = p0.dim, p0.constraint_matrix.shape[0]
    for p in polytopes:
        if (p.dim != d or p.constraint_matrix.shape[0] != n_ineq
                or not np.array_equal(p.equality_matrix, p0.equality_matrix)
                or not np.array_equal(p.equality_rhs, p0.equality_rhs)):
            raise ValueError("batched polytopes must share dim, row count and equality rows")
    E, f = enumeration_setup(p0)
    n_eq = E.shape[0]
    G = np.stack([np.vstack([p.constraint_matrix, -np.eye(d)]) for p in polytopes])   # x >= 0 as -x <= 0
    h = np.stack([np.concatenate([p.rhs, np.zeros(d)]) for p in polytopes])
    combos = _candidate_index(G, E, f)
    # max |entry| of a system is the max over its rows' maxima: max is exact
    row_max = np.max(np.abs(G), axis=2)
    eq_max = float(np.max(np.abs(E))) if n_eq else 0.0
    unique: list[list[np.ndarray]] = [[] for _ in polytopes]
    n_cand = combos.shape[0]
    batch = max(1, _BASES_PER_BLOCK // 4)
    for start in range(0, len(polytopes) * n_cand, batch):
        owner, c = np.divmod(np.arange(start, min(start + batch, len(polytopes) * n_cand)), n_cand)
        rows = combos[c]
        mats = np.empty((c.size, d, d))
        rhss = np.empty((c.size, d))
        mats[:, :n_eq] = E
        rhss[:, :n_eq] = f
        mats[:, n_eq:] = G[owner[:, None], rows]
        rhss[:, n_eq:] = h[owner[:, None], rows]
        scale = np.max(row_max[owner[:, None], rows], axis=1, initial=eq_max)
        with np.errstate(all="ignore"):
            dets = np.linalg.det(mats)
        ok = np.abs(dets) > 1e-12 * np.maximum(1.0, scale ** d)
        mats, rhss, owner = mats[ok], rhss[ok], owner[ok]
        xs = np.linalg.solve(mats, rhss[..., None])[..., 0]
        resid = np.max(np.abs(np.einsum("bij,bj->bi", mats, xs) - rhss), axis=1)
        # x >= -FEAS_TOL is also a test of contains: checked here for the
        # whole batch, it leaves contains fewer points per polytope
        good = ~(resid > _RESIDUAL_TOL) & np.all(np.isfinite(xs) & (xs >= -FEAS_TOL), axis=1)
        xs, owner = xs[good], owner[good]
        for q in owner[np.flatnonzero(np.diff(owner, prepend=-1))]:   # owner is sorted
            pts = xs[owner == q]
            pts = pts[polytopes[q].contains(pts)]
            # Greedy dedupe in basis order, one pass per kept vertex: the
            # earliest remaining candidate is always kept, and drops every
            # later one near it.
            for u in unique[q]:
                pts = pts[np.abs(pts - u).max(axis=1) > DEDUPE_TOL]
            while len(pts):
                unique[q].append(pts[0].copy())
                pts = pts[np.abs(pts - pts[0]).max(axis=1) > DEDUPE_TOL]
    return unique
