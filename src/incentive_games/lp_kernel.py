"""Dense linear programming on small polytopes in x >= 0.

Everything here is deliberately small-scale: a scheme of an m x n table has
m * n variables (16 for 4 x 4), so a two-phase tableau simplex with Bland's
rule (deterministic, cycle-free in exact arithmetic, each pivot one outer
product) is exact enough and fast enough. Every variable is a probability,
so x >= 0 is the only variable domain: each tableau column is a variable of
the caller's LP, with no shift, mirror or split in between. The two phases
are separate routines: phase one reads only the constraints and returns a
read-only feasible tableau, its artificial columns and redundant rows
deleted, and phase two minimizes an objective from a copy of it, every
column a candidate. So a caller that solves many objectives over one
polytope runs phase one once per polytope, and a caller that solves one LP
runs phase one and then phase two. phase_one returns None for an empty
region and phase_two None for an unbounded objective; there is no status
type. The lexicographic minimum (lexicographic_descent) goes on from the
final tableau of phase two: a nonbasic column with positive reduced cost is
zero at every optimum, so it is dropped, and no pinned LP is solved again.
parametric_walk follows the optimum of mu * a + (1 - mu) * b as mu runs
from 0 to 1, from one feasible tableau (Gass & Saaty 1955): it visits only
bases that are optimal for some mu, so the optimal vertices of the whole
family of objectives cost a few pivots, where listing every vertex of the
polytope would cost a combinatorial number of bases. Where a later level of
its lexicographic objective breaks a tie, it forks a copy that minimizes the
first level alone, so one walk gives the optima of both tie rules.
Every pivot of every routine goes through _pivot.
Re-running any routine on the same input is bit-identical. Where one cannot
finish (a capped pivot count) it raises SolverError rather than reporting
the input as invalid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FEAS_TOL = 1e-8          # constraint satisfaction tolerance
_PIVOT_TOL = 1e-9        # reduced-cost / pivot element threshold
# Pivots one simplex phase may take per row plus column of its tableau. The
# solvers' LPs have finished within 1x wherever measured; Bland's rule rules
# out cycling only in exact arithmetic, and a phase that cycles never ends.
_PIVOTS_PER_LINE = 10


class SolverError(RuntimeError):
    """The solver could not answer a valid input: an internal invariant
    failed or a capacity limit was hit (distinct from input validation)."""


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


@dataclass(frozen=True)
class Polytope:
    """The region constraint_matrix @ x <= rhs, equality_matrix @ x =
    equality_rhs, x >= 0 in `dim` variables: an LP's constraints, its
    objective going to phase two on its own. Missing rows are empty; every
    array is checked for shape and finiteness."""

    dim: int
    constraint_matrix: np.ndarray | None = None
    rhs: np.ndarray | None = None
    equality_matrix: np.ndarray | None = None
    equality_rhs: np.ndarray | None = None

    def __post_init__(self):
        d = int(self.dim)
        if d <= 0:
            raise ValueError("dim must be positive")
        a = _as_matrix(self.constraint_matrix, d, "constraint_matrix")
        e = _as_matrix(self.equality_matrix, d, "equality_matrix")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "constraint_matrix", a)
        object.__setattr__(self, "rhs", _as_vector(self.rhs, a.shape[0], "rhs"))
        object.__setattr__(self, "equality_matrix", e)
        object.__setattr__(self, "equality_rhs", _as_vector(self.equality_rhs, e.shape[0], "equality_rhs"))

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        """Per-variable (lower, upper) bounds: always x >= 0."""
        return ((0.0, math.inf),) * self.dim

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


def _leaving_row(tableau: np.ndarray, basis: np.ndarray, entering: int, m: int) -> int:
    """The ratio test over the first m rows for column `entering`: the row
    of the least ratio, near ties within 1e-12 going to the smaller basic
    index; -1 when no row bounds the column."""
    col = tableau[:m, entering]
    rows = (col > _PIVOT_TOL).nonzero()[0]
    # round-off below 0 is degenerate, not a step back
    ratios = np.maximum(tableau[rows, -1], 0.0) / col[rows]
    leave = -1
    best = np.inf
    # the rule depends on scan order, so it stays a sequential scan
    for i, ratio in zip(rows.tolist(), ratios.tolist()):
        if ratio < best - 1e-12 or (
            abs(ratio - best) <= 1e-12 and (leave < 0 or basis[i] < basis[leave])
        ):
            best = ratio
            leave = i
    return leave


def _cycling(pivots: int, m: int) -> SolverError:
    return SolverError(
        f"simplex phase did not finish within {pivots} pivots "
        f"on a {m}-row tableau (floating-point cycling)"
    )


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
            raise _cycling(max_pivots, m)
        entering = int(negative[0])
        leave = _leaving_row(tableau, basis, entering, m)
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

    def solution(self, dim: int) -> np.ndarray:
        """The basic point of this tableau in the region's `dim` variables
        (its slack columns dropped)."""
        y = np.zeros(self.array.shape[1] - 1)
        y[self.basis] = self.array[:-1, -1]
        return y[:dim] + 0.0     # no -0.0 in the reported point


def phase_one(region: Polytope) -> Tableau | None:
    """Phase one of the two-phase simplex (Bland's rule) over the constraints
    of `region`. Returns a feasible basis and its tableau, or None when the
    constraints are infeasible.

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


def lexicographic_descent(objective: np.ndarray, optimum: Tableau) -> np.ndarray:
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
    return optimum.solution(objective.shape[0])


# ---------------------------------------------------------------------------
# parametric objective
# ---------------------------------------------------------------------------


def _lex_negative(rows: np.ndarray) -> np.ndarray:
    """Per column, whether its first entry beyond _PIVOT_TOL, down `rows`,
    is negative: a lexicographically improving column."""
    big = np.abs(rows) > _PIVOT_TOL
    first = big.argmax(axis=0)
    return big.any(axis=0) & (rows[first, np.arange(rows.shape[1])] < 0.0)


class Walk(NamedTuple):
    """A parametric walk over 0 = beliefs[0] < beliefs[1] < ... <
    beliefs[-1] = 1: at[k] is the optimal point at mu = beliefs[k] exactly,
    between[k] the one at every mu strictly between beliefs[k] and
    beliefs[k + 1]. A fork (lo, hi, x) is the optimal point x of the first
    level alone, its ties broken by x_0, x_1, ..., at mu = lo = hi or at
    every mu strictly between lo < hi. There is one for each stop where a
    later level decided the optimum; at every other stop the walk's own
    point is the first level's optimum."""

    beliefs: tuple[float, ...]
    at: tuple[np.ndarray, ...]
    between: tuple[np.ndarray, ...]
    forks: tuple[tuple[float, float, np.ndarray], ...]


class _Unbounded(Exception):
    """A column of a parametric walk improves without bound."""


def parametric_walk(start: Tableau, levels) -> Walk | None:
    """The optimal points of a bounded region as mu runs from 0 to 1, for a
    lexicographic objective that moves with mu: mu * a + (1 - mu) * b for
    the first (a, b) of `levels`, its ties broken by the next level, and so
    on, the last ties by x_0, then x_1, ... (the lex-min rule). It is the
    parametric-objective simplex of Gass & Saaty (1955), started from the
    feasible tableau `start` (its objective row is not read), and it visits
    only bases that are optimal somewhere in [0, 1]. A column that is zero
    in every constraint row is held at zero. Returns None when a column
    improves without bound (as phase_two reports an unbounded LP).

    The tableau carries each level's reduced costs r_a and r_b, so that its
    reduced cost at mu is r(mu) = mu * r_a + (1 - mu) * r_b, and the rows of
    x_0, x_1, ... priced out; every pivot updates them all. A column improves
    when the first entry of its key beyond _PIVOT_TOL is negative, and the
    smallest such column enters (Bland's rule). Two keys are minimized in
    turn at each mu:
    - at mu: r(mu) of each level, then the x_t rows. The optimum is at[k];
      at 0 this is phase two and then the lex-min.
    - just above mu: each level's r(mu) followed by its slope r_a - r_b, so
      a tie at mu goes to the column falling fastest; at 0 this breaks the
      ties of b toward a. The optimum is between[k], and it stays
      optimal up to the least crossing r_b / (r_b - r_a) of a column whose
      key starts with some r(mu) > 0 of slope below -_PIVOT_TOL. mu moves
      there, or to 1.
    A crossing within _PIVOT_TOL above mu counts as r(mu) = 0, so no
    interval is shorter than that.

    One walk also gives the optima of the first level alone (Walk.forks).
    At a stop where some column's key starts, beyond _PIVOT_TOL, in a later
    level, the walk forks: a copy of its tableau minimizes the first
    level's key alone (r(mu), its slope above mu, then the x_t rows). The
    copy starts first-level optimal, as each key's first-level entries are
    already lexicographically nonnegative, so it only moves within the
    first level's optimal face. At any other stop every column's first
    entry beyond _PIVOT_TOL is the same under both keys, so the basis is
    already first-level optimal. A walk of the first level alone would stop
    nowhere else: on each open interval the basis is fixed and optimal,
    and a reduced cost affine in mu and nonnegative there is zero at one
    point of it only if it is zero on all of it, so the first level's
    optimal face is fixed there too.

    Bland's rule cannot cycle in exact arithmetic; with tolerances it can,
    among bases whose keys differ by round-off, so a minimization ends when
    it meets a basis a second time, and a walk that takes more than
    _PIVOTS_PER_LINE pivots per tableau line, forks included, raises
    SolverError."""
    m = start.basis.size
    d = levels[0][0].shape[0]
    n_cols = start.array.shape[1] - 1
    n_levels = len(levels)
    lines = 2 * n_levels
    # rows: constraints, then r_a and r_b of each level, then x_0, x_1, ...
    tab = np.zeros((m + lines + d, n_cols + 1))
    tab[:m] = start.array[:m]
    basis = start.basis.copy()
    for k, (a, b) in enumerate(levels):
        tab[m + 2 * k, :d] = a
        tab[m + 2 * k + 1, :d] = b
    tab[m + lines :, :d] = np.eye(d)
    tab[m:, :-1][:, ~tab[:m, :-1].any(axis=0)] = 0.0         # held at zero
    tab[m:] -= tab[m:, basis] @ tab[:m]                       # priced out
    max_pivots = _PIVOTS_PER_LINE * sum(tab.shape)
    pivots = 0

    def keys(tab: np.ndarray, mu: float, above: bool, depth: int) -> tuple[np.ndarray, np.ndarray]:
        # Round-off below _PIVOT_TOL is taken as zero, and so it is made an
        # exact zero: a pivot would scale it past the tolerance, and the
        # column that leaves could then look improving and cycle back.
        keyed = tab[m:, :-1]
        keyed[np.abs(keyed) <= _PIVOT_TOL] = 0.0
        ra, rb = keyed[: 2 * depth : 2], keyed[1 : 2 * depth : 2]
        slope = ra - rb
        r = mu * ra + (1.0 - mu) * rb
        r[(r > 0.0) & (r + _PIVOT_TOL * slope <= 0.0)] = 0.0    # crossing within _PIVOT_TOL
        head = (1 + above) * depth
        rows = np.empty((head + d, n_cols))
        rows[: head : 1 + above] = r
        if above:
            rows[1:head:2] = slope
        rows[head:] = keyed[lines:]
        return rows, slope

    def minimize(tab: np.ndarray, basis: np.ndarray, mu: float, above: bool, depth: int):
        """Pivot in place to the optimum of the first `depth` levels' key;
        the final key rows and slopes."""
        nonlocal pivots
        seen: set[bytes] = set()
        while True:
            rows, slope = keys(tab, mu, above, depth)
            improving = _lex_negative(rows).nonzero()[0]
            here = basis.tobytes()
            if not improving.size or here in seen:
                return rows, slope
            seen.add(here)
            if pivots == max_pivots:
                raise _cycling(max_pivots, m)
            entering = int(improving[0])
            leave = _leaving_row(tab, basis, entering, m)
            if leave < 0:
                raise _Unbounded
            _pivot(tab, leave, entering)
            basis[leave] = entering
            pivots += 1

    def point(tab: np.ndarray, basis: np.ndarray) -> np.ndarray:
        y = np.zeros(n_cols)
        y[basis] = tab[:m, -1]
        return y[:d] + 0.0          # no -0.0 in a reported point

    def fork(rows: np.ndarray, mu: float, above: bool) -> np.ndarray | None:
        """The first level's optimum from a copy of the walk's tableau, or
        None where no later level decided (the walk's point is that)."""
        head, level_rows = 1 + above, (1 + above) * n_levels
        big = np.abs(rows[:level_rows]) > _PIVOT_TOL
        first = np.where(big.any(axis=0), big.argmax(axis=0), level_rows)
        if not np.any((first >= head) & (first < level_rows)):
            return None
        copy, copy_basis = tab.copy(), basis.copy()
        minimize(copy, copy_basis, mu, above, 1)
        return point(copy, copy_basis)

    beliefs, at, between, forks = [], [], [], []
    mu = 0.0
    try:
        while True:
            rows, _ = minimize(tab, basis, mu, False, n_levels)
            beliefs.append(mu)
            at.append(point(tab, basis))
            if (x := fork(rows, mu, False)) is not None:
                forks.append((mu, mu, x))
            if mu >= 1.0:
                return Walk(tuple(beliefs), tuple(at), tuple(between), tuple(forks))
            rows, slope = minimize(tab, basis, mu, True, n_levels)
            between.append(point(tab, basis))
            x = fork(rows, mu, True)
            big = np.abs(rows) > _PIVOT_TOL
            first = big.argmax(axis=0)
            cols = np.arange(n_cols)
            level = np.minimum(first // 2, n_levels - 1)
            ending = (big.any(axis=0) & (first < lines) & (first % 2 == 0) & (rows[first, cols] > 0.0)
                      & (slope[level, cols] < -_PIVOT_TOL))
            rb = tab[m + 1 : m + lines : 2, :-1]
            cross = -rb[level[ending], cols[ending]] / slope[level[ending], cols[ending]]
            lo, mu = mu, min(float(np.min(cross, initial=np.inf)), 1.0)
            if x is not None:
                forks.append((lo, mu, x))
    except _Unbounded:
        return None
