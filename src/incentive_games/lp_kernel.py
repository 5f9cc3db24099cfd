"""Dense linear programming and polytope vertex enumeration.

Everything here is deliberately small-scale: the games this package solves
never produce more than a dozen variables, so a two-phase tableau simplex
with Bland's rule (deterministic, cycle-free in exact arithmetic) and
combinatorial vertex enumeration are both exact enough and fast enough.
Re-running any routine on the same input is bit-identical. Where either one
cannot finish (a capped pivot count, a capped number of bases) it raises
SolverError rather than reporting the input as invalid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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
    bounds = list(obj.bounds) if obj.bounds is not None else [(0.0, np.inf)] * d
    if len(bounds) != d:
        raise ValueError(f"bounds must have length {d}")
    if any(lo > hi for lo, hi in bounds):
        raise ValueError("bound lower > upper")
    object.__setattr__(obj, "constraint_matrix", a)
    object.__setattr__(obj, "rhs", _as_vector(obj.rhs, a.shape[0], "rhs"))
    object.__setattr__(obj, "equality_matrix", e)
    object.__setattr__(obj, "equality_rhs", _as_vector(obj.equality_rhs, e.shape[0], "equality_rhs"))
    object.__setattr__(obj, "bounds", tuple((float(lo), float(hi)) for lo, hi in bounds))


@dataclass(frozen=True)
class LinearProgram:
    """min objective @ x  s.t.  constraint_matrix @ x <= rhs,
    equality_matrix @ x = equality_rhs, bounds (default x >= 0)."""

    objective: np.ndarray
    constraint_matrix: np.ndarray | None = None
    rhs: np.ndarray | None = None
    equality_matrix: np.ndarray | None = None
    equality_rhs: np.ndarray | None = None
    bounds: Sequence[tuple[float, float]] | None = None

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
    """A bounded feasible region; same constraint data as LinearProgram minus
    the objective."""

    dim: int
    constraint_matrix: np.ndarray | None = None
    rhs: np.ndarray | None = None
    equality_matrix: np.ndarray | None = None
    equality_rhs: np.ndarray | None = None
    bounds: Sequence[tuple[float, float]] | None = None

    def __post_init__(self):
        d = int(self.dim)
        if d <= 0:
            raise ValueError("dim must be positive")
        object.__setattr__(self, "dim", d)
        _set_constraints(self, d)

    def lp(self, objective) -> LinearProgram:
        return LinearProgram(
            objective=objective,
            constraint_matrix=self.constraint_matrix,
            rhs=self.rhs,
            equality_matrix=self.equality_matrix,
            equality_rhs=self.equality_rhs,
            bounds=self.bounds,
        )

    def contains(self, x: np.ndarray, tol: float = FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if self.constraint_matrix.shape[0] and np.any(self.constraint_matrix @ x > self.rhs + tol):
            return False
        if self.equality_matrix.shape[0] and np.any(
            np.abs(self.equality_matrix @ x - self.equality_rhs) > tol
        ):
            return False
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return bool(np.all(x >= lo - tol) and np.all(x <= hi + tol))


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------


def _to_standard_form(lp: LinearProgram):
    """Rewrite as min c'y s.t. A y <= b, E y = f, y >= 0.

    Shifts finite lower bounds, mirrors upper-bounded-only variables, splits
    free variables. Returns (c, A, b, E, f, recover) where recover(y) maps
    standard-form points back to original coordinates.
    """
    d = lp.dim
    shift = np.zeros(d)
    extra_rows: list[np.ndarray] = []
    extra_rhs: list[float] = []
    col_maps = []                 # (orig index, sign) per standard variable

    for idx, (lo, hi) in enumerate(lp.bounds):
        if np.isfinite(lo):
            shift[idx] = lo
            col_maps.append((idx, 1.0))
            if np.isfinite(hi):
                row = np.zeros(d)
                row[idx] = 1.0
                extra_rows.append(row)
                extra_rhs.append(hi)          # x_idx <= hi, becomes y <= hi - lo after shift
        elif np.isfinite(hi):
            shift[idx] = hi
            col_maps.append((idx, -1.0))      # x = hi - y
        else:
            col_maps.append((idx, 1.0))
            col_maps.append((idx, -1.0))      # x = y+ - y-

    n_std = len(col_maps)
    T = np.zeros((d, n_std))                  # x = shift + T y
    for j, (idx, sign) in enumerate(col_maps):
        T[idx, j] = sign

    A0 = lp.constraint_matrix
    b0 = lp.rhs
    if extra_rows:
        A0 = np.vstack([A0, np.array(extra_rows)]) if A0.shape[0] else np.array(extra_rows)
        b0 = np.concatenate([b0, np.array(extra_rhs)])
    A = A0 @ T
    b = b0 - A0 @ shift
    E = lp.equality_matrix @ T
    f = lp.equality_rhs - lp.equality_matrix @ shift
    c = lp.objective @ T

    def recover(y: np.ndarray) -> np.ndarray:
        return shift + T @ y

    return c, A, b, E, f, recover


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
        red = tableau[-1, :n_vars]
        entering = -1
        for j in range(n_vars):         # Bland: smallest index with negative reduced cost
            if red[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        if pivots == max_pivots:
            raise SolverError(
                f"simplex phase did not finish within {max_pivots} pivots "
                f"on a {m}-row tableau (floating-point cycling)"
            )
        col = tableau[:m, entering]
        rhs = tableau[:m, -1]
        leave = -1
        best = np.inf
        for i in range(m):
            if col[i] > _PIVOT_TOL:
                ratio = max(rhs[i], 0.0) / col[i]   # round-off below 0 is degenerate, not a step back
                if ratio < best - 1e-12 or (
                    abs(ratio - best) <= 1e-12 and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        piv = tableau[leave, entering]
        tableau[leave] /= piv
        for i in range(tableau.shape[0]):
            if i != leave and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leave]
        basis[leave] = entering


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase dense simplex (Bland's rule). Deterministic; minimization."""
    c, A, b, E, f, recover = _to_standard_form(lp)
    n = c.shape[0]
    m = A.shape[0] + E.shape[0]
    if m == 0:
        # only nonnegativity; optimum is at the origin unless c points down
        if np.any(c < -_PIVOT_TOL):
            return LpSolution(LpStatus.UNBOUNDED)
        x = recover(np.zeros(n))
        return LpSolution(LpStatus.OPTIMAL, x, float(lp.objective @ x))

    rows = np.vstack([A, E])
    brhs = np.concatenate([b, f])
    is_ineq = np.array([True] * A.shape[0] + [False] * E.shape[0])

    # slack columns for inequality rows
    n_slack = int(is_ineq.sum())
    slack_cols = np.zeros((m, n_slack))
    slack_of_row = np.full(m, -1, dtype=int)
    si = 0
    for i in range(m):
        if is_ineq[i]:
            slack_cols[i, si] = 1.0
            slack_of_row[i] = n + si
            si += 1
    M = np.hstack([rows, slack_cols])

    # normalize to nonnegative rhs (flips slack signs on negated rows)
    neg = brhs < 0
    M[neg] *= -1.0
    brhs = np.abs(brhs)

    # initial basis: usable slack where available, artificial otherwise
    basis = np.full(m, -1, dtype=int)
    need_art = []
    for i in range(m):
        j = slack_of_row[i]
        if j >= 0 and M[i, j] > 0.0:
            basis[i] = j
        else:
            need_art.append(i)
    n_real = n + n_slack
    n_art = len(need_art)
    art_cols = np.zeros((m, n_art))
    for k, i in enumerate(need_art):
        art_cols[i, k] = 1.0
        basis[i] = n_real + k
    n_total = n_real + n_art

    tab = np.zeros((m + 1, n_total + 1))
    tab[:m, :n_real] = M
    if n_art:
        tab[:m, n_real:n_total] = art_cols
    tab[:m, -1] = brhs

    if n_art:
        tab[-1, n_real:n_total] = 1.0
        for i in range(m):                       # price out artificial basics
            if basis[i] >= n_real:
                tab[-1] -= tab[i]
        status = _bland_simplex(tab, basis, n_total)
        phase1 = -tab[-1, -1]
        scale = max(1.0, float(np.max(np.abs(brhs))))
        if status == "unbounded" or phase1 > FEAS_TOL * scale:
            return LpSolution(LpStatus.INFEASIBLE)
        # drive artificials still basic at zero out where possible; rows where
        # no pivot exists are redundant and their zero artificial stays basic
        for i in range(m):
            if basis[i] >= n_real:
                row = np.abs(tab[i, :n_real])
                cand = np.nonzero(row > _PIVOT_TOL)[0]
                if cand.size:
                    j = int(cand[0])
                    piv = tab[i, j]
                    tab[i] /= piv
                    for r in range(m + 1):
                        if r != i and tab[r, j] != 0.0:
                            tab[r] -= tab[r, j] * tab[i]
                    basis[i] = j

    # phase 2: fresh objective row, artificial columns never re-enter because
    # the entering scan in _bland_simplex is limited to the first n_real cols
    tab[-1, :] = 0.0
    tab[-1, :n] = c
    for i in range(m):
        j = basis[i]
        if tab[-1, j] != 0.0:
            tab[-1] -= tab[-1, j] * tab[i]
    status = _bland_simplex(tab, basis, n_real)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)

    y = np.zeros(n_total)
    for i in range(m):
        y[basis[i]] = tab[i, -1]
    x = recover(y[:n])
    value = float(lp.objective @ x)
    return LpSolution(LpStatus.OPTIMAL, x, value)


def lexicographic_argmin(lp: LinearProgram) -> LpSolution:
    """Solve, then canonicalize to the lexicographically smallest optimal
    point (which is the lex-min optimal vertex): pin the objective value as an
    equality and minimize each coordinate in order, pinning as it goes."""
    first = solve_lp(lp)
    if not first.optimal:
        return first
    d = lp.dim
    eq = [lp.equality_matrix, lp.objective.reshape(1, -1)]
    eqr = [lp.equality_rhs, np.array([first.value])]
    point = first.point
    for t in range(d):
        c = np.zeros(d)
        c[t] = 1.0
        sub = LinearProgram(
            objective=c,
            constraint_matrix=lp.constraint_matrix,
            rhs=lp.rhs,
            equality_matrix=np.vstack([m for m in eq if m.shape[0]]),
            equality_rhs=np.concatenate(eqr),
            bounds=lp.bounds,
        )
        sol = solve_lp(sub)
        if not sol.optimal:       # numerically pinned face became empty; keep last point
            break
        point = sol.point
        row = np.zeros((1, d))
        row[0, t] = 1.0
        eq.append(row)
        eqr.append(np.array([sol.value]))
    return LpSolution(LpStatus.OPTIMAL, point, float(lp.objective @ point))


# ---------------------------------------------------------------------------
# vertex enumeration
# ---------------------------------------------------------------------------

_MAX_BASES = 400_000


def _inequality_system(p: Polytope):
    """All inequalities as G x <= h (bound rows included)."""
    rows = [p.constraint_matrix] if p.constraint_matrix.shape[0] else []
    rhs = [p.rhs] if p.rhs.shape[0] else []
    d = p.dim
    for idx, (lo, hi) in enumerate(p.bounds):
        if np.isfinite(lo):
            row = np.zeros((1, d))
            row[0, idx] = -1.0
            rows.append(row)
            rhs.append(np.array([-lo]))
        if np.isfinite(hi):
            row = np.zeros((1, d))
            row[0, idx] = 1.0
            rows.append(row)
            rhs.append(np.array([hi]))
    if rows:
        return np.vstack(rows), np.concatenate(rhs)
    return np.zeros((0, d)), np.zeros(0)


def enumerate_vertices(p: Polytope) -> list[np.ndarray]:
    """All basic feasible solutions of a bounded polytope, deduplicated.

    Combinatorial active-set enumeration: every choice of dim - rank(eq)
    inequalities, made tight together with the equalities, is solved as a
    square system and kept if feasible. Unbounded input raises ValueError;
    more than _MAX_BASES candidate bases raise SolverError before any is
    built.
    """
    d = p.dim
    # boundedness pre-check via coordinate LPs
    for t in range(d):
        for sign in (1.0, -1.0):
            c = np.zeros(d)
            c[t] = sign
            sol = solve_lp(p.lp(c))
            if sol.status is LpStatus.UNBOUNDED:
                raise ValueError("polytope is unbounded")
            if sol.status is LpStatus.INFEASIBLE:
                return []

    G, h = _inequality_system(p)
    E, f = p.equality_matrix, p.equality_rhs
    n_eq = E.shape[0]
    k = d - n_eq
    if k < 0:
        k = 0
    n_ineq = G.shape[0]
    if k > n_ineq:
        return []

    n_bases = math.comb(n_ineq, k)
    if n_bases > _MAX_BASES:
        raise SolverError(
            f"vertex enumeration would examine {n_bases} bases (limit {_MAX_BASES}); "
            "polytope too large for combinatorial enumeration"
        )

    # batched square solves: stack candidate systems, filter singular ones
    mats = np.empty((n_bases, d, d))
    rhss = np.empty((n_bases, d))
    for t, combo in enumerate(itertools.combinations(range(n_ineq), k)):
        if n_eq:
            mats[t, :n_eq] = E
            rhss[t, :n_eq] = f
        if k:
            mats[t, n_eq:] = G[list(combo)]
            rhss[t, n_eq:] = h[list(combo)]
    with np.errstate(all="ignore"):
        dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-12 * np.maximum(1.0, np.max(np.abs(mats), axis=(1, 2)) ** d)
    verts: list[np.ndarray] = []
    if np.any(ok):
        xs = np.linalg.solve(mats[ok], rhss[ok][..., None])[..., 0]
        resid = np.max(np.abs(np.einsum("bij,bj->bi", mats[ok], xs) - rhss[ok]), axis=1)
        for x, r in zip(xs, resid):
            if r > 1e-9 or not np.all(np.isfinite(x)):
                continue
            if p.contains(x):
                verts.append(x)

    unique: list[np.ndarray] = []
    for v in verts:
        if not any(np.max(np.abs(v - u)) <= DEDUPE_TOL for u in unique):
            unique.append(v)
    return unique
