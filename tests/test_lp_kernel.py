import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incentive_games import lp_kernel, oracle
from incentive_games.lp_kernel import (
    LinearProgram,
    LpStatus,
    Polytope,
    SolverError,
    lexicographic_argmin,
    lexicographic_descent,
    parametric_walk,
    phase_one,
    phase_two,
    solve_lp,
)
from incentive_games.matrix_games import CostTable, _pair_polytope
from incentive_games.oracle import enumerate_bounded_vertices, enumerate_vertices

try:  # test-only reference solver; the package itself needs only numpy
    from scipy.optimize import linprog
except ImportError:
    linprog = None


def test_bound_active_optimum():
    sol = solve_lp(LinearProgram(objective=[1.0]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_unbounded_below():
    sol = solve_lp(LinearProgram(objective=[-1.0]))
    assert sol.status is LpStatus.UNBOUNDED


def test_equality_forces_value():
    sol = solve_lp(
        LinearProgram(objective=[1.0, 1.0], equality_matrix=[[1.0, 1.0]], equality_rhs=[1.0])
    )
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-12)


def test_infeasible_detected():
    sol = solve_lp(
        LinearProgram(objective=[1.0], equality_matrix=[[1.0]], equality_rhs=[-2.0])
    )
    assert sol.status is LpStatus.INFEASIBLE


def test_redundant_equalities_handled():
    sol = solve_lp(
        LinearProgram(
            objective=[2.0, 1.0],
            equality_matrix=[[1.0, 1.0], [2.0, 2.0]],
            equality_rhs=[1.0, 2.0],
        )
    )
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-10)
    assert sol.point == pytest.approx([0.0, 1.0], abs=1e-10)


@st.composite
def _lps(draw) -> LinearProgram:
    # two-decimal entries, so ties and degenerate vertices are common but no
    # coefficient sits near either solver's zero threshold
    d = draw(st.integers(1, 4))
    num = st.integers(-300, 300).map(lambda v: v / 100)

    def block(rows: int, cols: int) -> np.ndarray:
        return np.array(draw(st.lists(num, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)

    k, e = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    a, b = block(k, d), block(1, k)[0]
    # optional upper bounds x_t <= u as constraint rows
    upper = np.array(draw(st.lists(st.sampled_from([np.inf, 2.0, 1.0, 0.5]), min_size=d, max_size=d)))
    capped = np.isfinite(upper)
    return LinearProgram(
        objective=block(1, d)[0],
        constraint_matrix=np.vstack([a, np.eye(d)[capped]]),
        rhs=np.concatenate([b, upper[capped]]),
        equality_matrix=block(e, d),
        equality_rhs=block(1, e)[0],
    )


@pytest.mark.skipif(linprog is None, reason="scipy is not installed")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lps())
def test_solve_lp_agrees_with_highs(lp):
    sol = solve_lp(lp)
    res = linprog(
        lp.objective,
        A_ub=lp.constraint_matrix if lp.constraint_matrix.shape[0] else None,
        b_ub=lp.rhs if lp.rhs.shape[0] else None,
        A_eq=lp.equality_matrix if lp.equality_matrix.shape[0] else None,
        b_eq=lp.equality_rhs if lp.equality_rhs.shape[0] else None,
        method="highs",
        # HiGHS's presolve calls some feasible unbounded LPs infeasible
        # (e.g. min -2.17 x0 + 1.56 x1 - 0.96 x2 under three rows of this
        # strategy with x1 <= 1); its simplex alone does not
        options={"presolve": False},
    )
    want = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}[res.status]
    assert sol.status is want
    if sol.optimal:
        assert sol.value == pytest.approx(res.fun, abs=1e-7 * max(1.0, abs(res.fun)))


def test_more_equality_rows_than_variables():
    # three consistent rows of rank 2 pin the single point (0.5, 0.5)
    p = Polytope(dim=2, equality_matrix=[[1, 0], [0, 1], [1, 1]], equality_rhs=[0.5, 0.5, 1])
    assert [v.tolist() for v in enumerate_vertices(p)] == [[0.5, 0.5]]
    inconsistent = Polytope(dim=2, equality_matrix=[[1, 0], [0, 1], [1, 1]], equality_rhs=[0.5, 0.5, 2])
    assert enumerate_vertices(inconsistent) == []


def test_dependent_equality_rows_keep_the_segment():
    # the second row repeats the first, so the polytope is the segment
    # (1, 0)-(0, 1) and one tight bound makes each vertex
    p = Polytope(dim=2, equality_matrix=[[1, 1], [2, 2]], equality_rhs=[1, 2])
    assert [v.tolist() for v in enumerate_vertices(p)] == [[0.0, 1.0], [1.0, 0.0]]


def test_degenerate_problem_terminates():
    # classic cycling-prone data; Bland's rule must terminate
    A = [
        [0.5, -5.5, -2.5, 9.0],
        [0.5, -1.5, -0.5, 1.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    c = [-10.0, 57.0, 9.0, 24.0]
    sol = solve_lp(LinearProgram(objective=c, constraint_matrix=A, rhs=b))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == pytest.approx(-1.0, abs=1e-9)


def test_bit_identical_reruns():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        lp = LinearProgram(
            objective=rng.normal(size=d),
            constraint_matrix=rng.normal(size=(k, d)),
            rhs=rng.uniform(0.5, 2.0, size=k),
            equality_matrix=np.ones((1, d)),
            equality_rhs=[1.0],
        )
        a = solve_lp(lp)
        bsol = solve_lp(lp)
        assert a.status == bsol.status
        if a.optimal:
            assert a.value == bsol.value  # exact equality, not approx
            assert np.array_equal(a.point, bsol.point)


def test_solution_feasibility_invariant():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, 6))
        A = rng.normal(size=(k, d))
        b = rng.uniform(0.2, 2.0, size=k)
        lp = LinearProgram(
            objective=rng.normal(size=d),
            constraint_matrix=A,
            rhs=b,
            equality_matrix=np.ones((1, d)),
            equality_rhs=[1.0],
        )
        sol = solve_lp(lp)
        if sol.optimal:
            x = sol.point
            assert np.all(A @ x <= b + 1e-8)
            assert abs(x.sum() - 1.0) <= 1e-8
            assert np.all(x >= -1e-8)
            assert sol.value == pytest.approx(float(lp.objective @ x), rel=1e-9, abs=1e-12)


def test_pivot_cap_raises_solver_error(monkeypatch):
    lp = LinearProgram(objective=[-1.0, -1.0], constraint_matrix=[[1.0, 2.0], [3.0, 1.0]], rhs=[4.0, 6.0])
    assert solve_lp(lp).value == pytest.approx(-2.8)
    monkeypatch.setattr(lp_kernel, "_PIVOTS_PER_LINE", 0)
    with pytest.raises(SolverError, match="pivots"):
        solve_lp(lp)


def test_enumeration_capacity_is_checked_before_building_bases(monkeypatch):
    # C(6, 3) = 20 candidate bases for the 3-cube
    cube = Polytope(dim=3, constraint_matrix=np.eye(3), rhs=np.ones(3))
    assert len(enumerate_vertices(cube)) == 8
    monkeypatch.setattr(oracle, "_MAX_BASES", 19)
    with pytest.raises(SolverError, match="20 bases"):
        enumerate_vertices(cube)
    empty = Polytope(dim=3, constraint_matrix=np.vstack([np.eye(3), np.ones(3)]), rhs=[1.0, 1.0, 1.0, -1.0])
    assert enumerate_vertices(empty) == []


def test_unit_simplex_vertices():
    p = Polytope(dim=2, equality_matrix=[[1.0, 1.0]], equality_rhs=[1.0])
    vs = sorted(tuple(np.round(v, 9)) for v in enumerate_vertices(p))
    assert vs == [(0.0, 1.0), (1.0, 0.0)]


def test_box_corners():
    p = Polytope(dim=2, constraint_matrix=np.eye(2), rhs=np.ones(2))
    vs = sorted(tuple(np.round(v, 9)) for v in enumerate_vertices(p))
    assert vs == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_unbounded_polytope_rejected():
    with pytest.raises(ValueError, match="unbounded"):
        enumerate_vertices(Polytope(dim=1))


def test_empty_polytope_gives_empty_list():
    p = Polytope(
        dim=2,
        constraint_matrix=[[1.0, 1.0]],
        rhs=[-1.0],
        equality_matrix=[[1.0, -1.0]],
        equality_rhs=[0.0],
    )
    assert enumerate_vertices(p) == []


def test_degenerate_vertex_deduplicated():
    # pyramid-like 2-D region where three constraints meet in one point
    p = Polytope(
        dim=2,
        constraint_matrix=[[1.0, 1.0], [1.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
        rhs=[2.0, 0.0, 1.0, 2.0],
    )
    vs = enumerate_vertices(p)
    pts = {tuple(np.round(v, 9)) for v in vs}
    assert (1.0, 1.0) in pts
    assert len(vs) == len(pts)  # no duplicates survive


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_lp_matches_vertex_minimum(seed):
    """Optimal LP value equals the minimum over enumerated vertices."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    k = int(rng.integers(1, 4))
    A = rng.normal(size=(k, d))
    b = rng.uniform(0.3, 1.5, size=k)
    p = Polytope(
        dim=d,
        constraint_matrix=A,
        rhs=b,
        equality_matrix=np.ones((1, d)),
        equality_rhs=[1.0],
    )
    c = rng.normal(size=d)
    sol = solve_lp(p.lp(c))
    verts = enumerate_vertices(p)
    if sol.optimal:
        assert verts, "optimal LP but no vertices found"
        vmin = min(float(c @ v) for v in verts)
        assert sol.value == pytest.approx(vmin, abs=1e-8)
        assert all(sol.value <= float(c @ v) + 1e-8 for v in verts)
    else:
        assert sol.status is LpStatus.INFEASIBLE
        assert verts == []


def test_lexicographic_argmin_is_lex_min_optimal_vertex():
    rng = np.random.default_rng(3)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        A = rng.normal(size=(2, d))
        b = rng.uniform(0.3, 1.5, size=2)
        p = Polytope(dim=d, constraint_matrix=A, rhs=b,
                     equality_matrix=np.ones((1, d)), equality_rhs=[1.0])
        c = rng.choice([0.0, 1.0], size=d)  # flat directions make ties likely
        sol = solve_lp(p.lp(c))
        if not sol.optimal:
            continue
        canon = lexicographic_argmin(p.lp(c))
        verts = enumerate_vertices(p)
        opts = [v for v in verts if float(c @ v) <= sol.value + 1e-8]
        lexmin = min(opts, key=lambda v: tuple(np.round(v, 9)))
        assert canon.point == pytest.approx(lexmin, abs=1e-7)


@st.composite
def _bounded_lps(draw) -> LinearProgram:
    """min c @ x over x >= 0 under up to three rows, bounded by sum(x) = 1 or
    by the box x <= 1. The rows are small integers (degenerate vertices) or
    normal draws; c is 0/1, so that optimal faces are common."""
    d, k = draw(st.integers(2, 5)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        a = np.array(draw(st.lists(st.integers(-2, 2), min_size=k * d, max_size=k * d)), dtype=float)
        b = np.array(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)), dtype=float)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a, b = rng.normal(size=k * d), rng.uniform(0.3, 1.5, size=k)
    c = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=d, max_size=d)))
    if draw(st.booleans()):
        return LinearProgram(objective=c, constraint_matrix=a.reshape(k, d), rhs=b,
                             equality_matrix=np.ones((1, d)), equality_rhs=[1.0])
    return LinearProgram(objective=c, constraint_matrix=np.vstack([a.reshape(k, d), np.eye(d)]),
                         rhs=np.concatenate([b, np.ones(d)]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_bounded_lps())
def test_lexicographic_argmin_equals_the_enumeration_oracle(lp):
    canon = lexicographic_argmin(lp)
    verts = enumerate_vertices(Polytope(dim=lp.dim, constraint_matrix=lp.constraint_matrix, rhs=lp.rhs,
                                        equality_matrix=lp.equality_matrix, equality_rhs=lp.equality_rhs))
    if not verts:
        assert canon.status is LpStatus.INFEASIBLE
        return
    values = [float(lp.objective @ v) for v in verts]
    optimal = [v for v, value in zip(verts, values) if value <= min(values) + 1e-9]
    lexmin = min(optimal, key=lambda v: tuple(np.round(v, 9)))
    assert canon.optimal
    assert np.max(np.abs(canon.point - lexmin)) <= 1e-9


def _same_solution(a, b) -> bool:
    if a.status is not b.status:
        return False
    if not a.optimal:
        return a.point is None and b.point is None
    return a.point.tobytes() == b.point.tobytes() and a.value.hex() == b.value.hex()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_bounded_lps(), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
def test_phase_two_from_one_phase_one_equals_solve_lp(lp, seeds):
    # One phase-one result serves every objective over the same constraints:
    # phase two works on a copy, so each solve is bit for bit the fresh
    # two-phase solve of its own LP, and so is its lexicographic minimum.
    start = phase_one(lp)
    if start is None:
        assert solve_lp(lp).status is LpStatus.INFEASIBLE
        return
    assert not start.array.flags.writeable and not start.basis.flags.writeable
    before = (start.array.tobytes(), start.basis.tobytes())
    objectives = [lp.objective] + [np.random.default_rng(s).normal(size=lp.dim) for s in seeds]
    for c in objectives:
        fresh = LinearProgram(c, lp.constraint_matrix, lp.rhs, lp.equality_matrix, lp.equality_rhs)
        optimum = phase_two(c, start)
        assert optimum is not None
        assert _same_solution(optimum.solution(c), solve_lp(fresh))
        assert _same_solution(lexicographic_descent(c, optimum), lexicographic_argmin(fresh))
    assert (start.array.tobytes(), start.basis.tobytes()) == before


def test_phase_two_reports_unbounded_objectives_from_a_shared_start():
    # x0 - x1 <= 1 over x >= 0: no artificial column, so phase one is the
    # slack basis; -x0 is unbounded below there, x0 + x1 is not.
    region = Polytope(dim=2, constraint_matrix=[[1.0, -1.0]], rhs=[1.0])
    start = phase_one(region)
    assert start.array.shape == (2, 4)
    assert phase_two(np.array([-1.0, 0.0]), start) is None
    assert solve_lp(region.lp([-1.0, 0.0])).status is LpStatus.UNBOUNDED
    c = np.array([1.0, 1.0])
    assert _same_solution(phase_two(c, start).solution(c), solve_lp(region.lp(c)))


def test_phase_one_deletes_a_redundant_row_and_every_artificial_column():
    # The second equality row repeats the first, so once the artificials are
    # at zero the second one cannot be driven out: its row is all zeros
    # outside the artificial columns. Phase one deletes that row and both
    # artificial columns, leaving x0 + x1 = 1 and its basis; phase two from
    # that tableau is a fresh two-phase solve bit for bit.
    region = Polytope(dim=2, equality_matrix=[[1.0, 1.0], [1.0, 1.0]], equality_rhs=[1.0, 1.0])
    start = phase_one(region)
    assert start.array.shape == (2, 3)              # one row and x0, x1, rhs
    assert start.basis.tolist() == [0]
    assert solve_lp(region.lp([1.0, 2.0])).point.tolist() == [1.0, 0.0]
    for c in (np.array([1.0, 2.0]), np.array([2.0, 1.0]), np.array([1.0, 1.0])):
        optimum = phase_two(c, start)
        assert _same_solution(optimum.solution(c), solve_lp(region.lp(c)))
        assert _same_solution(lexicographic_descent(c, optimum), lexicographic_argmin(region.lp(c)))


def test_phase_one_reports_an_empty_region():
    # x0 + x1 = 1 and x0 + x1 <= 0.5 cannot both hold
    region = Polytope(dim=2, constraint_matrix=[[1.0, 1.0]], rhs=[0.5],
                      equality_matrix=[[1.0, 1.0]], equality_rhs=[1.0])
    assert phase_one(region) is None
    assert solve_lp(region.lp([1.0, 0.0])).status is LpStatus.INFEASIBLE


def _lex_optimum(verts: list[np.ndarray], objectives: list[np.ndarray]) -> np.ndarray:
    """The enumeration oracle's tie rule: the vertices optimal for the first
    objective (within 1e-9), of those the ones optimal for the next, and so
    on, then the lexicographically smallest."""
    for c in objectives:
        values = [float(c @ v) for v in verts]
        verts = [v for v, value in zip(verts, values) if value <= min(values) + 1e-9]
    return min(verts, key=lambda v: tuple(np.round(v, 9)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_bounded_lps(), st.integers(0, 2**32 - 1), st.booleans())
def test_parametric_walk_equals_the_enumeration_oracle(lp, seed, two_levels):
    # b (and a second level) drawn from {0, 1, 2}: ties are common. At every
    # breakpoint, and inside every interval, the walk's point is the oracle's
    # lexicographic optimum over all vertices.
    start = phase_one(lp)
    verts = enumerate_vertices(Polytope(dim=lp.dim, constraint_matrix=lp.constraint_matrix, rhs=lp.rhs,
                                        equality_matrix=lp.equality_matrix, equality_rhs=lp.equality_rhs))
    if start is None:
        assert not verts
        return
    rng = np.random.default_rng(seed)
    levels = [(lp.objective, rng.integers(0, 3, lp.dim).astype(float))]
    if two_levels:
        levels.append(tuple(rng.integers(0, 3, (2, lp.dim)).astype(float)))
    walk = parametric_walk(start, levels)
    assert walk.beliefs[0] == 0.0 and walk.beliefs[-1] == 1.0
    assert all(s < t for s, t in zip(walk.beliefs, walk.beliefs[1:]))
    assert len(walk.at) == len(walk.beliefs) == len(walk.between) + 1
    mids = [0.5 * (s + t) for s, t in zip(walk.beliefs, walk.beliefs[1:])]
    for mu, x in [*zip(walk.beliefs, walk.at), *zip(mids, walk.between)]:
        want = _lex_optimum(verts, [mu * a + (1.0 - mu) * b for a, b in levels])
        assert np.max(np.abs(x - want)) <= 1e-9


def test_parametric_walk_breaks_ties_at_zero_toward_a():
    # On the simplex x0 + x1 + x2 = 1, b ties x0 and x1 at mu = 0. At 0 itself
    # the lex-min rule picks x1; just above 0, a picks x0, until x2 takes over
    # at mu = 0.5, where x0 and x2 tie and the lex-min is x2.
    region = Polytope(dim=3, equality_matrix=[[1.0, 1.0, 1.0]], equality_rhs=[1.0])
    walk = parametric_walk(phase_one(region), [(np.array([1.0, 2.0, 0.0]), np.array([0.0, 0.0, 1.0]))])
    assert walk.beliefs == (0.0, 0.5, 1.0)
    assert [x.tolist() for x in walk.at] == [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
    assert [x.tolist() for x in walk.between] == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


def test_parametric_walk_holds_an_unconstrained_column_and_reports_a_ray():
    region = Polytope(dim=2, equality_matrix=[[1.0, 0.0]], equality_rhs=[1.0])
    walk = parametric_walk(phase_one(region), [(np.array([1.0, -1.0]), np.array([1.0, -1.0]))])
    assert walk.at[0].tolist() == [1.0, 0.0]        # x1 is in no row: held at zero
    ray = Polytope(dim=2, constraint_matrix=[[1.0, -1.0]], rhs=[1.0])
    assert parametric_walk(phase_one(ray), [(np.array([-1.0, 0.0]), np.zeros(2))]) is None


def test_vertices_satisfy_constraints():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        A = rng.normal(size=(3, d))
        b = rng.uniform(0.3, 1.5, size=3)
        p = Polytope(dim=d, constraint_matrix=A, rhs=b,
                     equality_matrix=np.ones((1, d)), equality_rhs=[1.0])
        for v in enumerate_vertices(p):
            assert p.contains(v)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0, 2.0], constraint_matrix=[[1.0]], rhs=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0], constraint_matrix=[[1.0]], rhs=[1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["constraint_matrix", "equality_matrix"])
def test_non_finite_constraint_matrices_rejected(field, bad):
    rhs = "rhs" if field == "constraint_matrix" else "equality_rhs"
    data = {field: [[bad, 1.0]], rhs: [1.0]}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        LinearProgram(objective=[1.0, 1.0], **data)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Polytope(dim=2, **data)


def test_variables_are_nonnegative_only():
    with pytest.raises(TypeError):
        LinearProgram(objective=[1.0], bounds=[(0.0, 1.0)])
    with pytest.raises(TypeError):
        Polytope(dim=1, bounds=[(0.0, 1.0)])
    assert Polytope(dim=2).bounds == ((0.0, np.inf), (0.0, np.inf))


# ---------------------------------------------------------------------------
# batched enumeration: equivalence with a per-basis reference
# ---------------------------------------------------------------------------


def _naive_vertices(p: Polytope) -> list[np.ndarray]:
    """The enumerator written one basis at a time: a min and a max LP per
    coordinate for boundedness, the equality rows that raise the rank of
    the rows before them, the inequality rows G = [A; -I], one square solve
    per basis, the scalar feasibility test on every row, then greedy
    deduplication in basis order."""
    d = p.dim
    for t in range(d):
        for sign in (1.0, -1.0):
            sol = solve_lp(p.lp(sign * np.eye(d)[t]))
            if sol.status is LpStatus.UNBOUNDED:
                raise ValueError("polytope is unbounded")
            if sol.status is LpStatus.INFEASIBLE:
                return []
    G = np.vstack([p.constraint_matrix, -np.eye(d)])
    h = np.concatenate([p.rhs, np.zeros(d)])
    E, f = p.equality_matrix, p.equality_rhs
    ranks = [0] + [np.linalg.matrix_rank(E[: r + 1]) for r in range(E.shape[0])]
    basic = [r for r in range(E.shape[0]) if ranks[r + 1] > ranks[r]]
    k = d - len(basic)
    verts = []
    for combo in itertools.combinations(range(G.shape[0]), k):
        mat = np.vstack([E[basic], G[list(combo)]])
        rhs = np.concatenate([f[basic], h[list(combo)]])
        with np.errstate(all="ignore"):
            det = np.linalg.det(mat)
        if not abs(det) > 1e-12 * max(1.0, np.max(np.abs(mat)) ** d):
            continue
        x = np.linalg.solve(mat, rhs)
        if np.max(np.abs(np.einsum("ij,j->i", mat, x) - rhs)) > 1e-9 or not np.all(np.isfinite(x)):
            continue
        tol = lp_kernel.FEAS_TOL
        if p.constraint_matrix.shape[0] and np.any(p.constraint_matrix @ x > p.rhs + tol):
            continue
        if E.shape[0] and np.any(np.abs(E @ x - f) > tol):
            continue
        if np.all(x >= -tol):
            verts.append(x)
    unique = []
    for v in verts:
        if not any(np.max(np.abs(v - u)) <= oracle.DEDUPE_TOL for u in unique):
            unique.append(v)
    return unique


def _outcome(enumerate_, p):
    try:
        return enumerate_(p)
    except ValueError as exc:
        return type(exc)


def _random_polytope(rng) -> Polytope:
    d = int(rng.integers(2, 5))
    k = int(rng.integers(1, 4))
    return Polytope(dim=d, constraint_matrix=rng.normal(size=(k, d)), rhs=rng.uniform(0.3, 1.5, k),
                    equality_matrix=np.ones((1, d)), equality_rhs=[1.0])


def _degenerate_polytope(rng) -> Polytope:
    # small integer rows through few points: many bases share a vertex.
    # Rows a x <= r on the box [0, 1]^(d-1) x [-1, 1], shifted by e_d into
    # x >= 0: a y <= r + a_d, y_t <= 1 for t < d and y_d <= 2.
    d = int(rng.integers(2, 5))
    k = int(rng.integers(1, 5))
    a, r = rng.integers(-2, 3, (k, d)), rng.integers(0, 3, k)
    return Polytope(dim=d, constraint_matrix=np.vstack([a, np.eye(d)]),
                    rhs=np.concatenate([r + a[:, -1], np.ones(d - 1), [2.0]]))


def _pair_polytope_of(rng) -> Polytope:
    m, n = (int(v) for v in rng.integers(2, 4, 2))
    mats = [rng.integers(0, 6, (m, n)).astype(float) for _ in range(4)]
    table = CostTable(cp=(mats[0], mats[1]), ca=(mats[2], mats[3]))
    return _pair_polytope(table, *(int(v) for v in rng.integers(0, n, 2)))


def _point_polytope(rng) -> Polytope:
    # as many equalities as variables: k = 0, one candidate basis
    d = int(rng.integers(1, 4))
    return Polytope(dim=d, equality_matrix=rng.integers(-2, 3, (d, d)), equality_rhs=rng.integers(-1, 3, d))


@pytest.mark.parametrize("block", [oracle._BASES_PER_BLOCK, 5])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.sampled_from([_random_polytope, _degenerate_polytope,
                                                _pair_polytope_of, _point_polytope]))
def test_batched_enumeration_equals_the_per_basis_reference(block, seed, make):
    p = make(np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BASES_PER_BLOCK", block)
        fast = _outcome(enumerate_vertices, p)
    slow = _outcome(_naive_vertices, p)
    if isinstance(slow, type):
        assert fast is slow
        return
    assert len(fast) == len(slow)
    assert all(np.array_equal(a, b) for a, b in zip(fast, slow))


def _polytope_family(rng) -> list[Polytope]:
    """One to four polytopes that share dim, row count and equality rows.
    x lies in one simplex or in two, so a choice of x_t >= 0 rows can zero a
    whole equality row; the rows are real or small integers (degenerate
    vertices); now and then one row is zero in every polytope, which makes
    every system that holds it singular."""
    d = int(rng.integers(2, 7))
    cut = int(rng.integers(1, d)) if d > 2 and rng.integers(0, 2) else d
    eq = np.array([np.arange(d) < cut, np.arange(d) >= cut], dtype=float)[: 1 if cut == d else 2]
    k = int(rng.integers(1, 4))
    zero_row = int(rng.integers(0, k)) if rng.integers(0, 2) else None
    family = []
    for _ in range(int(rng.integers(1, 5))):
        if rng.integers(0, 2):
            a, r = rng.normal(size=(k, d)), rng.uniform(-0.2, 1.5, k)
        else:
            a, r = rng.integers(-2, 3, (k, d)).astype(float), rng.integers(0, 3, k).astype(float)
        if zero_row is not None:
            a[zero_row] = 0.0
            r[zero_row] = abs(r[zero_row])
        family.append(Polytope(dim=d, constraint_matrix=a, rhs=r,
                               equality_matrix=eq, equality_rhs=np.ones(eq.shape[0])))
    return family


@pytest.mark.parametrize("block", [oracle._BASES_PER_BLOCK, 5])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_enumeration_of_several_polytopes_equals_the_per_basis_reference(block, seed):
    # one call for the whole family (with block 5, one system per batch, so
    # a polytope's bases span many batches) against each polytope alone
    family = [p for p in _polytope_family(np.random.default_rng(seed)) if oracle._bounded_and_feasible(p)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BASES_PER_BLOCK", block)
        batched = enumerate_bounded_vertices(family)
    assert len(batched) == len(family)
    for got, p in zip(batched, family):
        want = _naive_vertices(p)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_candidate_bases_drop_only_systems_that_give_no_vertex():
    # x in two 2-simplices with no other row: C(4, 2) = 6 choices of two
    # x_t >= 0 rows, of which {0, 1} and {2, 3} zero a whole simplex
    eq = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    G = -np.eye(4)[None]
    assert oracle._candidate_index(G, eq, np.ones(2)).tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]]
    # with rhs 0 the zeroed simplex is the vertex 0: nothing is dropped
    assert len(oracle._candidate_index(G, eq, np.zeros(2))) == 6
    # a row zero in every polytope of the call never joins a basis; one that
    # is zero in only some does
    zero_in_all = np.concatenate([np.zeros((2, 1, 4)), np.broadcast_to(-np.eye(4), (2, 4, 4))], axis=1)
    assert 0 not in oracle._candidate_index(zero_in_all, eq[:1], np.zeros(1))
    zero_in_one = zero_in_all.copy()
    zero_in_one[1, 0] = 1.0
    assert 0 in oracle._candidate_index(zero_in_one, eq[:1], np.zeros(1))
    square = Polytope(dim=2, constraint_matrix=np.eye(2), rhs=np.ones(2))
    assert enumerate_bounded_vertices([]) == []
    with pytest.raises(ValueError, match="share"):
        enumerate_bounded_vertices([square, Polytope(dim=2, constraint_matrix=np.eye(3)[:, :2], rhs=np.ones(3))])


def _two_by_six_pair_polytope() -> Polytope:
    # Agent indifferent everywhere: the best-response rows are 0 <= 0, so the
    # polytope is the product of six 2-point simplices, 64 vertices among
    # C(22, 6) = 74,613 candidate bases.
    cp = np.arange(12.0).reshape(2, 6)
    return _pair_polytope(CostTable(cp=(cp, cp), ca=(np.zeros((2, 6)), np.zeros((2, 6)))), 0, 0)


def test_enumeration_memory_is_bounded_by_the_block_size(monkeypatch):
    p = _two_by_six_pair_polytope()
    tracemalloc.start()
    try:
        blocked = enumerate_vertices(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocked) == 64
    assert peak < 32 * 2**20
    monkeypatch.setattr(oracle, "_BASES_PER_BLOCK", 10**6)
    whole = enumerate_vertices(p)
    assert len(whole) == len(blocked)
    assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))


# ---------------------------------------------------------------------------
# boundedness probe and feasibility
# ---------------------------------------------------------------------------

def test_pair_polytope_boundedness_takes_one_lp(monkeypatch):
    rng = np.random.default_rng(0)
    mats = [rng.integers(0, 6, (3, 3)).astype(float) for _ in range(4)]
    p = _pair_polytope(CostTable(cp=(mats[0], mats[1]), ca=(mats[2], mats[3])), 0, 0)
    calls = []

    def counted(lp):
        calls.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(oracle, "solve_lp", counted)
    assert enumerate_vertices(p)
    assert len(calls) == 1
    # and one LP for any other polytope: bounded, empty or unbounded
    cube = Polytope(dim=3, constraint_matrix=np.eye(3), rhs=np.ones(3))
    empty = Polytope(dim=2, constraint_matrix=[[1.0, 1.0]], rhs=[-1.0])
    ray = Polytope(dim=2, constraint_matrix=[[1.0, -1.0]], rhs=[1.0])
    for poly, want in ((cube, True), (_random_polytope(rng), None), (empty, False)):
        calls.clear()
        got = oracle._bounded_and_feasible(poly)
        assert len(calls) == 1
        assert want is None or got is want
    calls.clear()
    with pytest.raises(ValueError, match="unbounded"):
        oracle._bounded_and_feasible(ray)
    assert len(calls) == 1


def test_batched_contains_matches_per_point_calls():
    p = Polytope(dim=3, constraint_matrix=[[1.0, 1.0, 0.0], [0.3, -0.7, 0.1]], rhs=[1.0, 0.2],
                 equality_matrix=[[1.0, 1.0, 1.0]], equality_rhs=[1.0])
    tol = lp_kernel.FEAS_TOL
    rng = np.random.default_rng(1)
    points = [rng.dirichlet(np.ones(3)) for _ in range(40)]
    # on faces (x0 + x1 = 1, x2 = 0, sum = 1) and at +-tol, +-tol/2, +-2 tol from them
    for delta in (0.0, tol, -tol, tol / 2, -tol / 2, 2 * tol, -2 * tol):
        points += [np.array([0.5 + delta, 0.5, 0.0]), np.array([0.5, 0.5, delta]),
                   np.array([0.3, 0.3, 0.4 + delta])]
    batch = np.array(points)
    mask = p.contains(batch)
    assert mask.dtype == bool and mask.shape == (len(points),)
    assert mask.tolist() == [p.contains(x) for x in points]
    assert all(type(p.contains(x)) is bool for x in points)
    assert p.contains(np.array([0.5 + tol / 2, 0.5, 0.0]))
    assert not p.contains(np.array([0.5 + 2 * tol, 0.5, 0.0]))
    assert not p.contains(np.array([0.5, 0.5, -2 * tol]))
