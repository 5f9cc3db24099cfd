import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incentive_games import lp_kernel
from incentive_games.lp_kernel import (
    LinearProgram,
    LpStatus,
    Polytope,
    SolverError,
    enumerate_vertices,
    lexicographic_argmin,
    solve_lp,
)


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


def test_free_and_upper_bounded_variables():
    # min x, -x <= 5, x free
    sol = solve_lp(
        LinearProgram(objective=[1.0], constraint_matrix=[[-1.0]], rhs=[5.0],
                      bounds=[(-np.inf, np.inf)])
    )
    assert sol.value == pytest.approx(-5.0, abs=1e-10)
    # max x on [2, 3] as min of -x
    sol = solve_lp(LinearProgram(objective=[-1.0], bounds=[(2.0, 3.0)]))
    assert sol.value == pytest.approx(-3.0, abs=1e-10)
    # upper bound only
    sol = solve_lp(LinearProgram(objective=[-1.0], bounds=[(-np.inf, 4.0)]))
    assert sol.value == pytest.approx(-4.0, abs=1e-10)


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
    cube = Polytope(dim=3, bounds=[(0.0, 1.0)] * 3)
    assert len(enumerate_vertices(cube)) == 8
    monkeypatch.setattr(lp_kernel, "_MAX_BASES", 19)
    with pytest.raises(SolverError, match="20 bases"):
        enumerate_vertices(cube)
    empty = Polytope(dim=3, bounds=[(0.0, 1.0)] * 3, constraint_matrix=[[1.0, 1.0, 1.0]], rhs=[-1.0])
    assert enumerate_vertices(empty) == []


def test_unit_simplex_vertices():
    p = Polytope(dim=2, equality_matrix=[[1.0, 1.0]], equality_rhs=[1.0])
    vs = sorted(tuple(np.round(v, 9)) for v in enumerate_vertices(p))
    assert vs == [(0.0, 1.0), (1.0, 0.0)]


def test_box_corners():
    p = Polytope(dim=2, bounds=[(0.0, 1.0), (0.0, 1.0)])
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
        constraint_matrix=[[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]],
        rhs=[1.0, 1.0, 1.0],
        bounds=[(0.0, np.inf), (-1.0, 1.0)],
    )
    vs = enumerate_vertices(p)
    pts = {tuple(np.round(v, 9)) for v in vs}
    assert (1.0, 0.0) in pts
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
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0], bounds=[(1.0, 0.0)])
    with pytest.raises(ValueError, match="lower > upper"):
        Polytope(dim=1, bounds=[(1.0, 0.0)])
