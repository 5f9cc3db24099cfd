import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incentive_games import lp_kernel, oracle
from incentive_games.lp_kernel import (
    Polytope,
    SolverError,
    lexicographic_descent,
    parametric_walk,
    phase_one,
    phase_two,
)
from incentive_games.matrix_games import CostTable, _pair_polytope
from incentive_games.oracle import enumerate_bounded_vertices, enumerate_vertices

try:  # test-only reference solver; the package itself needs only numpy
    from scipy.optimize import linprog
except ImportError:
    linprog = None


def _two_phase(region: Polytope, c) -> tuple[str, np.ndarray | None, float | None]:
    """min c @ x over `region` by a fresh phase one and then phase two: the
    status ("infeasible" when phase one returns None, "unbounded" when phase
    two does, else "optimal"), the optimal point and its value c @ x."""
    c = np.asarray(c, dtype=float)
    start = phase_one(region)
    if start is None:
        return "infeasible", None, None
    optimum = phase_two(c, start)
    if optimum is None:
        return "unbounded", None, None
    x = optimum.solution(region.dim)
    return "optimal", x, float(c @ x)


def _fresh_lex_min(region: Polytope, c: np.ndarray) -> np.ndarray:
    """The lex-min optimal point from a fresh phase one and phase two."""
    return lexicographic_descent(c, phase_two(c, phase_one(region)))


def test_bound_active_optimum():
    status, _, value = _two_phase(Polytope(dim=1), [1.0])
    assert status == "optimal"
    assert value == pytest.approx(0.0, abs=1e-12)


def test_unbounded_below():
    assert phase_two(np.array([-1.0]), phase_one(Polytope(dim=1))) is None


def test_equality_forces_value():
    status, _, value = _two_phase(Polytope(dim=2, equality_matrix=[[1.0, 1.0]], equality_rhs=[1.0]), [1.0, 1.0])
    assert status == "optimal"
    assert value == pytest.approx(1.0, abs=1e-12)


def test_infeasible_detected():
    assert phase_one(Polytope(dim=1, equality_matrix=[[1.0]], equality_rhs=[-2.0])) is None


def test_redundant_equalities_handled():
    region = Polytope(dim=2, equality_matrix=[[1.0, 1.0], [2.0, 2.0]], equality_rhs=[1.0, 2.0])
    status, x, value = _two_phase(region, [2.0, 1.0])
    assert status == "optimal"
    assert value == pytest.approx(1.0, abs=1e-10)
    assert x == pytest.approx([0.0, 1.0], abs=1e-10)


@st.composite
def _lps(draw) -> tuple[Polytope, np.ndarray]:
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
    c = block(1, d)[0]
    region = Polytope(
        dim=d,
        constraint_matrix=np.vstack([a, np.eye(d)[capped]]),
        rhs=np.concatenate([b, upper[capped]]),
        equality_matrix=block(e, d),
        equality_rhs=block(1, e)[0],
    )
    return region, c


@pytest.mark.skipif(linprog is None, reason="scipy is not installed")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lps())
def test_phases_agree_with_highs(lp):
    region, c = lp
    status, _, value = _two_phase(region, c)
    res = linprog(
        c,
        A_ub=region.constraint_matrix if region.constraint_matrix.shape[0] else None,
        b_ub=region.rhs if region.rhs.shape[0] else None,
        A_eq=region.equality_matrix if region.equality_matrix.shape[0] else None,
        b_eq=region.equality_rhs if region.equality_rhs.shape[0] else None,
        method="highs",
        # HiGHS's presolve calls some feasible unbounded LPs infeasible
        # (e.g. min -2.17 x0 + 1.56 x1 - 0.96 x2 under three rows of this
        # strategy with x1 <= 1); its simplex alone does not
        options={"presolve": False},
    )
    assert status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    if status == "optimal":
        assert value == pytest.approx(res.fun, abs=1e-7 * max(1.0, abs(res.fun)))


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
    status, _, value = _two_phase(Polytope(dim=4, constraint_matrix=A, rhs=b), c)
    assert status == "optimal"
    assert value == pytest.approx(-1.0, abs=1e-9)


def test_bit_identical_reruns():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        c = rng.normal(size=d)
        region = Polytope(
            dim=d,
            constraint_matrix=rng.normal(size=(k, d)),
            rhs=rng.uniform(0.5, 2.0, size=k),
            equality_matrix=np.ones((1, d)),
            equality_rhs=[1.0],
        )
        a = _two_phase(region, c)
        bsol = _two_phase(region, c)
        assert a[0] == bsol[0]
        if a[0] == "optimal":
            assert a[2] == bsol[2]  # exact equality, not approx
            assert np.array_equal(a[1], bsol[1])


def test_solution_feasibility_invariant():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, 6))
        A = rng.normal(size=(k, d))
        b = rng.uniform(0.2, 2.0, size=k)
        c = rng.normal(size=d)
        region = Polytope(dim=d, constraint_matrix=A, rhs=b, equality_matrix=np.ones((1, d)), equality_rhs=[1.0])
        status, x, value = _two_phase(region, c)
        if status == "optimal":
            assert np.all(A @ x <= b + 1e-8)
            assert abs(x.sum() - 1.0) <= 1e-8
            assert np.all(x >= -1e-8)
            assert value == pytest.approx(float(c @ x), rel=1e-9, abs=1e-12)


def test_pivot_cap_raises_solver_error(monkeypatch):
    region = Polytope(dim=2, constraint_matrix=[[1.0, 2.0], [3.0, 1.0]], rhs=[4.0, 6.0])
    assert _two_phase(region, [-1.0, -1.0])[2] == pytest.approx(-2.8)
    monkeypatch.setattr(lp_kernel, "_PIVOTS_PER_LINE", 0)
    with pytest.raises(SolverError, match="pivots"):
        _two_phase(region, [-1.0, -1.0])


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
    status, _, value = _two_phase(p, c)
    verts = enumerate_vertices(p)
    if status == "optimal":
        assert verts, "optimal LP but no vertices found"
        vmin = min(float(c @ v) for v in verts)
        assert value == pytest.approx(vmin, abs=1e-8)
        assert all(value <= float(c @ v) + 1e-8 for v in verts)
    else:
        assert status == "infeasible"
        assert verts == []


def test_lexicographic_descent_is_lex_min_optimal_vertex():
    rng = np.random.default_rng(3)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        A = rng.normal(size=(2, d))
        b = rng.uniform(0.3, 1.5, size=2)
        p = Polytope(dim=d, constraint_matrix=A, rhs=b,
                     equality_matrix=np.ones((1, d)), equality_rhs=[1.0])
        c = rng.choice([0.0, 1.0], size=d)  # flat directions make ties likely
        status, _, value = _two_phase(p, c)
        if status != "optimal":
            continue
        canon = _fresh_lex_min(p, c)
        verts = enumerate_vertices(p)
        opts = [v for v in verts if float(c @ v) <= value + 1e-8]
        lexmin = min(opts, key=lambda v: tuple(np.round(v, 9)))
        assert canon == pytest.approx(lexmin, abs=1e-7)


@st.composite
def _bounded_lps(draw) -> tuple[Polytope, np.ndarray]:
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
        return Polytope(dim=d, constraint_matrix=a.reshape(k, d), rhs=b,
                        equality_matrix=np.ones((1, d)), equality_rhs=[1.0]), c
    return Polytope(dim=d, constraint_matrix=np.vstack([a.reshape(k, d), np.eye(d)]),
                    rhs=np.concatenate([b, np.ones(d)])), c


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_bounded_lps())
def test_lexicographic_descent_equals_the_enumeration_oracle(lp):
    region, c = lp
    start = phase_one(region)
    verts = enumerate_vertices(region)
    if not verts:
        assert start is None
        return
    optimum = phase_two(c, start)
    assert optimum is not None
    canon = lexicographic_descent(c, optimum)
    values = [float(c @ v) for v in verts]
    optimal = [v for v, value in zip(verts, values) if value <= min(values) + 1e-9]
    lexmin = min(optimal, key=lambda v: tuple(np.round(v, 9)))
    assert np.max(np.abs(canon - lexmin)) <= 1e-9


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_bounded_lps(), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
def test_phase_two_from_one_phase_one_equals_a_fresh_phase_one(lp, seeds):
    # One phase-one result serves every objective over the same constraints:
    # phase two works on a copy, so each solve is bit for bit the one from a
    # fresh phase one of its own LP, and so is its lexicographic minimum.
    region, c = lp
    start = phase_one(region)
    if start is None:
        assert phase_one(region) is None
        return
    assert not start.array.flags.writeable and not start.basis.flags.writeable
    before = (start.array.tobytes(), start.basis.tobytes())
    objectives = [c] + [np.random.default_rng(s).normal(size=region.dim) for s in seeds]
    for c in objectives:
        optimum = phase_two(c, start)
        assert optimum is not None
        assert optimum.solution(region.dim).tobytes() == _two_phase(region, c)[1].tobytes()
        assert lexicographic_descent(c, optimum).tobytes() == _fresh_lex_min(region, c).tobytes()
    assert (start.array.tobytes(), start.basis.tobytes()) == before


def test_phase_two_reports_unbounded_objectives_from_a_shared_start():
    # x0 - x1 <= 1 over x >= 0: no artificial column, so phase one is the
    # slack basis; -x0 is unbounded below there, x0 + x1 is not.
    region = Polytope(dim=2, constraint_matrix=[[1.0, -1.0]], rhs=[1.0])
    start = phase_one(region)
    assert start.array.shape == (2, 4)
    assert phase_two(np.array([-1.0, 0.0]), start) is None
    assert _two_phase(region, [-1.0, 0.0])[0] == "unbounded"
    c = np.array([1.0, 1.0])
    assert phase_two(c, start).solution(2).tobytes() == _two_phase(region, c)[1].tobytes()


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
    assert _two_phase(region, [1.0, 2.0])[1].tolist() == [1.0, 0.0]
    for c in (np.array([1.0, 2.0]), np.array([2.0, 1.0]), np.array([1.0, 1.0])):
        optimum = phase_two(c, start)
        assert optimum.solution(2).tobytes() == _two_phase(region, c)[1].tobytes()
        assert lexicographic_descent(c, optimum).tobytes() == _fresh_lex_min(region, c).tobytes()


def test_phase_one_reports_an_empty_region():
    # x0 + x1 = 1 and x0 + x1 <= 0.5 cannot both hold
    region = Polytope(dim=2, constraint_matrix=[[1.0, 1.0]], rhs=[0.5],
                      equality_matrix=[[1.0, 1.0]], equality_rhs=[1.0])
    assert phase_one(region) is None


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
    region, c = lp
    start = phase_one(region)
    verts = enumerate_vertices(region)
    if start is None:
        assert not verts
        return
    rng = np.random.default_rng(seed)
    levels = [(c, rng.integers(0, 3, region.dim).astype(float))]
    if two_levels:
        levels.append(tuple(rng.integers(0, 3, (2, region.dim)).astype(float)))
    walk = parametric_walk(start, levels)
    assert walk.beliefs[0] == 0.0 and walk.beliefs[-1] == 1.0
    assert all(s < t for s, t in zip(walk.beliefs, walk.beliefs[1:]))
    assert len(walk.at) == len(walk.beliefs) == len(walk.between) + 1
    mids = [0.5 * (s + t) for s, t in zip(walk.beliefs, walk.beliefs[1:])]
    for mu, x in [*zip(walk.beliefs, walk.at), *zip(mids, walk.between)]:
        want = _lex_optimum(verts, [mu * a + (1.0 - mu) * b for a, b in levels])
        assert np.max(np.abs(x - want)) <= 1e-9
    # a fork is the first level's optimum at its stop: at mu for a stop at
    # a breakpoint, inside the interval for one between breakpoints
    stops = [*((mu, mu) for mu in walk.beliefs), *zip(walk.beliefs, walk.beliefs[1:])]
    assert len(walk.forks) <= len(stops) * two_levels
    for lo, hi, x in walk.forks:
        assert (lo, hi) in stops
        mu = 0.5 * (lo + hi)
        a, b = levels[0]
        assert np.max(np.abs(x - _lex_optimum(verts, [mu * a + (1.0 - mu) * b]))) <= 1e-9


def test_a_fork_is_the_first_levels_lex_min_and_its_failure_fails_the_walk(monkeypatch):
    # On the simplex x0 + x1 + x2 = 1 the first level ties every vertex and
    # the second picks x0; the first level alone takes the lex-min, x2.
    region = Polytope(dim=3, equality_matrix=[[1.0, 1.0, 1.0]], equality_rhs=[1.0])
    start = phase_one(region)
    levels = [(np.zeros(3), np.zeros(3)), (np.array([-1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]))]
    walk = parametric_walk(start, levels)
    assert walk.beliefs == (0.0, 1.0)
    assert [x.tolist() for x in (*walk.at, *walk.between)] == [[1.0, 0.0, 0.0]] * 3
    assert [(lo, hi, x.tolist()) for lo, hi, x in walk.forks] == [
        (0.0, 0.0, [0.0, 0.0, 1.0]), (0.0, 1.0, [0.0, 0.0, 1.0]), (1.0, 1.0, [0.0, 0.0, 1.0])]
    first_level = parametric_walk(start, levels[:1])
    assert first_level.forks == ()
    assert [x.tolist() for x in (*first_level.at, *first_level.between)] == [[0.0, 0.0, 1.0]] * 3
    # Phase one ends at x0, so the walk itself takes no pivot and only its
    # forks do. Should a fork's ratio test find no row, the walk reports an
    # unbounded column.
    monkeypatch.setattr(lp_kernel, "_leaving_row", lambda *args: -1)
    assert parametric_walk(start, levels[1:]).at[0].tolist() == [1.0, 0.0, 0.0]
    assert parametric_walk(start, levels) is None


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
        Polytope(dim=2, constraint_matrix=[[1.0]], rhs=[1.0])
    with pytest.raises(ValueError):
        Polytope(dim=1, constraint_matrix=[[1.0]], rhs=[1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["constraint_matrix", "equality_matrix"])
def test_non_finite_constraint_matrices_rejected(field, bad):
    rhs = "rhs" if field == "constraint_matrix" else "equality_rhs"
    data = {field: [[bad, 1.0]], rhs: [1.0]}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Polytope(dim=2, **data)


def test_variables_are_nonnegative_only():
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
            status = _two_phase(p, sign * np.eye(d)[t])[0]
            if status == "unbounded":
                raise ValueError("polytope is unbounded")
            if status == "infeasible":
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
    # One LP is one phase one and, where that finds the region nonempty, one
    # phase two.
    rng = np.random.default_rng(0)
    mats = [rng.integers(0, 6, (3, 3)).astype(float) for _ in range(4)]
    table = CostTable(cp=(mats[0], mats[1]), ca=(mats[2], mats[3]))
    p = _pair_polytope(table, 0, 0)
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    monkeypatch.setattr(oracle, "phase_one", counted("phase_one", phase_one))
    monkeypatch.setattr(oracle, "phase_two", counted("phase_two", phase_two))
    assert enumerate_vertices(p)
    assert calls == ["phase_one", "phase_two"]
    # and one LP for any other polytope: bounded, empty or unbounded
    cube = Polytope(dim=3, constraint_matrix=np.eye(3), rhs=np.ones(3))
    empty = Polytope(dim=2, constraint_matrix=[[1.0, 1.0]], rhs=[-1.0])
    ray = Polytope(dim=2, constraint_matrix=[[1.0, -1.0]], rhs=[1.0])
    for poly, want in ((cube, True), (_random_polytope(rng), None), (empty, False)):
        calls.clear()
        got = oracle._bounded_and_feasible(poly)
        assert calls == ["phase_one"] + ["phase_two"] * got
        assert want is None or got is want
    calls.clear()
    with pytest.raises(ValueError, match="unbounded"):
        oracle._bounded_and_feasible(ray)
    assert calls == ["phase_one", "phase_two"]
    # verify's vertex pass needs no boundedness LP: every pair polytope is
    # bounded, so it runs one phase one per pair and no phase two
    calls.clear()
    assert oracle._oracle_vertices(table)
    assert calls == ["phase_one"] * table.n ** 2


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
