import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from incentive_games import lp_kernel, matrix_games, oracle
from incentive_games.belief_engine import envelope_from_samples
from incentive_games.lp_kernel import Polytope, SolverError, lexicographic_descent, phase_one, phase_two
from incentive_games.matrix_games import (
    CostTable,
    IncentiveScheme,
    _pair_polytope,
    _pair_profiles,
    _scheme_key,
    _to_matrix,
    agent_value_curve,
    solve_g1,
    solve_g2,
    solve_g3,
    solve_g4,
    value_curves,
)
from incentive_games.oracle import (
    collect_xi,
    enumerate_bounded_vertices,
    enumerate_vertices,
    oracle_g2_by_enumeration,
)
from incentive_games.scenarios import load_scenario

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_entry = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=32)


def _tables(n: int):
    shape = (2, 2, n, n)
    count = 4 * n * n
    return st.lists(_entry, min_size=count, max_size=count).map(
        lambda v: CostTable(
            cp=np.array(v[: 2 * n * n], dtype=float).reshape(2, n, n),
            ca=np.array(v[2 * n * n :], dtype=float).reshape(2, n, n),
        )
    )


def _small_tables():
    """Tables from 2x2 to 3x3, real-valued or integer-valued (ties)."""

    def of(m, n, entry):
        count = 4 * m * n
        return st.lists(entry, min_size=count, max_size=count).map(
            lambda v: CostTable(
                cp=np.array(v[: 2 * m * n], dtype=float).reshape(2, m, n),
                ca=np.array(v[2 * m * n :], dtype=float).reshape(2, m, n),
            )
        )

    return st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]).flatmap(
        lambda mn: st.one_of(of(*mn, _entry), of(*mn, st.integers(0, 5)))
    )


_priors = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_interior = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_cost_table_shape_mismatch():
    with pytest.raises(ValueError):
        CostTable(cp=([[1.0, 2.0]], [[1.0], [2.0]]), ca=([[1.0, 2.0]], [[1.0, 2.0]]))
    with pytest.raises(ValueError):
        CostTable(cp=([[1.0]], [[1.0]]), ca=([[1.0, 2.0]], [[1.0, 2.0]]))


def test_cost_table_rejects_non_finite():
    with pytest.raises(ValueError):
        CostTable(cp=([[np.inf]], [[1.0]]), ca=([[1.0]], [[1.0]]))


def test_cost_table_matrices_are_read_only(table_a):
    with pytest.raises(ValueError):
        table_a.cp[0][0, 0] = 9.0


def test_scheme_validation():
    with pytest.raises(ValueError):
        IncentiveScheme(np.array([[0.5, 0.2], [0.4, 0.8]]))  # first column sums to 0.9
    with pytest.raises(ValueError):
        IncentiveScheme(np.array([[1.2, 0.0], [-0.2, 1.0]]))  # negative entry
    with pytest.raises(ValueError):
        IncentiveScheme(np.ones((3, 2, 2)) / 2.0)  # three states
    s = IncentiveScheme(np.array([[0.25, 1.0], [0.75, 0.0]]))
    assert not s.state_dependent
    assert np.array_equal(s.for_state(0), s.for_state(1))


# ---------------------------------------------------------------------------
# g1: full information
# ---------------------------------------------------------------------------


def test_g1_benchmark_a(table_a):
    r = solve_g1(table_a, 0.4)
    assert r.principal_cost == pytest.approx(1.0, abs=1e-8)
    assert r.agent_cost == pytest.approx(3.0, abs=1e-8)
    assert r.agent_actions == (1, 1)
    s1, s2 = r.scheme.for_state(0), r.scheme.for_state(1)
    assert s1[:, 0] == pytest.approx([0.5, 0.5], abs=1e-8)
    assert s1[:, 1] == pytest.approx([0.0, 1.0], abs=1e-8)
    assert s2[:, 0] == pytest.approx([0.0, 1.0], abs=1e-8)
    assert s2[:, 1] == pytest.approx([1.0, 0.0], abs=1e-8)
    r.check(table_a)


def test_g1_prior_only_reweights_states(table_a):
    low = solve_g1(table_a, 0.2)
    high = solve_g1(table_a, 0.8)
    assert low.per_state == high.per_state
    for r in (low, high):
        mu = r.belief
        expect = mu * r.per_state[0].principal_cost + (1 - mu) * r.per_state[1].principal_cost
        assert r.principal_cost == pytest.approx(expect, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_tables(2), _priors)
def test_g1_aligned_interests_reach_team_optimum(table, prior):
    aligned = CostTable(cp=table.cp, ca=table.cp)
    r = solve_g1(aligned, prior)
    want = prior * table.cp[0].min() + (1 - prior) * table.cp[1].min()
    assert r.principal_cost == pytest.approx(want, abs=1e-7)
    r.check(aligned)


def _g1_state_oracle(table: CostTable, state: int) -> float:
    """Independent route: enumerate each response polytope's vertices and
    evaluate the principal's cost directly."""
    m, n = table.m, table.n
    best = np.inf
    eq = np.zeros((n, m * n))
    for c in range(n):
        eq[c, c * m : (c + 1) * m] = 1.0
    for j in range(n):
        rows = []
        for l in range(n):
            if l == j:
                continue
            row = np.zeros(m * n)
            row[j * m : (j + 1) * m] = table.ca[state][:, j]
            row[l * m : (l + 1) * m] -= table.ca[state][:, l]
            rows.append(row)
        poly = Polytope(
            dim=m * n,
            constraint_matrix=np.array(rows),
            rhs=np.zeros(n - 1),
            equality_matrix=eq,
            equality_rhs=np.ones(n),
        )
        for v in enumerate_vertices(poly):
            gamma = v.reshape(n, m).T
            best = min(best, float(gamma[:, j] @ table.cp[state][:, j]))
    return best


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_tables(2), _priors)
def test_g1_matches_vertex_enumeration_oracle(table, prior):
    r = solve_g1(table, prior)
    want = prior * _g1_state_oracle(table, 0) + (1 - prior) * _g1_state_oracle(table, 1)
    assert r.principal_cost == pytest.approx(want, abs=1e-7)


def test_g1_oracle_on_3x3():
    rng = np.random.default_rng(42)
    for _ in range(5):
        table = CostTable(cp=rng.uniform(-3, 3, (2, 3, 3)), ca=rng.uniform(-3, 3, (2, 3, 3)))
        r = solve_g1(table, 0.3)
        want = 0.3 * _g1_state_oracle(table, 0) + 0.7 * _g1_state_oracle(table, 1)
        assert r.principal_cost == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------------------------
# g2: one scheme across states
# ---------------------------------------------------------------------------


def test_g2_benchmark_a(table_a):
    r = solve_g2(table_a, 0.4)
    assert r.principal_cost == pytest.approx(2.6, abs=1e-8)
    assert r.agent_cost == pytest.approx(2.6, abs=1e-8)
    assert r.agent_actions == (0, 1)
    assert r.scheme.columns[:, 0] == pytest.approx([0.0, 1.0], abs=1e-8)
    assert r.scheme.columns[:, 1] == pytest.approx([1.0, 0.0], abs=1e-8)
    r.check(table_a)


def test_g2_benchmark_b(table_b):
    r = solve_g2(table_b, 0.75)
    assert r.principal_cost == pytest.approx(2.0, abs=1e-8)
    assert r.agent_cost == pytest.approx(2.0, abs=1e-8)
    r.check(table_b)


def test_g2_benchmark_b_curve_values(table_b):
    frozen = {0.0: 1.0, 0.25: 1.9875, 0.4: 2.58, 0.5: 2.975, 0.6: 2.6, 0.75: 2.0, 1.0: 1.0}
    for mu, want in frozen.items():
        assert solve_g2(table_b, mu).principal_cost == pytest.approx(want, abs=1e-8)


def test_g2_agent_cost_piecewise_on_a(table_a):
    for mu in np.linspace(0.0, 1.0, 21):
        want = 3.0 - mu if mu <= 0.5 else 2.0 + mu
        assert solve_g2(table_a, mu).agent_cost == pytest.approx(want, abs=1e-8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_tables(2))
def test_g2_degenerate_beliefs_match_g1(table):
    g1 = solve_g1(table, 0.5)
    assert solve_g2(table, 1.0).principal_cost == pytest.approx(
        g1.per_state[0].principal_cost, abs=1e-7
    )
    assert solve_g2(table, 0.0).principal_cost == pytest.approx(
        g1.per_state[1].principal_cost, abs=1e-7
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_tables(2), _priors)
def test_g2_never_beats_g1(table, prior):
    assert solve_g1(table, prior).principal_cost <= solve_g2(table, prior).principal_cost + 1e-8


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_tables(2), _priors)
def test_g2_report_check_passes(table, prior):
    # random tables can be near-singular, so allow looser best-response slack
    # than the benchmark default
    solve_g2(table, prior).check(table, br_tol=1e-6)


def test_g2_reruns_identically(table_a):
    first = solve_g2(table_a, 0.4)
    second = solve_g2(table_a, 0.4)
    assert first.principal_cost == second.principal_cost
    assert np.array_equal(first.scheme.columns, second.scheme.columns)


# ---------------------------------------------------------------------------
# value curves
# ---------------------------------------------------------------------------


def test_principal_curve_anchors_a(table_a):
    xs, vals = value_curves(table_a, 2001)[:2]
    assert vals[0] == pytest.approx(1.0, abs=1e-8)
    assert vals[1000] == pytest.approx(3.0, abs=1e-8)
    assert vals[2000] == pytest.approx(1.0, abs=1e-8)


def test_curves_match_direct_solves(table_a, table_b):
    for table in (table_a, table_b):
        xs, jp, ja = value_curves(table, 201)
        assert np.array_equal(ja, agent_value_curve(table, 201)[1])
        for t in np.random.default_rng(3).choice(201, size=9, replace=False):
            r = solve_g2(table, xs[t])
            assert jp[t] == pytest.approx(r.principal_cost, abs=1e-9)
            assert ja[t] == pytest.approx(r.agent_cost, abs=1e-9)


def _curve_pair(table: CostTable, mu: float) -> tuple[int, int]:
    """The response pair behind value_curves at mu: the first pair whose
    least principal value is within the tie tolerance of the least."""
    profiles = _pair_profiles(table)
    vals = np.array([min(mu * p0 + (1.0 - mu) * p1 for p0, p1 in prof.principal) for prof in profiles])
    return profiles[int(np.argmax(vals <= vals.min() + matrix_games._OPTIMAL_TOL))].group


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_tables())
def test_g2_equals_the_value_curves_at_every_grid_point(table):
    xs, jp, ja = value_curves(table, 11)
    for t, mu in enumerate(xs):
        r = solve_g2(table, mu)
        assert r.principal_cost == pytest.approx(jp[t], abs=1e-9)
        assert r.agent_cost == pytest.approx(ja[t], abs=1e-9)
        assert r.agent_actions == _curve_pair(table, mu)


def test_g2_and_the_curve_agree_where_lp_round_off_split_them():
    # At belief 0.5 pairs (1, 0) and (1, 1) both cost the principal 1.5 at
    # best; the first pair's scheme costs the agent 2.5, the second's 3.5.
    # The LP of pair (1, 0) ends at 1.5000000000000004, so a strict
    # comparison of LP values would pick pair (1, 1).
    table = CostTable(
        cp=([[5, 0], [2, 3]], [[0, 3], [2, 4]]),
        ca=([[5, 4], [5, 0]], [[5, 3], [5, 5]]),
    )
    xs, jp, ja = value_curves(table, 3)
    r = solve_g2(table, 0.5)
    assert r.agent_actions == (1, 0)
    assert ja[1] == pytest.approx(2.5, abs=1e-12)
    assert r.agent_cost == pytest.approx(2.5, abs=1e-12)
    assert r.principal_cost == pytest.approx(jp[1], abs=1e-12)


def test_g2_and_the_curve_agree_below_the_simplex_tolerance():
    # Pair (0, 0)'s best scheme costs the principal -2.57e-12 at belief 0.5,
    # below the simplex's reduced-cost tolerance, so its LP may stop at cost 0.
    # One 1e-9 tie rule lets both paths pick the same first scheme.
    table = CostTable(
        cp=([[0, -5.14322352e-12], [0, 0]], [[0, 0], [0, 0]]),
        ca=([[0, 1], [1, 0]], [[0, 0], [0, 0]]),
    )
    xs, jp, ja = value_curves(table, 3)
    r = solve_g2(table, 0.5)
    assert r.principal_cost == pytest.approx(jp[1], abs=1e-9)
    assert r.agent_cost == ja[1] == 0.5


def test_g2_scheme_is_an_optimal_vertex_with_entries_near_1e8():
    # Pair (0, 0)'s LP ends at the optimum 0.0. A lex-min that pinned that
    # value as an equality, met only to the feasibility tolerance, drifted to
    # x = (4.5e-8, 0.99999996, ...): principal cost 2.0e-8 and not a vertex.
    table = CostTable(
        cp=([[0, 0], [0, 0]], [[1, 0], [0, 0]]),
        ca=([[np.float32(1e-8), 0], [-3, 0]], [[0, 0], [0, 0]]),
    )
    xs, jp, ja = value_curves(table, 21)
    assert xs[11] == 0.55
    r = solve_g2(table, 0.55)
    assert r.agent_actions == (0, 0)
    assert r.principal_cost == pytest.approx(jp[11], abs=1e-12)
    assert r.agent_cost == pytest.approx(ja[11], abs=1e-12)
    assert (jp[11], ja[11]) == pytest.approx((0.0, -1.65), abs=1e-12)
    vertices = next(p.schemes for p in _pair_profiles(table) if p.group == (0, 0))
    assert any(np.array_equal(r.scheme.columns, v) for v in vertices)


# A 3x3 table with cp0[0][1] = -1, ca0[0][1] = float32(1e-8) and every other
# entry 0. In state one, action 1 is a best response only where
# gamma[0][1] = 0 (it costs the agent 1e-8 * gamma[0][1] against 0), so
# jp2(1) = 0.0, which solve_g1, HiGHS and oracle_g2_by_enumeration all give.
# Polytope.contains accepts a row broken by up to its absolute FEAS_TOL of
# 1e-8, so the vertex enumerator keeps the scheme with gamma[0][1] = 1 as a
# vertex of pairs (1, j); value_curves read -1.0 while it was built on that
# enumeration.
def _near_feasible_table() -> CostTable:
    cp0, ca0 = np.zeros((3, 3)), np.zeros((3, 3))
    cp0[0, 1], ca0[0, 1] = -1.0, np.float32(1e-8)
    return CostTable(cp=(cp0, np.zeros((3, 3))), ca=(ca0, np.zeros((3, 3))))


NEAR_FEASIBLE_TABLE = _near_feasible_table()


# NEAR_FEASIBLE_TABLE with ca0[2][1] = 1 as well. The broken row is
# 1e-8 * gamma[0][1] + gamma[2][1] <= 0, whose largest coefficient is 1, so
# a FEAS_TOL scaled by the row's largest coefficient would still accept the
# scheme with gamma[0][1] = 1.
def _second_near_feasible_table() -> CostTable:
    cp0, ca0 = np.zeros((3, 3)), np.zeros((3, 3))
    cp0[0, 1], ca0[0, 1], ca0[2, 1] = -1.0, np.float32(1e-8), 1.0
    return CostTable(cp=(cp0, np.zeros((3, 3))), ca=(ca0, np.zeros((3, 3))))


SECOND_NEAR_FEASIBLE_TABLE = _second_near_feasible_table()


def test_g1_state_one_cost_is_jp2_at_belief_one_where_a_row_is_broken_within_feas_tol():
    _, jp, _ = value_curves(NEAR_FEASIBLE_TABLE, 2)
    assert solve_g1(NEAR_FEASIBLE_TABLE, 0.5).per_state[0].principal_cost == pytest.approx(jp[1], abs=1e-12)
    assert jp[1] == 0.0


def test_g1_state_one_cost_is_jp2_at_belief_one_where_a_row_with_a_unit_coefficient_is_broken():
    table = SECOND_NEAR_FEASIBLE_TABLE
    _, jp, _ = value_curves(table, 2)
    assert solve_g1(table, 0.5).per_state[0].principal_cost == pytest.approx(jp[1], abs=1e-12)
    assert jp[1] == 0.0


@pytest.mark.xfail(strict=True, reason="Polytope.contains accepts a best-response row broken by up to FEAS_TOL")
@pytest.mark.parametrize("table", [NEAR_FEASIBLE_TABLE, SECOND_NEAR_FEASIBLE_TABLE])
def test_the_enumerator_keeps_no_scheme_that_breaks_a_best_response_row(table):
    # In pairs (1, j) action 1 must be a best response in state one, which
    # forces gamma[0][1] = 0; the oracle's enumerator keeps gamma[0][1] = 1.
    groups = collect_xi(table).groups
    assert not any(gamma[0, 1] == 1.0 for (i, _), mats in groups.items() if i == 1 for gamma in mats)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_tables())
@example(load_scenario("scenarioA").table)
@example(load_scenario("scenarioB").table)
@example(NEAR_FEASIBLE_TABLE)
@example(SECOND_NEAR_FEASIBLE_TABLE)
def test_g1_per_state_costs_are_g2_at_beliefs_one_and_zero(table):
    # cli._full_information_line reads g1's per-state costs as the g2 values
    # at beliefs 1 and 0. At belief 1 only state one's cost counts, and every
    # scheme has some best response in state two, so the pair polytopes
    # (i, j) over all j make up g1's state-one polytope of response i.
    g1 = solve_g1(table, 0.5)
    xs, jp, _ = value_curves(table, 2)
    assert g1.per_state[0].principal_cost == pytest.approx(jp[1], abs=1e-12)
    assert g1.per_state[1].principal_cost == pytest.approx(jp[0], abs=1e-12)


# A 2x2 table with cp0[0][1] = -1, ca0 = [[0, float32(1e-10)], [0, -1]] and
# every other entry 0. In state one, response 1 costs the agent 1e-10 *
# gamma[0][1] - gamma[1][1] against 0 for response 0, so the principal can
# put at most 1 / (1 + 1e-10) on row 0 of column 1 and jp2(1) =
# -1 / (1 + float32(1e-10)) = -0.9999999999, which the walk and the
# enumeration oracle give. solve_g1's simplex accepts the row broken by
# 1e-10 and reports -1.0. Which examples the derandomized identity test
# above draws depends on the float literals in src/, so this pins the
# defect whatever they are.
G1_BROKEN_ROW_TABLE = CostTable(
    cp=([[0, -1], [0, 0]], [[0, 0], [0, 0]]),
    ca=([[0, np.float32(1e-10)], [0, -1]], [[0, 0], [0, 0]]),
)


@pytest.mark.xfail(strict=True, reason="solve_g1 accepts a best-response row broken by 1e-10 (ROADMAP item 1)")
def test_g1_state_one_cost_is_jp2_at_belief_one_where_a_row_is_broken_by_1e10():
    _, jp, _ = value_curves(G1_BROKEN_ROW_TABLE, 2)
    assert jp[1] == -1.0 / (1.0 + float(np.float32(1e-10)))
    assert solve_g1(G1_BROKEN_ROW_TABLE, 0.5).per_state[0].principal_cost == pytest.approx(jp[1], abs=1e-12)


# ---------------------------------------------------------------------------
# g2 from the vertex profiles, against fresh LPs
# ---------------------------------------------------------------------------


def _fresh_optimum(region: Polytope, c: np.ndarray):
    """Phase two of `c` from a fresh phase one of `region`: the optimal
    tableau, or None when the region is empty or `c` unbounded on it."""
    start = phase_one(region)
    return None if start is None else phase_two(c, start)


def _first_optimal_point(lps: list[tuple[Polytope, np.ndarray]]) -> tuple[int, np.ndarray]:
    """The principal's tie rule over fresh two-phase solves of (region,
    objective) LPs: the first LP whose value is within the tie tolerance of
    the least, and its lex-min point from a second, fresh solve."""
    optima = [_fresh_optimum(region, c) for region, c in lps]
    values = np.array([np.inf if t is None else float(c @ t.solution(region.dim))
                       for (region, c), t in zip(lps, optima)])
    best = int(np.argmax(values <= values.min() + matrix_games._OPTIMAL_TOL))
    region, c = lps[best]
    return best, lexicographic_descent(c, _fresh_optimum(region, c))


def _bits(actions, gamma, per_state, jp, ja) -> tuple:
    return (tuple(actions), gamma.tobytes(), float(jp).hex(), float(ja).hex(),
            tuple((a, float(pc).hex(), float(ac).hex()) for a, pc, ac in per_state))


def _report_bits(r) -> tuple:
    per_state = [(o.agent_action, o.principal_cost, o.agent_cost) for o in r.per_state]
    return _bits(r.agent_actions, r.scheme.columns, per_state, r.principal_cost, r.agent_cost)


def _pair_objective(table: CostTable, i: int, j: int, mu: float) -> np.ndarray:
    m = table.m
    c = np.zeros(m * table.n)
    c[i * m : (i + 1) * m] += mu * table.cp[0][:, i]
    c[j * m : (j + 1) * m] += (1.0 - mu) * table.cp[1][:, j]
    return c


def _g2_from_fresh_lps(table: CostTable, mu: float) -> tuple:
    """g2 with no cache: one LP per response pair, built and solved from
    scratch at this belief. Returns the winning pair, its lex-min scheme,
    and its principal and agent costs."""
    m, n = table.m, table.n
    pairs = [(i, j) for i in range(n) for j in range(n)]
    lps = [(_pair_polytope(table, i, j), _pair_objective(table, i, j, mu)) for i, j in pairs]
    best, x = _first_optimal_point(lps)
    (i, j), gamma = pairs[best], _to_matrix(x, m, n)
    jp = mu * (gamma[:, i] @ table.cp[0][:, i]) + (1.0 - mu) * (gamma[:, j] @ table.cp[1][:, j])
    ja = mu * (gamma[:, i] @ table.ca[0][:, i]) + (1.0 - mu) * (gamma[:, j] @ table.ca[1][:, j])
    return (i, j), gamma, float(jp), float(ja)


def _g1_from_fresh_lps(table: CostTable, mu: float) -> tuple:
    """solve_g1 built on fresh two-phase solves alone: per state, one LP per
    agent response, its lex-min from a second fresh solve."""
    m, n = table.m, table.n
    eq = np.kron(np.eye(n), np.ones(m))
    schemes, per_state = [], []
    for k in range(2):
        lps = []
        for j in range(n):
            rows = matrix_games._best_response_rows(table, k, j)
            c = np.zeros(m * n)
            c[j * m : (j + 1) * m] = table.cp[k][:, j]
            lps.append((Polytope(m * n, rows, np.zeros(rows.shape[0]), eq, np.ones(n)), c))
        j, x = _first_optimal_point(lps)
        gamma = _to_matrix(x, m, n)
        schemes.append(gamma)
        per_state.append((j, float(gamma[:, j] @ table.cp[k][:, j]), float(gamma[:, j] @ table.ca[k][:, j])))
    jp = sum(w * pc for w, (_, pc, _) in zip((mu, 1.0 - mu), per_state))
    ja = sum(w * ac for w, (_, _, ac) in zip((mu, 1.0 - mu), per_state))
    actions = (per_state[0][0], per_state[1][0])
    return _bits(actions, IncentiveScheme(np.stack(schemes)).columns, per_state, jp, ja)


def _dominant_column_table() -> CostTable:
    """The agent's second action is strictly dominant in both states, so
    three of the four pair polytopes are empty."""
    return CostTable(
        cp=([[1.0, 2.0], [3.0, 1.0]], [[2.0, 1.0], [1.0, 3.0]]),
        ca=([[5.0, 1.0], [5.0, 1.0]], [[4.0, 0.0], [4.0, 0.0]]),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_tables(), _priors)
@example(_dominant_column_table(), 0.5)
@example(load_scenario("scenarioA").table, 0.37)
@example(load_scenario("scenarioB").table, 0.123456789)
def test_g2_is_the_value_curves_choice_bit_for_bit(table, mu):
    # solve_g2 is one evaluation of the cached profiles by value_curves'
    # rule: its costs are the curves' values, and its scheme and per-state
    # costs are the chosen pair's vertex
    profiles = _pair_profiles(table)
    beliefs = np.array([0.0, mu, 1.0])
    jp2, ja2, chosen, vertex = matrix_games._curves_from_profiles(profiles, beliefs)
    for t, belief in enumerate(beliefs):
        prof, v = profiles[chosen[t]], vertex[t]
        per_state = [(rec, prof.principal[v, k], prof.agent[v, k]) for k, rec in enumerate(prof.group)]
        want = _bits(prof.group, prof.schemes[v], per_state, jp2[t], ja2[t])
        assert _report_bits(solve_g2(table, belief)) == want
    xs, jp, ja = value_curves(table, 11)
    got = [solve_g2(table, belief) for belief in xs]
    assert [(r.principal_cost, r.agent_cost) for r in got] == list(zip(jp.tolist(), ja.tolist()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_tables(), _priors)
@example(_dominant_column_table(), 0.5)
@example(load_scenario("scenarioA").table, 0.37)
@example(load_scenario("scenarioB").table, 0.123456789)
def test_g2_equals_fresh_lps(table, mu):
    # The profiles' vertices come from parametric walks, a fresh solve's
    # from phase two and the lex-min, so the two agree up to round-off:
    # the same pair, the same scheme, the same costs, empty pairs included.
    for belief in (0.0, mu, 1.0):
        r = solve_g2(table, belief)
        pair, gamma, jp, ja = _g2_from_fresh_lps(table, belief)
        assert r.agent_actions == pair
        assert np.max(np.abs(r.scheme.columns - gamma)) <= 1e-9
        assert r.principal_cost == pytest.approx(jp, abs=1e-12)
        assert r.agent_cost == pytest.approx(ja, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_tables(), _priors)
@example(load_scenario("scenarioA").table, 0.4)
@example(load_scenario("scenarioB").table, 0.6)
def test_g1_equals_fresh_lps_bit_for_bit(table, mu):
    # solve_g1 continues each state's lex-min on the winning phase-two
    # tableau instead of solving that LP again
    assert _report_bits(solve_g1(table, mu)) == _g1_from_fresh_lps(table, mu)


def _rng_three_by_three() -> CostTable:
    rng = np.random.default_rng(3)
    mats = [rng.integers(0, 6, (3, 3)).astype(float) for _ in range(4)]
    return CostTable(cp=(mats[0], mats[1]), ca=(mats[2], mats[3]))


def test_phase_one_runs_once_per_walked_pair_and_never_for_a_pruned_pair(monkeypatch):
    polytopes, starts, walked = [], [], []

    def pair_polytope(table, i, j):
        polytopes.append((i, j))
        return _pair_polytope(table, i, j)

    def phase_one(region):
        starts.append(lp_kernel.phase_one(region))
        return starts[-1]

    def walk(start, levels):
        walked.append(start)
        return lp_kernel.parametric_walk(start, levels)

    monkeypatch.setattr(matrix_games, "_pair_polytope", pair_polytope)
    monkeypatch.setattr(matrix_games, "phase_one", phase_one)
    monkeypatch.setattr(matrix_games, "parametric_walk", walk)
    scenarios = [load_scenario(name).table for name in ("scenarioA", "scenarioB")]
    tables = [_dominant_column_table(), _rng_three_by_three(), _large_table((4, 4)),
              *(CostTable(cp=t.cp, ca=t.ca) for t in scenarios)]
    ran = []
    for table in tables:
        polytopes.clear(), starts.clear(), walked.clear()
        profiles = _pair_profiles(table)
        assert len(polytopes) == len(set(polytopes)) == len(starts)     # once per pair
        nonempty = [s for s in starts if s is not None]
        assert len(nonempty) == len(walked) and all(s is w for s, w in zip(nonempty, walked))   # each walked once
        # a pair with no phase one lies above the profiles' envelope by the margin
        n, lines = table.n, np.vstack([p.principal for p in profiles])
        margin = 10 * matrix_games.BEST_RESPONSE_TOL * (1.0 + np.abs(table.cp).max())
        for i, j in {(i, j) for i in range(n) for j in range(n)} - set(polytopes):
            bound = np.array([[table.cp[0][:, i].min(), table.cp[1][:, j].min()]])
            assert matrix_games._dominated(bound, lines, margin)[0]
        ran.append(len(starts))
    assert ran == [4, 7, 10, 3, 3]          # of 4, 9, 16, 4 and 4 pairs


def test_g2_solves_no_lp_beyond_the_profiles(monkeypatch):
    # Every pivot goes through lp_kernel._pivot. A cold solve_g2 builds the
    # profiles, with no phase two; a warm one takes no pivot at all.
    counts = Counter()

    def spy(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)
        return counted

    for name in ("phase_one", "phase_two", "_pivot"):
        real = getattr(lp_kernel, name)
        monkeypatch.setattr(lp_kernel, name, spy(name, real))
        if hasattr(matrix_games, name):
            monkeypatch.setattr(matrix_games, name, spy(name, real))
    table = _rng_three_by_three()
    _pair_profiles(table)
    built = dict(counts)
    assert "phase_two" not in built
    fresh = CostTable(cp=table.cp, ca=table.ca)
    counts.clear()
    solve_g2(fresh, 0.4)
    assert counts == built
    counts.clear()
    for mu in (0.0, 0.3, 0.4, 1.0):
        solve_g2(fresh, mu)
    assert counts == {}


# A 2x3 table with entries at float32 scale. HiGHS (scipy's linprog over all
# nine pair LPs) and oracle_g2_by_enumeration both give the g2 value
# -3.626541235646406 at belief 0.7000000000000001. Phase one of pair (0, 0)
# pivots on a 3.7e-9 element, just above the simplex's absolute 1e-9 pivot
# tolerance, and its tableau is not feasible after that: its basic point
# misses a column sum by 6.0e-8. Phase two from it reported as optimal a
# point that breaks a row by 0.578, so solve_g2 read -2.975 while it solved
# a fresh LP per pair. The parametric walk of pair (0, 0) starts from the
# same tableau and its vertex is infeasible too, but that pair does not win
# at this belief, so the value curves, and solve_g2 that reads them, give
# the right value.
TINY_PIVOT_TABLE = CostTable(
    cp=(
        [[-4.4372687339782715, -3.9484379291534424, 2.9042818546295166],
         [-4.207416534423828, 0.0, -2.8922951221466064]],
        [[0.0, 4.0, 0.8374664783477783], [0.0, -2.152698516845703, -0.0]],
    ),
    ca=(
        [[3.3953866958618164, -0.0, -1.2279051542282104], [-0.0, 0.75, 1.412663459777832]],
        [[0.0, 2.8798210620880127, -4.737743377685547],
         [1.1920928955078125e-07, -3.261648178100586, 4.0158915519714355]],
    ),
)
TINY_PIVOT_G2 = -3.626541235646406


def test_the_value_curves_where_a_tiny_pivot_breaks_a_row():
    xs, jp, _ = value_curves(TINY_PIVOT_TABLE, 11)
    assert xs[7] == 0.7000000000000001
    assert jp[7] == pytest.approx(TINY_PIVOT_G2, abs=1e-9)


def test_g2_where_a_tiny_pivot_breaks_a_row():
    assert solve_g2(TINY_PIVOT_TABLE, 0.7000000000000001).principal_cost == pytest.approx(TINY_PIVOT_G2, abs=1e-9)


@pytest.mark.xfail(strict=True, reason="the simplex accepts a 3.7e-9 pivot and loses feasibility (ROADMAP item 1)")
def test_phase_one_where_a_tiny_pivot_breaks_a_row_meets_the_column_sums():
    region = _pair_polytope(TINY_PIVOT_TABLE, 0, 0)
    x = lp_kernel.phase_one(region).solution(region.dim)
    assert np.max(np.abs(region.equality_matrix @ x - region.equality_rhs)) <= 1e-9


# ---------------------------------------------------------------------------
# vertex profiles: one parametric walk per pair
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_tables())
@example(_dominant_column_table())
@example(NEAR_FEASIBLE_TABLE)
@example(SECOND_NEAR_FEASIBLE_TABLE)
@example(load_scenario("scenarioA").table)
@example(load_scenario("scenarioB").table)
def test_value_curves_equal_the_enumeration_oracle(table):
    # the walk visits only principal-optimal vertices; the oracle evaluates
    # every vertex of every pair polytope
    xs, jp, _ = value_curves(table, 11)
    vertices = oracle._oracle_vertices(table)      # oracle_g2_by_enumeration, enumerated once
    assert jp == pytest.approx([oracle._g2_by_evaluation(table, vertices, mu) for mu in xs], abs=1e-9)
    assert jp[5] == pytest.approx(oracle_g2_by_enumeration(table, xs[5]), abs=1e-9)


def _large_table(shape) -> CostTable:
    rng = np.random.default_rng(5)
    mats = [rng.uniform(0.0, 5.0, shape) for _ in range(4)]
    return CostTable(cp=(mats[0], mats[1]), ca=(mats[2], mats[3]))


@pytest.mark.parametrize("shape", [(4, 4), (3, 5)])
def test_a_table_too_large_to_enumerate_solves_g3(shape):
    table = _large_table(shape)
    r = solve_g3(table, 0.5)
    assert r.split.is_plausible(0.5, tol=1e-9)
    assert r.agent_cost <= solve_g2(table, 0.5).agent_cost + 1e-9


def _first_level_points(walk) -> list[np.ndarray]:
    """The first level's optimum at every stop of a walk: its fork where it
    forked, else its own point."""
    forked = {(lo, hi): x for lo, hi, x in walk.forks}
    stops = [*((mu, mu) for mu in walk.beliefs), *zip(walk.beliefs, walk.beliefs[1:])]
    return [forked.get(stop, x) for stop, x in zip(stops, [*walk.at, *walk.between])]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_tables())
@example(TINY_PIVOT_TABLE)
@example(NEAR_FEASIBLE_TABLE)
@example(SECOND_NEAR_FEASIBLE_TABLE)
@example(G1_BROKEN_ROW_TABLE)
@example(_large_table((4, 4)))
@example(_large_table((3, 5)))
def test_forks_give_the_vertices_of_a_principal_only_walk(table):
    # One walk's first-level optima, its forks where it forked and its own
    # points elsewhere, are the points of a second walk of the principal's
    # level alone: the second walk stops only where the first does.
    n = table.n
    for i, j in [(i, j) for i in range(n) for j in range(n)]:
        start = lp_kernel.phase_one(_pair_polytope(table, i, j))
        if start is None:
            continue
        levels = tuple((matrix_games._state_cost(c, 0, i), matrix_games._state_cost(c, 1, j))
                       for c in (table.cp, table.ca))
        walk, principal_only = (lp_kernel.parametric_walk(start, walked) for walked in (levels, levels[:1]))
        assert (walk is None) == (principal_only is None)
        if walk is not None:
            forked = {_scheme_key(x) for x in _first_level_points(walk)}
            assert forked == {_scheme_key(x) for x in (*principal_only.at, *principal_only.between)}


def _every_pair_profiles(table: CostTable) -> tuple:
    """Profiles with no pair pruned: one walk of every nonempty pair, its
    points and its forks', a pair dropped when its walk fails."""
    n = table.n
    state_cost, profiles = matrix_games._state_cost, []
    for i, j in [(i, j) for i in range(n) for j in range(n)]:
        start = lp_kernel.phase_one(_pair_polytope(table, i, j))
        levels = tuple((state_cost(c, 0, i), state_cost(c, 1, j)) for c in (table.cp, table.ca))
        walk = None if start is None else matrix_games.parametric_walk(start, levels)
        prof = None if walk is None else matrix_games._profile(
            table, (i, j), [*walk.at, *walk.between, *(x for _, _, x in walk.forks)])
        if prof is not None:
            profiles.append(prof)
    return tuple(profiles)


def _g3_bits(r) -> tuple:
    recs = [(e.group, e.scheme.tobytes(), e.prob_given_state, e.posterior) for e in r.recommendation_distribution]
    return float(r.principal_cost).hex(), float(r.agent_cost).hex(), r.split.atoms, recs


def _profile_bits(prof) -> tuple:
    return prof.group, *((a.shape, a.tobytes()) for a in (prof.schemes, prof.principal, prof.agent))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_tables())
@example(TINY_PIVOT_TABLE)
@example(NEAR_FEASIBLE_TABLE)
@example(SECOND_NEAR_FEASIBLE_TABLE)
@example(G1_BROKEN_ROW_TABLE)
@example(_large_table((4, 4)))
@example(_large_table((3, 5)))
def test_pruned_pairs_change_no_profile_curve_or_g3_bit_for_bit(table):
    # _pair_profiles walks only the pairs that can come within the margin of
    # jp2; every pair it keeps must be what walking every pair gives, and
    # the pairs it skips must change no value and no choice
    every = _every_pair_profiles(table)
    kept = _pair_profiles(table)
    assert [_profile_bits(p) for p in kept] == [_profile_bits(p) for p in every if p.group in {q.group for q in kept}]
    beliefs = np.linspace(0.0, 1.0, 2001)
    got, want = matrix_games._curves_from_profiles(kept, beliefs), matrix_games._curves_from_profiles(every, beliefs)
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
    assert [kept[c].group for c in got[2]] == [every[c].group for c in want[2]]
    assert got[3].tobytes() == want[3].tobytes()        # the same vertex of the same profile
    priors = (0.13, 0.37, 0.5, 0.81)
    pruned = [_g3_bits(solve_g3(table, mu)) for mu in priors]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix_games, "_pair_profiles", lambda _: every)
        assert pruned == [_g3_bits(solve_g3(table, mu)) for mu in priors]


def test_a_failed_fork_drops_its_pair_and_prunes_nothing(monkeypatch):
    # Pair (1, 0) of scenarioA forks: the agent breaks a principal tie.
    # Should its fork fail on round-off, its walk fails, so the pair gets no
    # profile and adds no line to the envelope: every pair left out lies
    # above the kept pairs' own envelope by the margin, and the curves are
    # the ones that walking every other pair gives.
    scenario = load_scenario("scenarioA").table
    assert [p.group for p in _pair_profiles(CostTable(cp=scenario.cp, ca=scenario.ca))] == [(0, 1), (1, 0), (1, 1)]
    failing = [matrix_games._state_cost(scenario.cp, k, r).tobytes() for k, r in enumerate((1, 0))]
    real = matrix_games.parametric_walk
    forked = []

    def walk(start, levels):
        result = real(start, levels)
        if [c.tobytes() for c in levels[0]] != failing:
            return result
        forked.append(bool(result.forks))
        return None

    monkeypatch.setattr(matrix_games, "parametric_walk", walk)
    table = CostTable(cp=scenario.cp, ca=scenario.ca)
    kept, every = _pair_profiles(table), _every_pair_profiles(table)
    assert forked == [True, True]
    assert [p.group for p in every] == [(0, 0), (0, 1), (1, 1)]
    groups = {p.group for p in kept}
    assert [_profile_bits(p) for p in kept] == [_profile_bits(p) for p in every if p.group in groups]
    lines = np.vstack([p.principal for p in kept])
    margin = 10 * matrix_games.BEST_RESPONSE_TOL * (1.0 + np.abs(table.cp).max())
    assert all(matrix_games._dominated(p.principal, lines, margin).all() for p in every if p.group not in groups)
    beliefs = np.linspace(0.0, 1.0, 2001)
    got, want = matrix_games._curves_from_profiles(kept, beliefs), matrix_games._curves_from_profiles(every, beliefs)
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]


def test_dominated_needs_a_kept_line():
    assert not matrix_games._dominated(np.array([[1.0, 2.0]]), np.empty((0, 2)), 1e-7).any()


def test_dominated_spares_a_line_within_the_margin_at_one_end():
    kept = np.array([[0.0, 0.0]])
    margin = 1e-7
    # above by 1 at belief 1 but only by margin / 2 at belief 0
    assert not matrix_games._dominated(np.array([[1.0, 0.5 * margin]]), kept, margin)[0]
    assert matrix_games._dominated(np.array([[1.0, 2.0 * margin]]), kept, margin)[0]


def test_dominated_over_two_crossing_kept_lines():
    # the kept lines 1 - mu and mu cross at 1/2; the line 0.6 lies above
    # their envelope everywhere, above 1 - mu only past 0.4 and above mu
    # only before 0.6
    kept = np.array([[0.0, 1.0], [1.0, 0.0]])
    line = np.array([[0.6, 0.6]])
    assert matrix_games._dominated(line, kept, 1e-7)[0]
    assert not matrix_games._dominated(line, kept[:1], 1e-7)[0]
    assert not matrix_games._dominated(line, kept[1:], 1e-7)[0]
    # 0.75 lies above the envelope by more than 0.25 except at 1/2, where
    # both kept lines meet it exactly
    assert not matrix_games._dominated(np.array([[0.75, 0.75]]), kept, 0.25)[0]


def test_unique_rows_is_numpys_unique_with_first_indices():
    # the profiles' dedupe read np.unique(..., axis=0, return_index=True)
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = rng.integers(-2, 3, (rng.integers(1, 16), rng.integers(1, 5))) / 3.0
        rows[rows == 0.0] *= rng.choice([-1.0, 1.0])       # -0.0 and 0.0 are one value
        assert np.array_equal(matrix_games._unique_rows(rows), np.unique(rows, axis=0, return_index=True)[1])


def test_pair_profiles_walk_only_the_pairs_that_can_be_principal_optimal(monkeypatch):
    # Cold _pair_profiles, counted in parametric_walk calls, one per walked
    # pair; walking every nonempty pair would take 13, 8, 4 and 3
    counts = []

    def counted(start, levels):
        counts[-1] += 1
        return real(start, levels)

    real = matrix_games.parametric_walk
    monkeypatch.setattr(matrix_games, "parametric_walk", counted)
    scenarios = [load_scenario(name).table for name in ("scenarioA", "scenarioB")]
    tables = [_large_table((4, 4)), _rng_three_by_three(), *(CostTable(cp=t.cp, ca=t.ca) for t in scenarios)]
    for table in tables:
        counts.append(0)
        _pair_profiles(table)
    assert counts == [8, 6, 3, 2]


@pytest.mark.parametrize("shape, bases", [((4, 4), 646646), ((3, 5), 1144066)])
def test_collect_xi_refuses_a_table_too_large_to_enumerate(shape, bases, monkeypatch):
    # the oracle's enumerator checks its capacity before any LP or basis
    table = _large_table(shape)
    calls = []

    def refused(name):
        def record(*args):
            calls.append(name)
            raise AssertionError(f"{name} ran")
        return record

    monkeypatch.setattr(oracle, "phase_one", refused("phase_one"))
    monkeypatch.setattr(oracle, "_candidate_index", refused("_candidate_index"))
    with pytest.raises(SolverError, match=f"would examine {bases} bases"):
        collect_xi(table)
    assert calls == []


def test_principal_curve_midpoint_concavity(table_a, table_b):
    for table in (table_a, table_b):
        _, vals = value_curves(table, 401)[:2]
        interior = vals[1:-1]
        assert np.all(interior >= 0.5 * (vals[:-2] + vals[2:]) - 1e-8)


def test_curve_rejects_tiny_grid(table_a):
    with pytest.raises(ValueError):
        value_curves(table_a, 1)


# ---------------------------------------------------------------------------
# candidate-scheme collection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", [oracle._BASES_PER_BLOCK, 64])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_tables())
@example(_dominant_column_table())
@example(TINY_PIVOT_TABLE)
@example(NEAR_FEASIBLE_TABLE)
@example(load_scenario("scenarioB").table)
def test_collect_xi_equals_per_pair_enumeration_bit_for_bit(block, table):
    # collect_xi and verify's _oracle_vertices enumerate the nonempty pairs
    # in one batched call (with block 64, 16 systems per batch, so every
    # batch boundary of a 3x3 table falls inside a pair); each pair's
    # vertices, and the schemes built from them, must be what its own
    # enumerate_vertices call gives.
    m, n = table.m, table.n
    pairs = [(i, j) for i in range(n) for j in range(n)]
    polytopes = [_pair_polytope(table, i, j) for i, j in pairs]
    singly = [enumerate_vertices(p) for p in polytopes]
    nonempty = [lp_kernel.phase_one(p) is not None for p in polytopes]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BASES_PER_BLOCK", block)
        batched = enumerate_bounded_vertices([p for p, ok in zip(polytopes, nonempty) if ok])
        groups = collect_xi(table).groups
        flat = oracle._oracle_vertices(table)
    assert all(not verts for verts, ok in zip(singly, nonempty) if not ok)
    assert len(batched) == sum(nonempty)
    for got, want in zip(batched, [verts for verts, ok in zip(singly, nonempty) if ok]):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    for pair, verts in zip(pairs, singly):
        want = sorted((_to_matrix(v, m, n) for v in verts), key=_scheme_key)
        assert [g.tobytes() for g in groups[pair]] == [g.tobytes() for g in want]
    # verify's flat list: pair order, then basis order, each vertex raw
    want = [(i, j, v.reshape(n, m).T) for (i, j), verts in zip(pairs, singly) for v in verts]
    assert [(i, j, g.tobytes()) for i, j, g in flat] == [(i, j, g.tobytes()) for i, j, g in want]


def _all_indifferent_two_by_six() -> CostTable:
    # The agent is indifferent everywhere: every best-response row is 0 <= 0,
    # so each of the 36 pair polytopes is the product of six 2-point
    # simplices, 64 vertices among C(22, 6) = 74,613 candidate bases.
    cp = np.arange(12.0).reshape(2, 6)
    return CostTable(cp=(cp, cp), ca=(np.zeros((2, 6)), np.zeros((2, 6))))


def _three_by_three() -> CostTable:
    # an integer table whose nine pair polytopes are all nonempty: 340
    # vertices among 9 * 1,716 candidate bases
    rng = np.random.default_rng(1)
    mats = [rng.integers(0, 6, (3, 3)).astype(float) for _ in range(4)]
    return CostTable(cp=(mats[0], mats[1]), ca=(mats[2], mats[3]))


@pytest.mark.parametrize("make, limit_mb", [(_three_by_three, 6), (_all_indifferent_two_by_six, 10)])
def test_collect_xi_memory_is_bounded_by_the_batch(make, limit_mb):
    # One batch holds a quarter of _BASES_PER_BLOCK systems whatever the
    # table: the peak is about 2.6 MB for the 3x3 table (3.7 MB on the first
    # call in a process) and 5.3 MB for the 2x6 one. All of the 3x3 table's
    # systems in one batch would peak at 13.9 MB, and the 2x6 table's 1.7
    # million 12x12 systems at gigabytes.
    table = make()
    tracemalloc.start()
    try:
        groups = collect_xi(table).groups
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20
    if make is _all_indifferent_two_by_six:
        assert [len(mats) for mats in groups.values()] == [64] * 36
    else:
        assert sum(len(mats) for mats in groups.values()) == 340


def test_collect_xi_groups_on_a(table_a):
    xi = collect_xi(table_a)
    sizes = {g: len(mats) for g, mats in xi.groups.items()}
    assert sizes == {(0, 0): 1, (0, 1): 4, (1, 0): 3, (1, 1): 3}
    listed = [
        np.array([[0.0, 0.0], [1.0, 1.0]]),   # columns (0,1), (0,1)
        np.array([[0.0, 1.0], [1.0, 0.0]]),   # columns (0,1), (1,0)
        np.array([[0.5, 1.0], [0.5, 0.0]]),   # columns (0.5,0.5), (1,0)
    ]
    for want in listed:
        assert any(np.allclose(mat, want, atol=1e-9) for mat in xi.groups[(0, 1)])


def test_collect_xi_dominant_column_empties_other_groups():
    # second agent action strictly dominant in both states, whatever the scheme
    table = CostTable(
        cp=([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]),
        ca=([[5.0, 1.0], [5.0, 1.0]], [[4.0, 0.0], [4.0, 0.0]]),
    )
    xi = collect_xi(table)
    assert xi.groups[(1, 1)]
    assert not xi.groups[(0, 0)]
    assert not xi.groups[(0, 1)]
    assert not xi.groups[(1, 0)]


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.one_of(_tables(2), _tables(3)))
def test_collect_xi_matches_direct_enumeration(table):
    # reference: enumerate every pair polytope afresh. Distinct vertices may
    # share a _scheme_key (it rounds to 9 decimals); their relative order is
    # not specified, so compare the key sequence and the exact vertex sets.
    xi = collect_xi(table)
    assert list(xi.groups) == [(i, j) for i in range(table.n) for j in range(table.n)]
    for (i, j), mats in xi.groups.items():
        verts = enumerate_vertices(_pair_polytope(table, i, j))
        want = sorted((_to_matrix(v, table.m, table.n) for v in verts), key=_scheme_key)
        assert [_scheme_key(g) for g in mats] == [_scheme_key(g) for g in want]
        assert sorted(g.tobytes() for g in mats) == sorted(g.tobytes() for g in want)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_tables(2))
def test_collect_xi_vertices_satisfy_their_constraints(table):
    xi = collect_xi(table)
    for (i, j), mats in xi.groups.items():
        for gamma in mats:
            for state, rec in ((0, i), (1, j)):
                cost_rec = gamma[:, rec] @ table.ca[state][:, rec]
                for l in range(table.n):
                    assert cost_rec <= gamma[:, l] @ table.ca[state][:, l] + 1e-7
            assert gamma.sum(axis=0) == pytest.approx([1.0, 1.0], abs=1e-9)


# ---------------------------------------------------------------------------
# g3: persuasion
# ---------------------------------------------------------------------------


def test_g3_a_reveals_nothing(table_a):
    r = solve_g3(table_a, 0.4)
    assert not r.revealing
    assert r.split.atoms == ((0.4, 1.0),)
    assert r.agent_cost == pytest.approx(2.6, abs=1e-8)
    assert r.principal_cost == pytest.approx(2.6, abs=1e-8)
    assert len(r.recommendation_distribution) == 1


def test_g3_a_sweep_piecewise(table_a):
    for mu in np.linspace(0.05, 0.95, 19):
        want = 3.0 - mu if mu <= 0.5 else 2.0 + mu
        assert solve_g3(table_a, mu).agent_cost == pytest.approx(want, abs=1e-8)


def test_g3_b_full_revelation(table_b):
    r = solve_g3(table_b, 0.75)
    assert r.revealing
    assert r.agent_cost == pytest.approx(1.75, abs=1e-8)
    assert r.principal_cost == pytest.approx(1.0, abs=1e-8)
    atoms = r.split.atoms
    assert len(atoms) == 2
    assert atoms[0][0] == pytest.approx(0.0, abs=1e-8)
    assert atoms[0][1] == pytest.approx(0.25, abs=1e-8)
    assert atoms[1][0] == pytest.approx(1.0, abs=1e-8)
    assert atoms[1][1] == pytest.approx(0.75, abs=1e-8)
    assert r.split.is_plausible(0.75, tol=1e-9)


def test_g3_b_low_prior_value_equals_g2(table_b):
    r = solve_g3(table_b, 0.3)
    assert r.agent_cost == pytest.approx(solve_g2(table_b, 0.3).agent_cost, abs=1e-8)


def test_g3_degenerate_prior_short_circuits(table_b):
    r = solve_g3(table_b, 1.0)
    g2 = solve_g2(table_b, 1.0)
    assert not r.revealing
    assert r.agent_cost == pytest.approx(g2.agent_cost, abs=1e-12)
    assert r.principal_cost == pytest.approx(g2.principal_cost, abs=1e-12)


def test_g3_value_is_envelope_of_agent_curve(table_a, table_b):
    for table in (table_a, table_b):
        xs, ja = agent_value_curve(table, 2001)
        lipschitz = np.max(np.abs(np.diff(ja))) * 2000
        tol = 2.0 * lipschitz / 2000
        for mu in (0.15, 0.3, 0.5, 0.75, 0.9):
            want, _ = envelope_from_samples(xs, ja, mu)
            assert solve_g3(table, mu).agent_cost == pytest.approx(want, abs=tol)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_tables(2), _interior)
def test_g3_properties_random(table, prior):
    g2 = solve_g2(table, prior)
    r = solve_g3(table, prior)
    assert r.agent_cost <= g2.agent_cost + 1e-8          # persuasion helps the sender
    assert r.principal_cost <= g2.principal_cost + 1e-8  # and cannot hurt the receiver
    assert r.split.is_plausible(prior, tol=1e-7)
    total = sum(w for _, w in r.split.atoms)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_g3_at_an_interior_prior_solves_no_lp(table_b, monkeypatch):
    # Every pivot of every routine, phase one, phase two, the lex-min and the
    # parametric walks, goes through lp_kernel._pivot, so counting its calls
    # counts all LP work.
    _pair_profiles(table_b)
    calls = []
    real = lp_kernel._pivot

    def counted(tableau, row, col):
        calls.append(tableau.shape)
        return real(tableau, row, col)

    monkeypatch.setattr(lp_kernel, "_pivot", counted)
    for prior in (0.3, 0.75, 0.123456789):
        solve_g3(table_b, prior)
    assert calls == []
    solve_g3(CostTable(cp=table_b.cp, ca=table_b.ca), 0.3)     # a new object: walks, counted
    assert calls


# A real-valued 4x2 table on which phase one of g3's former stage-2 obedience
# LP took ratios from rows whose rhs had drifted below zero, lost feasibility
# and ran for more than 60,000 pivots without finishing.
DRIFTING_TABLE = CostTable(
    cp=(
        [[0.6201241443999006, 4.715110558328109], [3.611635045302301, 1.5230916091164626],
         [0.5611386911264649, 2.2435713704130507], [0.7291625707233412, 4.374484844333637]],
        [[1.4705614832815832, 3.911847545706495], [2.9893382976932252, 4.274965606046025],
         [2.6441503238645008, 0.4912024427507383], [1.346223297640658, 1.9255881538113617]],
    ),
    ca=(
        [[0.9292197582920753, 3.042136491106293], [4.48159425416023, 1.9293698437412132],
         [1.9241453779122826, 0.8467852962023231], [3.5615816176392268, 0.7299787896578114]],
        [[0.4723884519261934, 4.303112048733283], [1.6404617758998237, 2.7468508953718778],
         [0.4005539087496851, 3.3890548153133304], [4.927172932614841, 0.08359857867067944]],
    ),
)


def test_g3_solves_where_phase_one_drifted(monkeypatch):
    # the default pivot cap would stop a run like the old one after ~5,000
    # pivots; with a cap of 2 per tableau line, the simplex runs that remain
    # (the parametric walks and forks behind solve_g3 and solve_g2) still finish
    monkeypatch.setattr(lp_kernel, "_PIVOTS_PER_LINE", 2)
    prior = 0.629498698921407
    r = solve_g3(DRIFTING_TABLE, prior)
    g2 = solve_g2(DRIFTING_TABLE, prior)
    assert r.split.is_plausible(prior, tol=1e-9)
    assert r.agent_cost <= g2.agent_cost + 1e-9
    xs, ja = agent_value_curve(DRIFTING_TABLE, 2001)
    envelope, _ = envelope_from_samples(xs, ja, prior)
    assert r.agent_cost == pytest.approx(envelope, abs=1e-9)


# The 4x2 table of the benchmark's persuasion-fresh workload, seed 6, round 8,
# labelled as that seed labels it. Its obedience LP pivoted on a 2.9e-9
# element, and g3 failed with "persuasion tie-break LP did not solve".
SEED6_TABLE = CostTable(
    cp=(
        [[1.4705614832815832, 3.911847545706495], [2.6441503238645008, 0.4912024427507383],
         [1.346223297640658, 1.9255881538113617], [2.9893382976932252, 4.274965606046025]],
        [[0.6201241443999006, 4.715110558328109], [0.5611386911264649, 2.2435713704130507],
         [0.7291625707233412, 4.374484844333637], [3.611635045302301, 1.5230916091164626]],
    ),
    ca=(
        [[0.4723884519261934, 4.303112048733283], [0.4005539087496851, 3.3890548153133304],
         [4.927172932614841, 0.08359857867067944], [1.6404617758998237, 2.7468508953718778]],
        [[0.9292197582920753, 3.042136491106293], [1.9241453779122826, 0.8467852962023231],
         [3.5615816176392268, 0.7299787896578114], [4.48159425416023, 1.9293698437412132]],
    ),
)


def test_g3_solves_the_seed6_table():
    prior = 0.4903450563483135
    r = solve_g3(SEED6_TABLE, prior)
    assert r.agent_cost == pytest.approx(0.8318066528748811, abs=1e-9)
    assert [p for p, _ in r.split.atoms] == pytest.approx([0.46722088132846, 1.0], abs=1e-12)
    assert r.split.is_plausible(prior, tol=1e-9)
    assert r.agent_cost <= solve_g2(SEED6_TABLE, prior).agent_cost


# ---------------------------------------------------------------------------
# g4: costly acquisition
# ---------------------------------------------------------------------------


def test_g4_benchmark_b(table_b):
    r = solve_g4(table_b, 0.75, 2.0)
    assert r.total_cost == pytest.approx(1.8809428908692696, abs=1e-6)
    assert r.gross_cost == pytest.approx(1.6008263829787235, abs=1e-6)
    assert r.channel_cost == pytest.approx(0.2801165078905461, abs=1e-6)
    assert r.agent_cost == pytest.approx(1.899046808510639, abs=1e-6)
    atoms = r.split.atoms
    assert len(atoms) == 2
    assert atoms[0][0] == pytest.approx(0.0115, abs=1e-9)   # grid point
    assert atoms[1][0] == pytest.approx(0.834, abs=1e-9)
    assert r.total_cost == r.gross_cost + r.channel_cost    # exact identity
    assert r.split.is_plausible(0.75, tol=1e-9)


def test_g4_zero_kappa_is_full_information_chord(table_b):
    r = solve_g4(table_b, 0.75, 0.0)
    chord = 0.75 * solve_g2(table_b, 1.0).principal_cost + 0.25 * solve_g2(table_b, 0.0).principal_cost
    assert r.total_cost == pytest.approx(chord, abs=1e-8)
    assert r.channel_cost == pytest.approx(0.0, abs=1e-12)


def test_g4_huge_kappa_buys_nothing(table_b):
    r = solve_g4(table_b, 0.75, 1e6)
    assert r.total_cost == pytest.approx(solve_g2(table_b, 0.75).principal_cost, abs=1e-6)
    assert len(r.split.atoms) == 1


def test_g4_monotone_in_kappa(table_b):
    prev = -np.inf
    for kappa in (0.0, 0.5, 1.0, 2.0, 4.0, 1e6):
        total = solve_g4(table_b, 0.75, kappa).total_cost
        assert total >= prev - 1e-9
        prev = total


def test_g4_never_beats_free_information(table_a):
    for kappa in (0.1, 1.0, 3.0):
        r = solve_g4(table_a, 0.4, kappa)
        assert r.gross_cost >= solve_g1(table_a, 0.4).principal_cost - 1e-8
        assert r.total_cost <= solve_g2(table_a, 0.4).principal_cost + kappa * 1e-12 + 1e-8


def test_g4_agent_cost_follows_the_g2_curve_at_ties():
    # At belief 1 the principal's best schemes tie across response pairs.
    # The tie rule picks agent cost 3 there (4 at belief 0), so the fully
    # revealing split costs the agent 3.5. solve_g2 picks the same pair at
    # belief 1, not a later one with agent cost 5 that LP round-off favours.
    table = CostTable(
        cp=([[1, 5], [2, 1]], [[1, 0], [2, 0]]),
        ca=([[3, 5], [5, 5]], [[1, 1], [4, 5]]),
    )
    r = solve_g4(table, 0.5, 0.0, grid_size=401)
    assert r.split.atoms == ((0.0, 0.5), (1.0, 0.5))
    _, ja = agent_value_curve(table, 401)
    assert r.agent_cost == pytest.approx(0.5 * ja[0] + 0.5 * ja[-1], abs=1e-12)
    assert r.agent_cost == pytest.approx(3.5, abs=1e-12)
    assert solve_g2(table, 1.0).agent_cost == pytest.approx(ja[-1], abs=1e-12)


def test_g4_input_validation(table_b):
    with pytest.raises(ValueError):
        solve_g4(table_b, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_g4(table_b, 0.5, -0.5)
    with pytest.raises(ValueError):
        solve_g4(table_b, 0.5, np.inf)
    with pytest.raises(ValueError):
        solve_g4(table_b, 0.5, 1.0, grid_size=2)
