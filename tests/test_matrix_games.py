import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incentive_games import lp_kernel, matrix_games
from incentive_games.belief_engine import envelope_from_samples
from incentive_games.lp_kernel import Polytope, enumerate_vertices
from incentive_games.matrix_games import (
    CostTable,
    IncentiveScheme,
    _pair_polytope,
    _pair_profiles,
    _scheme_key,
    _to_matrix,
    agent_value_curve,
    collect_xi,
    principal_value_curve,
    solve_g1,
    solve_g2,
    solve_g3,
    solve_g4,
    value_curves,
)

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
    xs, vals = principal_value_curve(table_a, 2001)
    assert vals[0] == pytest.approx(1.0, abs=1e-8)
    assert vals[1000] == pytest.approx(3.0, abs=1e-8)
    assert vals[2000] == pytest.approx(1.0, abs=1e-8)


def test_curves_match_direct_solves(table_a, table_b):
    for table in (table_a, table_b):
        xs, jp, ja = value_curves(table, 201)
        assert np.array_equal(jp, principal_value_curve(table, 201)[1])
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


def test_principal_curve_midpoint_concavity(table_a, table_b):
    for table in (table_a, table_b):
        _, vals = principal_value_curve(table, 401)
        interior = vals[1:-1]
        assert np.all(interior >= 0.5 * (vals[:-2] + vals[2:]) - 1e-8)


def test_curve_rejects_tiny_grid(table_a):
    with pytest.raises(ValueError):
        principal_value_curve(table_a, 1)


# ---------------------------------------------------------------------------
# candidate-scheme collection
# ---------------------------------------------------------------------------


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
    _pair_profiles(table_b)
    calls = []
    real = lp_kernel.solve_lp

    def counted(lp):
        calls.append(lp)
        return real(lp)

    monkeypatch.setattr(lp_kernel, "solve_lp", counted)
    monkeypatch.setattr(matrix_games, "solve_lp", counted)
    for prior in (0.3, 0.75):
        solve_g3(table_b, prior)
    assert calls == []
    solve_g3(table_b, 1.0)      # g3 is g2 at a degenerate prior: LPs, counted
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
    # (the vertex enumeration behind solve_g3, and solve_g2 below) still finish
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
