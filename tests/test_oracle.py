import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from incentive_games import oracle
from incentive_games.belief_engine import envelope_from_samples, tilde_entropy
from incentive_games.matrix_games import CostTable, agent_value_curve, solve_g2, solve_g3, solve_g4, value_curves
from incentive_games.oracle import (
    _PAIR_ROWS,
    DEFAULT_SEED,
    OracleReport,
    oracle_envelope_by_pairs,
    _oracle_vertices,
    oracle_g2_by_enumeration,
    oracle_g3_by_obedience,
    oracle_qg_montecarlo,
    verify_matrix,
    verify_qg,
)
from incentive_games.qg_games import QGParams, qg_g2
from incentive_games.scenarios import load_scenario

REF = QGParams(beta=1.0, z0=1.0, sigma0_sq=4.0, kappa=1.0, sigma_w_sq=4.0)

_entry = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=32)


def _tables(n: int):
    count = 4 * n * n
    return st.lists(_entry, min_size=count, max_size=count).map(
        lambda v: CostTable(
            cp=np.array(v[: 2 * n * n], dtype=float).reshape(2, n, n),
            ca=np.array(v[2 * n * n :], dtype=float).reshape(2, n, n),
        )
    )


# ---------------------------------------------------------------------------
# report bookkeeping
# ---------------------------------------------------------------------------


def test_report_pass_is_derived():
    ok = OracleReport(quantity="x", solver_value=1.0, oracle_value=1.0 + 5e-9, tolerance=1e-8)
    bad = OracleReport(quantity="x", solver_value=1.0, oracle_value=1.1, tolerance=1e-8)
    assert ok.passed and not bad.passed


# ---------------------------------------------------------------------------
# g2 enumeration oracle
# ---------------------------------------------------------------------------


def test_enumeration_oracle_benchmark_a(table_a):
    assert oracle_g2_by_enumeration(table_a, 0.4) == pytest.approx(2.6, abs=1e-8)
    assert oracle_g2_by_enumeration(table_a, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_enumeration_oracle_benchmark_b(table_b):
    assert oracle_g2_by_enumeration(table_b, 0.75) == pytest.approx(2.0, abs=1e-8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_tables(2), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_enumeration_oracle_agrees_with_solver(table, belief):
    solver = solve_g2(table, belief).principal_cost
    assert oracle_g2_by_enumeration(table, belief) == pytest.approx(solver, abs=1e-7)


def test_enumeration_oracle_agrees_on_3x3():
    rng = np.random.default_rng(11)
    for _ in range(4):
        table = CostTable(cp=rng.uniform(-3, 3, (2, 3, 3)), ca=rng.uniform(-3, 3, (2, 3, 3)))
        for belief in (0.2, 0.6):
            solver = solve_g2(table, belief).principal_cost
            assert oracle_g2_by_enumeration(table, belief) == pytest.approx(solver, abs=1e-8)


# ---------------------------------------------------------------------------
# obedience LP oracle
# ---------------------------------------------------------------------------


def _shaped_tables():
    """2x2, 2x3 and 3x2 tables, real-valued or integer-valued."""

    def of(m, n, entry):
        count = 4 * m * n
        return st.lists(entry, min_size=count, max_size=count).map(
            lambda v: CostTable(
                cp=np.array(v[: 2 * m * n], dtype=float).reshape(2, m, n),
                ca=np.array(v[2 * m * n :], dtype=float).reshape(2, m, n),
            )
        )

    return st.sampled_from([(2, 2), (2, 3), (3, 2)]).flatmap(
        lambda mn: st.one_of(of(*mn, _entry), of(*mn, st.integers(0, 5)))
    )


def _no_information_costs(table, prior):
    """(principal, agent) cost of the best single recommendation at the prior:
    the least agent cost among the principal-optimal vertices."""
    costs = [
        (
            prior * g[:, i] @ table.cp[0][:, i] + (1 - prior) * g[:, j] @ table.cp[1][:, j],
            prior * g[:, i] @ table.ca[0][:, i] + (1 - prior) * g[:, j] @ table.ca[1][:, j],
        )
        for i, j, g in _oracle_vertices(table)
    ]
    jp = min(p for p, _ in costs)
    return jp, min(a for p, a in costs if p <= jp + 1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_shaped_tables(), st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
def test_g3_hull_equals_the_obedience_lp(table, prior):
    r = solve_g3(table, prior)
    agent, principal = oracle_g3_by_obedience(table, prior)
    assert r.agent_cost == pytest.approx(agent, abs=1e-8)
    assert r.principal_cost == pytest.approx(principal, abs=1e-8)
    assert len(r.split.atoms) <= 2
    assert r.split.is_plausible(prior, tol=1e-9)
    jp, ja = _no_information_costs(table, prior)
    if abs(r.principal_cost - jp) <= 1e-9 and abs(r.agent_cost - ja) <= 1e-9:
        assert len(r.split.atoms) == 1
        assert r.split.atoms[0][0] == pytest.approx(prior, abs=1e-9)


def test_g3_double_tie_reports_the_prior():
    # Revealing the state fully (posteriors 0 and 1, weights 0.75 and 0.25)
    # costs the agent 1.0 and the principal 2.75, and so does recommending
    # the scheme below without any information: the split buys nothing.
    table = CostTable(
        cp=([[2, 4], [5, 5]], [[0, 3], [3, 3]]),
        ca=([[1, 2], [3, 2]], [[4, 1], [4, 3]]),
    )
    r = solve_g3(table, 0.25)
    assert r.split.atoms == ((0.25, 1.0),)
    assert r.agent_cost == pytest.approx(1.0, abs=1e-12)
    assert r.principal_cost == pytest.approx(2.75, abs=1e-12)
    (rec,) = r.recommendation_distribution
    assert rec.group == (0, 1)
    assert np.array_equal(rec.scheme, [[1.0, 1.0], [0.0, 0.0]])
    assert solve_g2(table, 0.25).agent_cost == pytest.approx(2.5, abs=1e-12)
    assert oracle_g3_by_obedience(table, 0.25) == pytest.approx((1.0, 2.75), abs=1e-9)


# ---------------------------------------------------------------------------
# envelope pair oracle
# ---------------------------------------------------------------------------


def test_pair_oracle_tent_function():
    xs = np.linspace(0.0, 1.0, 101)
    tent = 0.5 - np.abs(xs - 0.5)  # concave peak; envelope is the zero chord
    vee = np.abs(xs - 0.5)         # convex; envelope is the function itself
    assert oracle_envelope_by_pairs(xs, tent, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert oracle_envelope_by_pairs(xs, vee, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_pair_oracle_convex_function_is_itself():
    xs = np.linspace(0.0, 1.0, 201)
    ys = (xs - 0.3) ** 2
    for q in (0.0, 0.25, 0.3, 0.9):
        direct = float(np.interp(q, xs, ys))
        assert oracle_envelope_by_pairs(xs, ys, q) <= direct + 1e-12
        assert oracle_envelope_by_pairs(xs, ys, q) >= direct - 1e-3  # convexity gap only


def test_pair_oracle_agent_curve_b(table_b):
    xs, ja = agent_value_curve(table_b, 2001)
    assert oracle_envelope_by_pairs(xs, ja, 0.75) == pytest.approx(1.75, abs=1e-9)


def test_pair_oracle_rejects_out_of_range():
    with pytest.raises(ValueError):
        oracle_envelope_by_pairs([0.2, 0.4], [1.0, 1.0], 0.5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=5, max_size=40),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_pair_oracle_matches_hull_walk(values, query):
    xs = np.linspace(0.0, 1.0, len(values))
    value, _ = envelope_from_samples(xs, values, query)
    assert oracle_envelope_by_pairs(xs, values, query) == pytest.approx(value, abs=1e-10)


def _pairs_unblocked(xs, ys, query):
    """The pair oracle over one left-by-right array of every pair at once."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    q = float(query)
    left = np.flatnonzero(xs <= q)
    right = np.flatnonzero(xs >= q)
    best = math.inf
    hits = np.flatnonzero(xs == q)
    if hits.size:
        best = float(ys[hits].min())
    xl, yl = xs[left][:, None], ys[left][:, None]
    xr, yr = xs[right][None, :], ys[right][None, :]
    span = xr - xl
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (xr - q) / span
        mixed = lam * yl + (1.0 - lam) * yr
    strict = span > 0.0
    if np.any(strict):
        best = min(best, float(mixed[strict].min()))
    return best


_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_level = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def _pair_inputs(draw):
    """Samples spanning [0, 1] in any order, some on a coarse grid (duplicate
    xs), with random or constant values, and a query at 0, at 1, on a sample
    or anywhere. With up to 3 blocks of samples, the query at 1 puts every
    sample on the left."""
    inner = draw(st.lists(st.one_of(_unit, st.sampled_from([0.25, 0.5, 0.75])), max_size=3 * _PAIR_ROWS + 5))
    xs = [0.0, 1.0, *inner]
    if draw(st.booleans()):
        ys = [draw(_level)] * len(xs)
    else:
        ys = draw(st.lists(_level, min_size=len(xs), max_size=len(xs)))
    query = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.sampled_from(xs), _unit))
    return xs, ys, query


def _grid_inputs(n: int, query: float):
    xs = np.linspace(0.0, 1.0, n)
    return xs, np.cos(7.0 * xs), query


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_pair_inputs())
@example(_grid_inputs(_PAIR_ROWS - 1, 1.0))   # left samples below one block
@example(_grid_inputs(_PAIR_ROWS, 1.0))       # exactly one block
@example(_grid_inputs(_PAIR_ROWS + 1, 1.0))   # across two blocks
@example(_grid_inputs(2 * _PAIR_ROWS + 1, 0.5))  # two blocks, the query on a sample
@example(([0.0, 0.5, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0], 0.5))
def test_pair_oracle_blocks_equal_the_unblocked_reference(inputs):
    xs, ys, query = inputs
    assert oracle_envelope_by_pairs(xs, ys, query) == _pairs_unblocked(xs, ys, query)


@pytest.mark.parametrize("n", [_PAIR_ROWS - 1, _PAIR_ROWS + 1, 2 * _PAIR_ROWS + 3])
def test_pair_oracle_reaches_every_left_row(n):
    """A single dip at sample k is the unique cheapest left atom for a query
    just below 1, so a block that drops any left row changes the value."""
    xs = np.linspace(0.0, 1.0, n)
    for k in range(n - 1):
        ys = np.ones(n)
        ys[k] = -1.0
        got = oracle_envelope_by_pairs(xs, ys, 0.999)
        assert got == _pairs_unblocked(xs, ys, 0.999) < 1.0


def test_pair_oracle_equals_the_unblocked_reference_on_the_bundled_curves():
    for name in ("scenarioA", "scenarioB"):
        s = load_scenario(name)
        xs, jp, ja = value_curves(s.table, 2001)
        net = jp - s.kappa * tilde_entropy(xs, s.prior)
        for ys in (ja, net):
            for q in (0.0, s.prior, 0.3, 1.0):
                assert oracle_envelope_by_pairs(xs, ys, q) == _pairs_unblocked(xs, ys, q)


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------


def test_mc_zero_variance_is_exact():
    p = QGParams(beta=1.0, z0=0.0, sigma0_sq=0.0)
    r = oracle_qg_montecarlo(p, "G1", n_samples=1000)
    assert r.oracle_value == 0.0
    assert r.solver_value == 0.0
    assert r.passed


def test_mc_g1_g2_reference():
    for game, want in (("G1", 2.0), ("G2", 2.4)):
        r = oracle_qg_montecarlo(REF, game, n_samples=200_000)
        assert r.passed, (game, r)
        assert r.solver_value == pytest.approx(want, abs=1e-12)
        assert r.seed == DEFAULT_SEED


def test_mc_g4_includes_channel_price():
    r = oracle_qg_montecarlo(REF, "G4", n_samples=200_000)
    assert r.passed, r
    assert r.solver_value == pytest.approx(2.3115717756571046, abs=1e-12)


def test_mc_is_reproducible():
    a = oracle_qg_montecarlo(REF, "G2", n_samples=10_000, seed=7)
    b = oracle_qg_montecarlo(REF, "G2", n_samples=10_000, seed=7)
    assert a.oracle_value == b.oracle_value


def test_mc_rejects_unknown_game():
    with pytest.raises(ValueError):
        oracle_qg_montecarlo(REF, "G3")
    with pytest.raises(ValueError, match="at least 2"):
        oracle_qg_montecarlo(REF, "G1", n_samples=1)
    with pytest.raises(ValueError):
        oracle_qg_montecarlo(QGParams(beta=1.0, z0=0.0, sigma0_sq=1.0), "G4")


def test_mc_iterated_expectations_identity():
    """E[theta * z_s] and E[z_s^2] both equal z0^2 + sigma0^4/(sigma0^2+sigma_w^2)."""
    rng = np.random.default_rng(DEFAULT_SEED)
    n = 400_000
    theta = REF.z0 + 2.0 * rng.standard_normal(n)
    noise = 2.0 * rng.standard_normal(n)
    z_s = (REF.sigma_w_sq * REF.z0 + REF.sigma0_sq * (theta + noise)) / (
        REF.sigma0_sq + REF.sigma_w_sq
    )
    want = REF.z0 ** 2 + REF.sigma0_sq ** 2 / (REF.sigma0_sq + REF.sigma_w_sq)
    for sample in (theta * z_s, z_s ** 2):
        err = 3.0 * sample.std(ddof=1) / math.sqrt(n)
        assert abs(float(sample.mean()) - want) <= err


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("game, draws", [("G1", 1), ("G4", 2)])
def test_mc_memory_is_the_draws_and_one_block(game, draws):
    """The playout runs in blocks, so beyond the 8 MB of each 1e6-sample
    draw the peak holds one block's temporaries of 128 kB each."""
    assert _traced_peak(lambda: oracle_qg_montecarlo(REF, game)) <= draws * 8e6 + 2e6


def test_verify_qg_memory_is_three_sample_arrays():
    """The quadrature holds nine points; the peak is the dense channel
    sweep, a 150,001-point grid and its temporaries of 1.2 MB each."""
    p = load_scenario("qg_fig4").params
    assert _traced_peak(lambda: verify_qg(p)) <= 8e6


def test_verify_matrix_memory_is_bounded_by_the_pair_blocks():
    s = load_scenario("scenarioA")
    assert _traced_peak(lambda: verify_matrix(s.table, s.prior, 2001, s.kappa)) <= 5e6


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def test_verify_matrix_all_pass(table_a):
    reports = verify_matrix(table_a, 0.4, grid_size=501, kappa=1.0)
    assert reports
    for r in reports:
        assert r.passed, r
    # no kappa, no acquisition check
    without = verify_matrix(table_a, 0.4, grid_size=501)
    assert [r.quantity for r in without] == [r.quantity for r in reports if "acquisition" not in r.quantity]


@pytest.mark.parametrize("kappa", [-1.0, np.nan, np.inf])
def test_verify_matrix_rejects_a_bad_kappa_before_any_work(table_a, kappa, monkeypatch):
    # a negative or nan kappa must not drop the acquisition check silently,
    # nor an infinite one reach the objective before anything raises
    monkeypatch.setattr(oracle, "_oracle_vertices", lambda table: pytest.fail("work before the kappa check"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="kappa must be finite and nonnegative"):
            verify_matrix(table_a, 0.4, grid_size=501, kappa=kappa)


def test_verify_matrix_b_all_pass(table_b):
    reports = verify_matrix(table_b, 0.75, grid_size=501, kappa=2.0)
    assert any("acquisition" in r.quantity for r in reports)
    for r in reports:
        assert r.passed, r


@pytest.mark.parametrize("name", ["scenarioA", "scenarioB"])
@pytest.mark.parametrize("kappa", [1e12, 1e15, 1e16, 1e17])
def test_g4_total_is_gross_plus_channel_at_huge_kappa(name, kappa):
    # g4's total is the envelope at the prior of jp2 + kappa * (1 - h~), the
    # total cost of each posterior. The envelope of jp2 - kappa * h~ plus
    # kappa loses the total to cancellation (scenarioA's 2.6 reads 0.0 at
    # 1e17), in the solver and in an oracle built the same way alike.
    s = load_scenario(name)
    r = solve_g4(s.table, s.prior, kappa)
    assert r.total_cost == r.gross_cost + r.channel_cost
    for report in verify_matrix(s.table, s.prior, 2001, kappa):
        assert report.passed, report


def test_verify_qg_all_pass():
    reports = verify_qg(REF)
    assert any("argmin" in r.quantity for r in reports)
    for r in reports:
        assert r.passed, r


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(1e-3, 1e3),
    z0=st.floats(-10.0, 10.0),
    sigma0_sq=st.just(0.0) | st.floats(1e-4, 1e4),
    sigma_w_sq=st.floats(1e-4, 1e4) | st.just(math.inf),
    kappa=st.just(0.0) | st.floats(1e-6, 1e4),
)
# a playout that forms u = q*v + intercept cancels two terms of size 1/beta;
# sampled that way, G1 read 5.98e8 against 5e-20 at beta = 1e-20 and nan at 1e-200
@example(beta=1e-20, z0=1.0, sigma0_sq=4.0, sigma_w_sq=4.0, kappa=1.0)
@example(beta=1e-200, z0=1.0, sigma0_sq=4.0, sigma_w_sq=math.inf, kappa=1.0)
# the g4 cost is flat to round-off at the optimum: the grid argmin of the
# full cost lands 1.1e-4 decades off at the first, and without refinement
# the grid's step misses the total by 1.1e-6 at the second
@example(beta=31.6, z0=1.0, sigma0_sq=1e3, sigma_w_sq=math.inf, kappa=1e-6)
@example(beta=0.1, z0=1.0, sigma0_sq=1e4, sigma_w_sq=math.inf, kappa=1e4)
def test_every_verify_qg_report_passes(beta, z0, sigma0_sq, sigma_w_sq, kappa):
    for r in verify_qg(QGParams(beta, z0, sigma0_sq, kappa, sigma_w_sq)):
        assert r.passed, r


@pytest.mark.parametrize("game", ["G1", "G2", "G4"])
def test_quadrature_lies_within_the_montecarlo_tolerance(game):
    """The exact expectation lies within the sampled oracle's four standard
    errors on the reference game, so the two oracles agree."""
    sampled = oracle_qg_montecarlo(REF, game, n_samples=200_000)
    quadrature = next(r for r in verify_qg(REF) if r.quantity == sampled.quantity)
    assert abs(quadrature.oracle_value - sampled.oracle_value) <= sampled.tolerance
