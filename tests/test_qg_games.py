import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incentive_games.qg_games import (
    PolicyCoefficients,
    QGParams,
    disclosure_coefficient,
    qg_g1,
    qg_g2,
    qg_g3,
    qg_g4_cost,
    qg_g4_optimize,
)

REF = QGParams(beta=1.0, z0=1.0, sigma0_sq=4.0)

_betas = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
_means = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
_vars = st.floats(min_value=0.0, max_value=25.0, allow_nan=False)


# ---------------------------------------------------------------------------
# parameters and team solution
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        QGParams(beta=0.0, z0=0.0, sigma0_sq=1.0)
    with pytest.raises(ValueError):
        QGParams(beta=-1.0, z0=0.0, sigma0_sq=1.0)
    with pytest.raises(ValueError):
        QGParams(beta=math.inf, z0=0.0, sigma0_sq=1.0)
    with pytest.raises(ValueError, match="beta must be"):
        QGParams(beta=1e200, z0=0.0, sigma0_sq=1.0)  # beta**4 overflows
    with pytest.raises(ValueError, match="beta must be"):
        disclosure_coefficient(1e78)
    with pytest.raises(ValueError):
        QGParams(beta=1.0, z0=math.inf, sigma0_sq=1.0)
    with pytest.raises(ValueError):
        QGParams(beta=1.0, z0=0.0, sigma0_sq=-1.0)
    with pytest.raises(ValueError):
        QGParams(beta=1.0, z0=0.0, sigma0_sq=1.0, kappa=-2.0)
    with pytest.raises(ValueError):
        QGParams(beta=1.0, z0=0.0, sigma0_sq=1.0, sigma_w_sq=0.0)
    QGParams(beta=1.0, z0=0.0, sigma0_sq=1.0, sigma_w_sq=math.inf)  # allowed


# The least beta whose policy q = (1 - beta)/beta is a finite float, found by
# bisection on the float64 bit patterns.
_SMALLEST_BETA = 5.56268464626801e-309


def test_beta_whose_policy_overflows_is_rejected():
    with pytest.raises(ValueError, match="beta must be at least"):
        QGParams(beta=5e-324, z0=0.0, sigma0_sq=1.0)
    with pytest.raises(ValueError, match="beta must be at least"):
        QGParams(beta=float(np.nextafter(_SMALLEST_BETA, 0.0)), z0=0.0, sigma0_sq=1.0)
    policy = qg_g1(QGParams(beta=_SMALLEST_BETA, z0=1.0, sigma0_sq=4.0)).policy
    assert math.isfinite(policy.q) and math.isfinite(policy.intercept_slope)


def test_team_solution_values():
    pol = qg_g2(REF).policy
    assert (pol.ut_slope, pol.vt_slope) == pytest.approx((0.2, 0.4), abs=1e-12)
    pol = qg_g2(QGParams(beta=0.5, z0=0.0, sigma0_sq=1.0)).policy
    assert (pol.ut_slope, pol.vt_slope) == pytest.approx((1.0 / 7.0, 4.0 / 7.0), abs=1e-12)
    pol = qg_g2(QGParams(beta=1e6, z0=0.0, sigma0_sq=1.0)).policy
    assert pol.ut_slope == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert pol.vt_slope == pytest.approx(0.0, abs=1e-5)


# ---------------------------------------------------------------------------
# g1 and g2 closed forms
# ---------------------------------------------------------------------------


def test_g1_reference_values():
    r = qg_g1(REF)
    assert r.principal_cost == pytest.approx(2.0, abs=1e-12)
    assert r.agent_cost == pytest.approx(1.6, abs=1e-12)
    assert r.policy.q == pytest.approx(0.0, abs=1e-12)  # beta=1 needs no tilt


def test_g1_degenerate_prior_costs_nothing():
    r = qg_g1(QGParams(beta=1.0, z0=0.0, sigma0_sq=0.0))
    assert r.principal_cost == 0.0
    assert r.agent_cost == 0.0


def test_g2_reference_values():
    r = qg_g2(REF)
    assert r.principal_cost == pytest.approx(2.4, abs=1e-12)
    assert r.agent_cost == pytest.approx(2.32, abs=1e-12)


def test_g2_zero_variance_matches_g1():
    for beta in (0.3, 1.0, 2.5):
        p = QGParams(beta=beta, z0=1.7, sigma0_sq=3.0)
        g2 = qg_g2(p, belief_mean=1.7, belief_var=0.0)
        g1 = qg_g1(QGParams(beta=beta, z0=1.7, sigma0_sq=0.0))
        assert g2.principal_cost == pytest.approx(g1.principal_cost, abs=1e-12)


def test_g2_validation():
    with pytest.raises(ValueError):
        qg_g2(REF, belief_mean=math.nan)
    with pytest.raises(ValueError):
        qg_g2(REF, belief_var=-1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_betas, _means, _vars)
def test_price_of_ignorance_nonnegative(beta, z, var):
    p = QGParams(beta=beta, z0=z, sigma0_sq=var)
    assert qg_g2(p).principal_cost >= qg_g1(p).principal_cost - 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_means, _vars)
def test_price_of_ignorance_vanishes_at_critical_beta(z, var):
    beta = math.sqrt(3.0) - 1.0
    p = QGParams(beta=beta, z0=z, sigma0_sq=var)
    assert qg_g2(p).principal_cost - qg_g1(p).principal_cost == pytest.approx(0.0, abs=1e-10)


def _agent_cost(theta: float, policy: PolicyCoefficients, anchor: float, v: float) -> float:
    u = policy.q * v + policy.intercept_slope * anchor
    return (theta - u - v) ** 2 + v ** 2


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_betas, _means, _means)
def test_agent_first_order_condition(beta, theta, z):
    """The agent's implied response minimizes its cost under the committed
    affine policy (central finite-difference gradient near zero)."""
    p = QGParams(beta=beta, z0=z, sigma0_sq=1.0)
    pol = qg_g2(p).policy
    # closed-form best response to u = q*v + intercept_slope*z
    a = pol.intercept_slope * z
    slope = 1.0 + pol.q
    v_star = slope * (theta - a) / (slope * slope + 1.0)
    h = 1e-5 * max(1.0, abs(v_star))
    grad = (
        _agent_cost(theta, pol, z, v_star + h) - _agent_cost(theta, pol, z, v_star - h)
    ) / (2.0 * h)
    assert grad == pytest.approx(0.0, abs=1e-7 * max(1.0, abs(theta), abs(z)) ** 2)


def test_policy_reconstructs_team_point():
    # at v = vt_slope*z the policy must output ut_slope*z, for any beta
    for beta in (0.25, 1.0, 3.0):
        pol = qg_g2(QGParams(beta=beta, z0=2.0, sigma0_sq=1.0)).policy
        z = 2.0
        u = pol.q * (pol.vt_slope * z) + pol.intercept_slope * z
        assert u == pytest.approx(pol.ut_slope * z, abs=1e-12)


# ---------------------------------------------------------------------------
# g3: all-or-nothing disclosure
# ---------------------------------------------------------------------------


def test_disclosure_coefficient_values():
    assert disclosure_coefficient(1.0) == pytest.approx(-0.18, abs=1e-12)
    assert disclosure_coefficient(0.5) == pytest.approx(5.0 / 12.25 - 0.2, abs=1e-12)
    assert disclosure_coefficient(1e-6) == pytest.approx(1.0, abs=1e-4)
    assert disclosure_coefficient(1e6) == pytest.approx(-5.0 / 9.0, abs=1e-4)


def test_g3_full_revelation_at_beta_one():
    r = qg_g3(REF)
    assert r.revelation == "full"
    assert r.channel == 0.0
    assert r.principal_cost == pytest.approx(2.0, abs=1e-12)
    assert r.agent_cost == pytest.approx(1.6, abs=1e-12)
    assert not r.indifferent
    known = QGParams(beta=1.0, z0=2.0, sigma0_sq=0.0)  # sigma0_sq + channel = 0
    assert qg_g3(known).principal_cost == qg_g1(known).principal_cost
    assert qg_g3(known).posterior.mean_variance == 0.0


def test_g3_no_revelation_at_beta_half():
    p = QGParams(beta=0.5, z0=1.0, sigma0_sq=4.0)
    r = qg_g3(p)
    assert r.revelation == "none"
    assert math.isinf(r.channel)
    g2 = qg_g2(p)
    assert r.principal_cost == pytest.approx(g2.principal_cost, abs=1e-12)
    assert r.agent_cost == pytest.approx(g2.agent_cost, abs=1e-12)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_betas, _means, _vars)
def test_g3_decision_tracks_sign(beta, z, var):
    p = QGParams(beta=beta, z0=z, sigma0_sq=var)
    r = qg_g3(p)
    f = disclosure_coefficient(beta)
    if f < 0.0:
        assert r.revelation == "full"
        assert r.principal_cost == qg_g1(p).principal_cost
    else:
        assert r.revelation == "none"


# ---------------------------------------------------------------------------
# g4: priced information
# ---------------------------------------------------------------------------


def test_g4_cost_hand_value():
    p = QGParams(beta=1.0, z0=1.0, sigma0_sq=4.0, kappa=1.0)
    want = 0.4 * 3.0 + 0.5 * math.log(1.25) + 0.5 * 2.0
    assert qg_g4_cost(p, 4.0) == pytest.approx(want, abs=1e-10)
    assert qg_g4_cost(p, 4.0) == pytest.approx(2.3115717756571046, abs=1e-12)


def test_g4_cost_limits():
    p = QGParams(beta=1.0, z0=1.0, sigma0_sq=4.0, kappa=1.0)
    assert qg_g4_cost(p, 1e12) == pytest.approx(2.4, abs=1e-5)
    assert qg_g4_cost(p, math.inf) == qg_g2(p).principal_cost
    assert math.isinf(qg_g4_cost(p, 0.0))
    free = QGParams(beta=1.0, z0=1.0, sigma0_sq=4.0, kappa=0.0)
    assert qg_g4_cost(free, 0.0) == qg_g1(free).principal_cost  # the s -> 0 limit
    with pytest.raises(ValueError):
        qg_g4_cost(p, -1.0)


def test_g4_optimize_frozen_interior_optima():
    frozen = {
        (0.5, 0.5): (1.241288300559421, 1.7224539246417474),
        (0.5, 2.0): (5.683484406899428, 1.952863311924791),
        (1.0, 0.5): (1.8758374965637676, 2.2345205693846344),
        (1.0, 1.0): (4.0, 2.3115717756571046),
        (1.0, 2.0): (12.757018527047226, 2.3799851599910022),
    }
    for (beta, kappa), (sigma, cost) in frozen.items():
        r = qg_g4_optimize(QGParams(beta=beta, z0=1.0, sigma0_sq=4.0, kappa=kappa))
        assert r.channel == pytest.approx(sigma, rel=1e-6)
        assert r.principal_cost == pytest.approx(cost, abs=1e-9)
        assert r.principal_cost < qg_g2(QGParams(beta, 1.0, 4.0)).principal_cost


def test_g4_optimize_agent_cost_is_disclosure_adjusted():
    p = QGParams(beta=1.0, z0=1.0, sigma0_sq=4.0, kappa=1.0)
    r = qg_g4_optimize(p)
    mean_var = 16.0 / (4.0 + r.channel)
    want = qg_g2(p).agent_cost + disclosure_coefficient(1.0) * mean_var
    assert r.agent_cost == pytest.approx(want, abs=1e-12)
    assert r.agent_cost == pytest.approx(1.96, abs=1e-6)


def test_g4_optimize_free_information_reveals_all():
    p = QGParams(beta=1.0, z0=1.0, sigma0_sq=4.0, kappa=0.0)
    r = qg_g4_optimize(p)
    assert r.channel == 0.0
    assert r.principal_cost == qg_g1(p).principal_cost
    assert r.agent_cost == pytest.approx(qg_g1(p).agent_cost, abs=1e-12)


def test_g4_optimize_exact_channels_at_the_reference_prior():
    """At beta = 1, sigma0_sq = 4: a = 0.4, w = 0.5, so D = 2*(w - a)*16 =
    3.2 and Q(s) = (3.2 - kappa)*s^2 + (3.2 - 8*kappa)*s - 16*kappa. Its
    positive root is 0.8, 4 and 8 at kappa = 0.2, 1 and 1.6; from kappa =
    D on, Q < 0 on s > 0 and the cost falls all the way to s = inf."""
    for kappa, channel in ((0.2, 0.8), (1.0, 4.0), (1.6, 8.0)):
        r = qg_g4_optimize(QGParams(beta=1.0, z0=1.0, sigma0_sq=4.0, kappa=kappa))
        assert r.channel == pytest.approx(channel, rel=1e-12)
    assert math.isinf(qg_g4_optimize(QGParams(1.0, 1.0, 4.0, kappa=3.2)).channel)
    assert math.isfinite(qg_g4_optimize(QGParams(1.0, 1.0, 4.0, kappa=3.19)).channel)


def test_g4_optimize_picks_the_local_minimum_of_two_stationary_points():
    """beta = 0.1, sigma0_sq = 0.01, kappa = 0.001 has D < kappa and two
    positive roots: a local minimum near 3.6e-4 that beats buying nothing,
    and a local maximum near 0.40."""
    p = QGParams(beta=0.1, z0=1.0, sigma0_sq=0.01, kappa=0.001)
    r = qg_g4_optimize(p)
    assert r.channel == pytest.approx(3.569e-4, rel=1e-3)
    assert r.principal_cost < qg_g2(p).principal_cost < qg_g4_cost(p, 0.40)


_DENSE = np.logspace(-14.0, 14.0, 20_001)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
    _means,
    st.one_of(st.just(0.0), st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)),
    st.one_of(st.just(0.0), st.floats(-12.0, 4.0).map(lambda e: 10.0 ** e)),
)
def test_g4_optimize_is_never_above_a_dense_sweep(beta, z, var, kappa):
    p = QGParams(beta=beta, z0=z, sigma0_sq=var, kappa=kappa)
    c = qg_g4_optimize(p).principal_cost
    rivals = [qg_g4_cost(p, float(s)) for s in _DENSE] + [qg_g2(p).principal_cost]
    if kappa == 0.0:
        rivals.append(qg_g1(p).principal_cost)
    assert c <= min(rivals) + 1e-12 * max(1.0, abs(c))


def test_g4_optimize_prohibitive_price_buys_nothing():
    r = qg_g4_optimize(QGParams(beta=1.0, z0=1.0, sigma0_sq=4.0, kappa=1e6))
    assert math.isinf(r.channel)
    assert r.principal_cost == pytest.approx(2.4, abs=1e-12)
    assert r.agent_cost == pytest.approx(2.32, abs=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_betas, st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_g4_optimize_never_above_no_acquisition(beta, kappa):
    p = QGParams(beta=beta, z0=1.0, sigma0_sq=4.0, kappa=kappa)
    r = qg_g4_optimize(p)
    assert r.principal_cost <= qg_g2(p).principal_cost + 1e-9


def test_g4_optimize_zero_prior_variance_buys_nothing():
    for kappa in (0.0, 1.0):  # at kappa = 0, s = 0 and s = inf tie
        r = qg_g4_optimize(QGParams(beta=1.0, z0=3.0, sigma0_sq=0.0, kappa=kappa))
        assert math.isinf(r.channel)


def test_report_posterior_stats_consistency():
    p = QGParams(beta=1.0, z0=1.0, sigma0_sq=4.0, kappa=1.0)
    r = qg_g4_optimize(p)
    # law of total variance: Var(z_s) + E[sigma_s^2] = sigma_0^2
    assert r.posterior.mean_variance + r.posterior.variance == pytest.approx(4.0, abs=1e-9)
    assert r.posterior.mean == 1.0
