"""Closed-form solvers for the scalar quadratic-Gaussian incentive game.

A principal with cost (theta-u-v)^2 + 2u^2 + beta*v^2 commits to an affine
incentive policy gamma(v) = q*v + b around the team-optimal point; an agent
with cost (theta-u-v)^2 + v^2 best-responds. The state theta is Gaussian.
The same four information regimes as the matrix module apply, and every one
has a closed form: the g4 channel choice compares the roots of a quadratic
with buying nothing.

Conventions: the g4 channel cost is kappa/2 * ln(1 + 1/sigma_w_sq) nats
(natural log). It equals kappa times the mutual information
1/2 * ln(1 + sigma0_sq/sigma_w_sq) of the signal theta + w only when
sigma0_sq = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


def _check_beta(beta: float) -> None:
    # the closed forms evaluate beta**4 and the policy's q = (1 - beta)/beta,
    # which must stay finite floats
    if not (beta > 0.0 and math.isfinite(beta * beta * beta * beta)):
        raise ValueError("beta must be positive and at most about 1e77 (beta**4 must be finite)")
    policy = _policy(beta)
    if not (math.isfinite(policy.q) and math.isfinite(policy.intercept_slope)):
        raise ValueError(
            "beta must be at least about 5.6e-309 (the policy's q = (1 - beta)/beta must be finite)"
        )


@dataclass(frozen=True)
class QGParams:
    """Game data: cost weight beta, Gaussian prior N(z0, sigma0_sq), channel
    price kappa, and (where a channel is fixed rather than chosen) its noise
    variance sigma_w_sq."""

    beta: float
    z0: float
    sigma0_sq: float
    kappa: float = 0.0
    sigma_w_sq: float = math.inf

    def __post_init__(self):
        _check_beta(self.beta)
        if not math.isfinite(self.z0):
            raise ValueError("z0 must be finite")
        if not (math.isfinite(self.sigma0_sq) and self.sigma0_sq >= 0.0):
            raise ValueError("sigma0_sq must be finite and nonnegative")
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValueError("kappa must be finite and nonnegative")
        if math.isnan(self.sigma_w_sq) or self.sigma_w_sq <= 0.0:
            raise ValueError("sigma_w_sq must be positive (possibly infinite)")


@dataclass(frozen=True)
class PolicyCoefficients:
    """The committed policy is gamma(v) = q*v + intercept_slope*z where z is
    the conditioning mean (the state under full information, the posterior
    mean otherwise); ut_slope and vt_slope give the team-optimal point
    (u, v) = (ut_slope*z, vt_slope*z) the policy is built around."""

    ut_slope: float
    vt_slope: float
    q: float
    intercept_slope: float


@dataclass(frozen=True)
class PosteriorStats:
    """The posterior mean z_s is itself Gaussian N(mean, mean_variance);
    variance is the residual state variance after observing the signal."""

    mean: float
    mean_variance: float
    variance: float


@dataclass(frozen=True)
class QGReport:
    game: str
    principal_cost: float
    agent_cost: float
    policy: PolicyCoefficients
    channel: float | None = None
    posterior: PosteriorStats | None = None
    revelation: str | None = None
    indifferent: bool = False


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _policy(beta: float) -> PolicyCoefficients:
    denom = 3.0 * beta + 2.0
    q = (1.0 - beta) / beta
    return PolicyCoefficients(
        ut_slope=beta / denom,
        vt_slope=2.0 / denom,
        q=q,
        intercept_slope=(beta * beta + 2.0 * beta - 2.0) / (beta * denom),
    )


def _jp1(beta: float, z: float, var: float) -> float:
    return 2.0 * beta * (z * z + var) / (3.0 * beta + 2.0)


def _ja1(beta: float, z: float, var: float) -> float:
    return 4.0 * (beta * beta + 1.0) * (z * z + var) / (3.0 * beta + 2.0) ** 2


def _ignorance_weight(beta: float) -> float:
    """Coefficient of the belief variance in the principal's g2 cost."""
    b2 = beta * beta
    return (b2 * b2 + b2 * beta + 2.0 * b2 - 4.0 * beta + 2.0) / (b2 + 1.0) ** 2


def _jp2(beta: float, z: float, var: float) -> float:
    return 2.0 * beta * z * z / (3.0 * beta + 2.0) + _ignorance_weight(beta) * var


def _ja2(beta: float, z: float, var: float) -> float:
    b2 = beta * beta
    return 4.0 * (b2 + 1.0) * z * z / (3.0 * beta + 2.0) ** 2 + b2 / (b2 + 1.0) * var


def disclosure_coefficient(beta: float) -> float:
    """Slope of the agent's expected cost in the variance of the induced
    posterior mean: positive means disclosure hurts the agent."""
    _check_beta(beta)
    b2 = beta * beta
    return 4.0 * (b2 + 1.0) / (3.0 * beta + 2.0) ** 2 - b2 / (b2 + 1.0)


def _posterior_variances(sigma0_sq: float, sigma_w_sq: float) -> tuple[float, float]:
    """Var(z_s), the variance of the posterior mean, and the residual
    variance after observing theta + noise of variance sigma_w_sq."""
    if math.isinf(sigma_w_sq):
        return 0.0, sigma0_sq
    total = sigma0_sq + sigma_w_sq
    if total == 0.0:
        return 0.0, 0.0
    return sigma0_sq * sigma0_sq / total, sigma0_sq * sigma_w_sq / total


# ---------------------------------------------------------------------------
# the four games
# ---------------------------------------------------------------------------


def qg_g1(p: QGParams) -> QGReport:
    """Full information: the principal observes theta and installs the team
    optimum via the affine policy with slope q = (1-beta)/beta."""
    return QGReport(
        game="G1",
        principal_cost=_jp1(p.beta, p.z0, p.sigma0_sq),
        agent_cost=_ja1(p.beta, p.z0, p.sigma0_sq),
        policy=_policy(p.beta),
    )


def qg_g2(p: QGParams, belief_mean: float | None = None, belief_var: float | None = None) -> QGReport:
    """Mean feedback: the principal knows only a Gaussian belief and anchors
    the same affine policy at the belief mean."""
    z = p.z0 if belief_mean is None else float(belief_mean)
    var = p.sigma0_sq if belief_var is None else float(belief_var)
    if not math.isfinite(z):
        raise ValueError("belief_mean must be finite")
    if not (math.isfinite(var) and var >= 0.0):
        raise ValueError("belief_var must be finite and nonnegative")
    return QGReport(
        game="G2",
        principal_cost=_jp2(p.beta, z, var),
        agent_cost=_ja2(p.beta, z, var),
        policy=_policy(p.beta),
        posterior=PosteriorStats(mean=z, mean_variance=0.0, variance=var),
    )


def _channel_report(p: QGParams, game: str, s: float, **labels) -> QGReport:
    """The report at channel noise s (0: full information, inf: none): the
    principal pays qg_g4_cost; the agent's cost is affine in Var(z_s)."""
    mean_var, residual = _posterior_variances(p.sigma0_sq, s)
    return QGReport(
        game=game,
        principal_cost=qg_g4_cost(p, s),
        agent_cost=_ja2(p.beta, p.z0, p.sigma0_sq) + disclosure_coefficient(p.beta) * mean_var,
        policy=_policy(p.beta),
        channel=s,
        posterior=PosteriorStats(p.z0, mean_var, residual),
        **labels,
    )


def qg_g3(p: QGParams) -> QGReport:
    """Agent-chosen disclosure through a Gaussian channel: the agent's cost
    is affine in the posterior-mean variance, so only the sign of the slope
    matters and the optimum is all (sigma_w = 0) or nothing (infinity).
    Disclosure is free, so the principal pays qg_g4_cost at kappa = 0."""
    f = disclosure_coefficient(p.beta)
    return _channel_report(
        replace(p, kappa=0.0), "G3", 0.0 if f < 0.0 else math.inf,
        revelation="full" if f < 0.0 else "none", indifferent=(f == 0.0),
    )


def qg_g4_cost(p: QGParams, sigma_w_sq: float) -> float:
    """Principal's total cost when buying the signal theta + noise of
    variance sigma_w_sq at price kappa per nat of entropy reduction. At
    sigma_w_sq = 0 it is inf, or its limit, the g1 cost, when kappa = 0."""
    s = float(sigma_w_sq)
    if math.isnan(s) or s < 0.0:
        raise ValueError("sigma_w_sq must be nonnegative")
    if s == 0.0:
        return _jp1(p.beta, p.z0, p.sigma0_sq) if p.kappa == 0.0 else math.inf
    if math.isinf(s):
        return _jp2(p.beta, p.z0, p.sigma0_sq)
    mean_var, residual = _posterior_variances(p.sigma0_sq, s)
    channel = 0.5 * p.kappa * math.log1p(1.0 / s)
    return _jp1(p.beta, p.z0, mean_var) + channel + _ignorance_weight(p.beta) * residual


def qg_g4_optimize(p: QGParams) -> QGReport:
    """Minimize qg_g4_cost over the channel noise s, exactly.

    With s0 = sigma0_sq, a = 2*beta/(3*beta + 2), w = _ignorance_weight(beta)
    and m(s) = s0^2/(s0 + s) = Var(z_s), the residual variance is s0 - m(s):

        C(s) = a*z0^2 + w*s0 + (a - w)*m(s) + (kappa/2)*ln(1 + 1/s),
        C'(s) = (w - a)*s0^2/(s0 + s)^2 - kappa/(2*s*(s + 1)).

    On s > 0, C' has the sign of Q(s) = (D - kappa)*s^2 + (D - 2*kappa*s0)*s
    - kappa*s0^2, with D = 2*(w - a)*s0^2. With kappa > 0, Q(0) <= 0 and C
    falls from +inf near 0. If D > kappa, Q has one positive root, the
    minimum; if D < kappa, none, or a local minimum and then a local maximum
    after which C falls toward C(inf), the g2 cost. With kappa = 0, Q(s) =
    D*s*(s + 1): C is monotone and s = 0 (the g1 cost) can win only if D > 0.
    The candidates are compared by qg_g4_cost after s = inf, so a tie buys
    nothing. The roots use the cancellation-free quadratic formula, whose
    root qc/q also solves the linear case D = kappa.
    """
    s0, k = p.sigma0_sq, p.kappa
    d = 2.0 * (_ignorance_weight(p.beta) - 2.0 * p.beta / (3.0 * p.beta + 2.0)) * s0 * s0
    qa, qb, qc = d - k, d - 2.0 * k * s0, -k * s0 * s0
    disc = qb * qb - 4.0 * qa * qc
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb)) if disc >= 0.0 else 0.0
    roots = ([q / qa] if qa != 0.0 else []) + ([qc / q] if q != 0.0 else [])
    if k == 0.0:
        roots = [0.0] if d > 0.0 else []
    candidates = [math.inf] + [s for s in roots if s >= 0.0]
    return _channel_report(p, "G4", min(candidates, key=lambda s: qg_g4_cost(p, s)))
