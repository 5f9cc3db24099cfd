"""Closed-form solvers for the scalar quadratic-Gaussian incentive game.

A principal with cost (theta-u-v)^2 + 2u^2 + beta*v^2 commits to an affine
incentive policy gamma(v) = q*v + b around the team-optimal point; an agent
with cost (theta-u-v)^2 + v^2 best-responds. The state theta is Gaussian.
The same four information regimes as the matrix module apply, but everything
here reduces to closed forms plus one 1-D minimization (the g4 channel-noise
choice).

Conventions: the g4 channel cost is kappa/2 * log(1 + 1/sigma_w_sq) in nats
(natural log), the standard Gaussian-channel entropy-reduction form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError("beta must be finite and positive")
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
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError("beta must be finite and positive")
    b2 = beta * beta
    return 4.0 * (b2 + 1.0) / (3.0 * beta + 2.0) ** 2 - b2 / (b2 + 1.0)


def _posterior_mean_variance(sigma0_sq: float, sigma_w_sq: float) -> float:
    if math.isinf(sigma_w_sq):
        return 0.0
    return sigma0_sq * sigma0_sq / (sigma0_sq + sigma_w_sq)


def _residual_variance(sigma0_sq: float, sigma_w_sq: float) -> float:
    if math.isinf(sigma_w_sq):
        return sigma0_sq
    if sigma0_sq + sigma_w_sq == 0.0:
        return 0.0
    return sigma0_sq * sigma_w_sq / (sigma0_sq + sigma_w_sq)


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


def qg_g3(p: QGParams) -> QGReport:
    """Agent-chosen disclosure through a Gaussian channel: the agent's cost
    is affine in the posterior-mean variance, so only the sign of the slope
    matters and the optimum is all (sigma_w = 0) or nothing (infinity)."""
    f = disclosure_coefficient(p.beta)
    if f < 0.0:
        return QGReport(
            game="G3",
            principal_cost=_jp1(p.beta, p.z0, p.sigma0_sq),
            agent_cost=_ja1(p.beta, p.z0, p.sigma0_sq),
            policy=_policy(p.beta),
            channel=0.0,
            posterior=PosteriorStats(p.z0, p.sigma0_sq, 0.0),
            revelation="full",
        )
    return QGReport(
        game="G3",
        principal_cost=_jp2(p.beta, p.z0, p.sigma0_sq),
        agent_cost=_ja2(p.beta, p.z0, p.sigma0_sq),
        policy=_policy(p.beta),
        channel=math.inf,
        posterior=PosteriorStats(p.z0, 0.0, p.sigma0_sq),
        revelation="none",
        indifferent=(f == 0.0),
    )


def qg_g4_cost(p: QGParams, sigma_w_sq: float) -> float:
    """Principal's total cost when buying the signal theta + noise of
    variance sigma_w_sq at price kappa per nat of entropy reduction."""
    s = float(sigma_w_sq)
    if math.isnan(s) or s < 0.0:
        raise ValueError("sigma_w_sq must be nonnegative")
    if s == 0.0:
        return math.inf
    if math.isinf(s):
        return _jp2(p.beta, p.z0, p.sigma0_sq)
    mean_var = _posterior_mean_variance(p.sigma0_sq, s)
    residual = _residual_variance(p.sigma0_sq, s)
    channel = 0.5 * p.kappa * math.log1p(1.0 / s)
    return (
        2.0 * p.beta * (p.z0 * p.z0 + mean_var) / (3.0 * p.beta + 2.0)
        + channel
        + _ignorance_weight(p.beta) * residual
    )


_GRID = np.logspace(-6.0, 6.0, 200)


def qg_g4_optimize(p: QGParams) -> QGReport:
    """Minimize qg_g4_cost over the channel noise: log-spaced grid sweep,
    golden-section refinement around the best grid point, then comparison
    against buying nothing."""
    costs = [qg_g4_cost(p, s) for s in _GRID]
    best = int(np.argmin(costs))
    lo = math.log(_GRID[max(best - 1, 0)])
    hi = math.log(_GRID[min(best + 1, len(_GRID) - 1)])
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = qg_g4_cost(p, math.exp(x1))
    f2 = qg_g4_cost(p, math.exp(x2))
    while hi - lo > 1e-8:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = qg_g4_cost(p, math.exp(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = qg_g4_cost(p, math.exp(x2))
    sigma_star = math.exp(0.5 * (lo + hi))
    cost_star = qg_g4_cost(p, sigma_star)

    no_acquisition = _jp2(p.beta, p.z0, p.sigma0_sq)
    if no_acquisition <= cost_star:
        return QGReport(
            game="G4",
            principal_cost=no_acquisition,
            agent_cost=_ja2(p.beta, p.z0, p.sigma0_sq),
            policy=_policy(p.beta),
            channel=math.inf,
            posterior=PosteriorStats(p.z0, 0.0, p.sigma0_sq),
        )
    mean_var = _posterior_mean_variance(p.sigma0_sq, sigma_star)
    agent = _ja2(p.beta, p.z0, p.sigma0_sq) + disclosure_coefficient(p.beta) * mean_var
    return QGReport(
        game="G4",
        principal_cost=cost_star,
        agent_cost=agent,
        policy=_policy(p.beta),
        channel=sigma_star,
        posterior=PosteriorStats(
            p.z0, mean_var, _residual_variance(p.sigma0_sq, sigma_star)
        ),
    )
