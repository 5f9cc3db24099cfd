"""Two-state belief arithmetic.

Binary entropy with the uniform belief normalized to 1, the reference-prior
transform used by the channel-cost machinery, Bayes-plausible posterior
splits, and lower convex envelopes (bi-conjugates) of sampled functions on
[0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_P_TOL = 1e-12


def as_probability(b):
    """Validate a probability, or an array of them, and clip it into [0, 1].
    A scalar comes back as a float, an array as an array."""
    p = np.asarray(b, dtype=float)
    inside = (p >= -_P_TOL) & (p <= 1.0 + _P_TOL)
    if not np.all(inside):
        raise ValueError(f"belief must lie in [0, 1], got {p[~inside].flat[0]}")
    if p.ndim == 0:
        return min(1.0, max(0.0, float(p)))
    return np.clip(p, 0.0, 1.0)


@dataclass(frozen=True)
class PosteriorSplit:
    """Finite distribution over posterior beliefs: ((posterior, weight), ...)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((as_probability(p), float(w)) for p, w in self.atoms)
        if not atoms:
            raise ValueError("split needs at least one atom")
        if any(w <= 0.0 for _, w in atoms):
            raise ValueError("atom weights must be positive")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"atom weights must sum to 1, got {total}")
        object.__setattr__(self, "atoms", atoms)

    def mean(self) -> float:
        return sum(p * w for p, w in self.atoms)

    def is_plausible(self, prior, tol: float = 1e-9) -> bool:
        return abs(self.mean() - as_probability(prior)) <= tol


def binary_entropy(b):
    """Base-2 entropy of a two-state belief (or an array of them);
    H(0.5) = 1, 0 log 0 = 0."""
    p = as_probability(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))
    h = np.where((p > 0.0) & (p < 1.0), h, 0.0)
    return float(h) if h.ndim == 0 else h


def reference_transform(posterior, prior):
    """Map a posterior generated under `prior` to the posterior the same
    signal realization would generate under a uniform reference prior.

    `posterior` may be an array; `prior` is one interior belief (the
    transform is undefined for degenerate priors)."""
    q = as_probability(prior)
    if not (0.0 < q < 1.0):
        raise ValueError("reference transform needs an interior prior")
    p = as_probability(posterior)
    num = p / q
    return num / (num + (1.0 - p) / (1.0 - q))


def tilde_entropy(posterior, prior):
    """Entropy of the reference-transformed posterior (elementwise for an
    array of posteriors). Equals 1 at the prior itself and 0 at degenerate
    posteriors."""
    return binary_entropy(reference_transform(posterior, prior))


# ---------------------------------------------------------------------------
# lower convex envelope
# ---------------------------------------------------------------------------

_HULL_CROSS_TOL = 1e-12


def lower_hull_indices(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Monotone-chain lower hull over points sorted by x.

    Collinear interior points are dropped (cross-product tolerance scaled by
    the value range) so exactly-affine stretches keep only their endpoints.
    """
    n = xs.shape[0]
    scale = max(1.0, float(np.max(np.abs(ys))))
    tol = _HULL_CROSS_TOL * scale
    hull: list[int] = []
    for i in range(n):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (xs[b] - xs[a]) * (ys[i] - ys[a]) - (xs[i] - xs[a]) * (ys[b] - ys[a])
            if cross <= tol:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def envelope_from_samples(xs, ys, query: float) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Lower-hull value and supporting atoms at `query` for sampled points.

    Returns (value, ((x, weight), ...)) with one atom when the query sits on
    a hull vertex and two bracketing hull vertices otherwise.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not np.all(np.isfinite(ys)):
        raise ValueError("sampled values must be finite")
    q = float(query)
    if q < xs[0] - _P_TOL or q > xs[-1] + _P_TOL:
        raise ValueError("query outside the sampled range")
    hull = lower_hull_indices(xs, ys)
    hx = xs[hull]
    hy = ys[hull]
    k = int(np.searchsorted(hx, q, side="right"))
    if k == 0:
        return float(hy[0]), ((float(hx[0]), 1.0),)
    if k >= len(hull):
        return float(hy[-1]), ((float(hx[-1]), 1.0),)
    xl, xr = float(hx[k - 1]), float(hx[k])
    yl, yr = float(hy[k - 1]), float(hy[k])
    wr = (q - xl) / (xr - xl)
    if wr <= 1e-12:
        return yl, ((xl, 1.0),)
    if wr >= 1.0 - 1e-12:
        return yr, ((xr, 1.0),)
    value = yl + wr * (yr - yl)
    return value, ((xl, 1.0 - wr), (xr, wr))
