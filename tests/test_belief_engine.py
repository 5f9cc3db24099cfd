import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incentive_games.belief_engine import (
    PosteriorSplit,
    as_probability,
    binary_entropy,
    envelope_from_samples,
    reference_transform,
    tilde_entropy,
)

interior = st.floats(0.01, 0.99)


def assert_atoms(atoms, expected, tol=1e-9):
    assert len(atoms) == len(expected), f"{atoms} vs {expected}"
    for (p, w), (pe, we) in zip(atoms, expected):
        assert abs(p - pe) <= tol and abs(w - we) <= tol, f"{atoms} vs {expected}"


def test_split_validation():
    with pytest.raises(ValueError):
        PosteriorSplit(((0.2, 0.5), (0.8, 0.6)))  # weights exceed 1
    with pytest.raises(ValueError):
        PosteriorSplit(((0.2, -0.1), (0.8, 1.1)))


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-13)


def test_reference_transform_values():
    assert float(reference_transform(0.6, 0.6)) == 0.5
    assert float(reference_transform(1.0, 0.75)) == 1.0
    assert float(reference_transform(0.0, 0.75)) == 0.0
    assert float(reference_transform(0.87, 0.75)) == pytest.approx(29 / 42, abs=1e-14)
    with pytest.raises(ValueError, match="interior"):
        reference_transform(0.5, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(interior, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_reference_transform_monotone(prior, p, q):
    lo, hi = min(p, q), max(p, q)
    if hi - lo < 1e-9:
        return
    assert float(reference_transform(lo, prior)) < float(reference_transform(hi, prior))


def test_tilde_entropy_values():
    assert tilde_entropy(0.75, 0.75) == pytest.approx(1.0, abs=1e-15)
    assert tilde_entropy(1.0, 0.75) == 0.0
    # fixed derived value: binary_entropy(29/42), cross-checked against
    # log2(42) - (29 log2 29 + 13 log2 13)/42
    assert tilde_entropy(0.87, 0.75) == pytest.approx(0.8926230133850986, abs=1e-12)


def _tilde_entropy_loop(posteriors, prior):
    """Scalar reference: the reference transform and binary entropy written
    out per element with the math module."""
    out = []
    for p in posteriors:
        num = p / prior
        x = num / (num + (1.0 - p) / (1.0 - prior))
        out.append(0.0 if x <= 0.0 or x >= 1.0 else -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x)))
    return np.array(out)


@pytest.mark.parametrize("prior", [0.4, 0.75, 1e-3, 0.999])
def test_tilde_entropy_on_a_grid_matches_the_scalar_loop(prior):
    grid = np.linspace(0.0, 1.0, 2001)
    vectorised = tilde_entropy(grid, prior)
    assert vectorised.shape == grid.shape
    # np.log2 and math.log2 may round differently; a few ulps of 1.0 at most
    assert np.max(np.abs(vectorised - _tilde_entropy_loop(grid, prior))) <= 4 * np.finfo(float).eps
    assert vectorised[0] == 0.0 and vectorised[-1] == 0.0
    assert [tilde_entropy(float(b), prior) for b in grid[::250]] == list(vectorised[::250])


def test_array_beliefs_are_validated():
    assert np.array_equal(as_probability([0.0, -1e-13, 1.0 + 1e-13]), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="got 1.5"):
        tilde_entropy(np.array([0.2, 1.5]), 0.5)
    with pytest.raises(ValueError, match="interior"):
        tilde_entropy(np.array([0.2, 0.5]), 0.0)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


def sampled_envelope(f, query, grid_size):
    """Envelope of f sampled on a uniform grid: (value, supporting split)."""
    xs = np.linspace(0.0, 1.0, grid_size)
    value, atoms = envelope_from_samples(xs, [f(float(x)) for x in xs], query)
    return value, PosteriorSplit(atoms)


def test_envelope_of_convex_function_is_itself():
    value, split = sampled_envelope(lambda x: x * x, 0.3, 2001)
    assert value == pytest.approx(0.09, abs=1e-12)
    assert len(split.atoms) == 1
    assert split.atoms[0][0] == pytest.approx(0.3, abs=1e-12)


def test_envelope_piecewise_affine_convex():
    # v-shaped convex curve: 3-x left of the kink at 0.5, 2+x right of it
    value, split = sampled_envelope(lambda x: max(3.0 - x, 2.0 + x), 0.4, 2001)
    assert value == pytest.approx(2.6, abs=1e-9)
    assert split.is_plausible(0.4, tol=1e-9)
    mix = sum(w * max(3.0 - p, 2.0 + p) for p, w in split.atoms)
    assert mix == pytest.approx(2.6, abs=1e-9)


def test_envelope_tent_function():
    value, split = sampled_envelope(lambda x: min(x, 1.0 - x) * 2.0, 0.5, 2001)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert_atoms(split.atoms, ((0.0, 0.5), (1.0, 0.5)))


def test_envelope_affine_function_keeps_endpoints_only():
    # collinear samples must collapse to the chord between the endpoints
    value, split = sampled_envelope(lambda x: 1.0 + x, 0.75, 2001)
    assert value == pytest.approx(1.75, abs=1e-12)
    assert_atoms(split.atoms, ((0.0, 0.25), (1.0, 0.75)))


def test_envelope_rejects_bad_input():
    with pytest.raises(ValueError):
        envelope_from_samples(np.linspace(0.0, 0.4, 2), [0.0, 0.4], 0.5)
    with pytest.raises(ValueError):
        sampled_envelope(lambda x: float("nan"), 0.5, 11)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), interior)
def test_envelope_dominance_and_plausibility(seed, q):
    rng = np.random.default_rng(seed)
    knots = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 4)]))
    vals = rng.uniform(-1.0, 3.0, knots.shape)

    def f(x):
        return float(np.interp(x, knots, vals))

    value, split = sampled_envelope(f, q, 801)
    assert value <= f(q) + 1e-9
    assert split.is_plausible(q, tol=1e-9)
    # the split realizes the envelope value on the sampled function
    mix = sum(w * f(p) for p, w in split.atoms)
    assert value == pytest.approx(mix, abs=1e-9)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_envelope_is_midpoint_convex(seed):
    rng = np.random.default_rng(seed)
    knots = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 4)]))
    vals = rng.uniform(-1.0, 3.0, knots.shape)

    def f(x):
        return float(np.interp(x, knots, vals))

    qs = np.sort(rng.uniform(0.01, 0.99, 3))
    if qs[2] - qs[0] < 1e-6:
        return
    ev = [sampled_envelope(f, q, 801)[0] for q in qs]
    lam = (qs[2] - qs[1]) / (qs[2] - qs[0])
    assert ev[1] <= lam * ev[0] + (1 - lam) * ev[2] + 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), interior)
def test_envelope_of_convex_matches_within_grid_error(seed, q):
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)

    def f(x):
        return a * x * x + b * x + c

    grid = 801
    lip = abs(2 * a) + abs(b)
    value, _ = sampled_envelope(f, q, grid)
    assert abs(value - f(q)) <= 2.0 * lip / grid + 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(interior, interior, interior)
def test_concave_function_loses_under_any_split(prior, left, right):
    lo, hi = min(left, prior), max(right, prior)
    if hi - lo < 1e-9 or lo == hi:
        return

    def f(x):
        return math.sqrt(x + 0.1)  # concave

    w_hi = (prior - lo) / (hi - lo)
    if not (0.0 < w_hi < 1.0):
        return
    mix = (1 - w_hi) * f(lo) + w_hi * f(hi)
    assert mix <= f(prior) + 1e-12
