"""Acceptance gate: every shipped guarantee, one test each, pinned tolerances.

Each test prints a single pass/fail line under ``pytest -v``. The expected
values are frozen reference numbers (hand-derived or produced by the
brute-force oracles in ``incentive_games.oracle``); the tolerances are part
of the contract and must not be loosened to make a failing build pass.
"""

import math
import time

import numpy as np
import pytest
from pytest import approx

from incentive_games import cli
from incentive_games.belief_engine import envelope_from_samples
from incentive_games.matrix_games import (
    CostTable,
    agent_value_curve,
    solve_g1,
    solve_g2,
    solve_g3,
    solve_g4,
    value_curves,
)
from incentive_games.oracle import collect_xi, oracle_qg_montecarlo
from incentive_games.qg_games import (
    QGParams,
    disclosure_coefficient,
    qg_g1,
    qg_g2,
    qg_g3,
    qg_g4_cost,
    qg_g4_optimize,
)


@pytest.fixture(scope="module")
def table_suite(table_a, table_b):
    """The two benchmark tables plus 50 random ones (40 2x2, 10 3x3)."""
    rng = np.random.default_rng(773)

    def draw(n):
        return CostTable(
            cp=(rng.uniform(0.0, 5.0, (n, n)), rng.uniform(0.0, 5.0, (n, n))),
            ca=(rng.uniform(0.0, 5.0, (n, n)), rng.uniform(0.0, 5.0, (n, n))),
        )

    return [table_a, table_b] + [draw(2) for _ in range(40)] + [draw(3) for _ in range(10)]


def _full_information_line(table):
    """Per-state full-information principal costs (v1, v2); the informed
    principal's expected cost is the belief-weighted line between them."""
    base = solve_g1(table, 0.5)
    return tuple(o.principal_cost for o in base.per_state)


def test_criterion_01_full_information_benchmark(table_a):
    start = time.perf_counter()
    report = solve_g1(table_a, 0.4)
    elapsed = time.perf_counter() - start
    assert report.principal_cost == approx(1.0, abs=1e-8)
    assert report.agent_cost == approx(3.0, abs=1e-8)
    np.testing.assert_allclose(
        report.scheme.for_state(0), [[0.5, 0.0], [0.5, 1.0]], atol=1e-8
    )
    np.testing.assert_allclose(
        report.scheme.for_state(1), [[0.0, 1.0], [1.0, 0.0]], atol=1e-8
    )
    assert elapsed < 0.1


def test_criterion_02_state_independent_benchmark(table_a):
    report = solve_g2(table_a, 0.4)
    assert report.principal_cost == approx(2.6, abs=1e-8)
    assert report.agent_cost == approx(2.6, abs=1e-8)
    np.testing.assert_allclose(
        report.scheme.columns, [[0.0, 1.0], [1.0, 0.0]], atol=1e-8
    )


def test_criterion_03_price_of_ignorance(table_suite):
    for table in table_suite:
        beliefs, jp2 = value_curves(table, 2001)[:2]
        v1, v2 = _full_information_line(table)
        jp1 = beliefs * v1 + (1.0 - beliefs) * v2
        assert np.all(jp1 <= jp2 + 1e-8)


def test_criterion_04_concavity_and_series_endpoints(table_suite, tmp_path):
    for table in table_suite:
        _, jp2 = value_curves(table, 2001)[:2]
        assert np.all(jp2[1:-1] >= (jp2[:-2] + jp2[2:]) / 2.0 - 1e-8)
    out = tmp_path / "series.csv"
    assert cli.main(["figure", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    v1, v2 = _full_information_line(table_suite[0])
    for row, value in ((rows[0], v2), (rows[-1], v1)):
        assert float(row[1]) == approx(value, abs=1e-8)  # informed line
        assert float(row[2]) == approx(value, abs=1e-8)  # uninformed curve


def test_criterion_05_persuasion_piecewise_value(table_a):
    for mu in np.linspace(0.0, 1.0, 101):
        expected = 3.0 - mu if mu <= 0.5 else 2.0 + mu
        assert solve_g3(table_a, float(mu)).agent_cost == approx(expected, abs=1e-6)
    assert solve_g3(table_a, 0.4).revealing is False


def test_criterion_06_persuasion_split_benchmark(table_b):
    report = solve_g3(table_b, 0.75)
    assert report.agent_cost == approx(1.75, abs=1e-6)
    assert report.principal_cost == approx(1.0, abs=1e-6)
    atoms = report.split.atoms
    assert len(atoms) == 2
    weight_at = lambda q: sum(w for p, w in atoms if abs(p - q) <= 1e-6)
    assert weight_at(0.0) == approx(0.25, abs=1e-6)
    assert weight_at(1.0) == approx(0.75, abs=1e-6)
    baseline = solve_g2(table_b, 0.75)
    assert baseline.principal_cost == approx(2.0, abs=1e-6)
    assert baseline.agent_cost == approx(2.0, abs=1e-6)


def test_criterion_07_vertex_group_reproduction(table_a):
    """Vertices of the four response-pair polytopes of table A, 1/4/3/3.

    Write the scheme as gamma = [[a, b], [1 - a, 1 - b]]. The agent's costs
    are 2 + 2a (action 0) and 3 (action 1) in state 0, and 4 - 2a and 2 + b
    in state 1. Weak best responses give the polytopes:

    - (0, 0): a <= 1/2 and b >= 2 - 2a, the single point (1/2, 1);
    - (0, 1): a <= 1/2 (b <= 2 - 2a always holds), the rectangle
      [0, 1/2] x [0, 1];
    - (1, 0): a >= 1/2 and b >= 2 - 2a, the triangle (1/2, 1), (1, 0), (1, 1);
    - (1, 1): a >= 1/2 and b <= 2 - 2a, the triangle (1/2, 0), (1/2, 1), (1, 0).

    For example gamma = [[1, 1], [0, 0]] makes (1, 0) the strict best
    responses (4 > 3 and 2 < 3), so it is a vertex of group (1, 0) under any
    tie-break rule.
    """
    listing = {
        (0, 0): [[[0.5, 1.0], [0.5, 0.0]]],
        (0, 1): [
            [[0.0, 0.0], [1.0, 1.0]],
            [[0.0, 1.0], [1.0, 0.0]],
            [[0.5, 0.0], [0.5, 1.0]],
            [[0.5, 1.0], [0.5, 0.0]],
        ],
        (1, 0): [
            [[0.5, 1.0], [0.5, 0.0]],
            [[1.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0], [0.0, 0.0]],
        ],
        (1, 1): [
            [[0.5, 0.0], [0.5, 1.0]],
            [[0.5, 1.0], [0.5, 0.0]],
            [[1.0, 0.0], [0.0, 1.0]],
        ],
    }
    xi = collect_xi(table_a)

    def keys(mats):
        return {tuple(round(x, 9) for x in np.asarray(m, float).ravel()) for m in mats}

    problems = []
    for group, mats in sorted(listing.items()):
        got, want = keys(xi[group]), keys(mats)
        if got != want:
            problems.append(
                f"group {group}: {len(got - want)} extra, {len(want - got)} missing"
            )
    assert not problems, "vertex groups differ from the reference listing: " + "; ".join(problems)


def test_criterion_08_acquisition_benchmark(table_b):
    """Total cost, split location, and agent cost for the priced-channel game.

    By hand on table B, with p the belief in state 0: the principal's g2 cost
    is jp2(p) = min(1 + 3.95p, 5 - 4p), induced by responses (0, 1) below
    p = 4/7.95 and (1, 1) above it, so the agent's g2 cost is ja2(p) = 1 + p
    below that point and 2 above it. The channel costs kappa * (1 - E h~),
    with h~ the entropy of the posterior moved to a uniform reference prior.
    Minimising E jp2 + kappa * (1 - E h~) over two-atom splits of the prior
    0.75 at kappa = 2 gives the atoms 0.0114 and 0.8342 (weight 0.8977), a
    total of 1.8809 and an agent cost of 1.8989.
    """
    problems = []

    def check(name, got, want, tol):
        if not abs(got - want) <= tol:
            problems.append(f"{name}: got {got:.6g}, want {want} +/- {tol}")

    report = solve_g4(table_b, 0.75, 2.0)
    check("total cost", report.total_cost, 1.88, 0.02)
    atoms = sorted(report.split.atoms)
    if len(atoms) == 2:
        check("low posterior atom", atoms[0][0], 0.01, 0.02)
        check("high posterior atom", atoms[1][0], 0.834, 0.02)
    else:
        problems.append(f"expected a two-point split, got {len(atoms)} atoms")
    check("agent cost", report.agent_cost, 1.899, 0.02)

    def ja2(p):
        return 1.0 + p if p < 4.0 / 7.95 else 2.0

    check("agent cost against closed-form ja2", report.agent_cost,
          sum(w * ja2(p) for p, w in atoms), 1e-9)

    totals = [solve_g4(table_b, 0.75, k).total_cost for k in (0.0, 0.5, 1.0, 2.0, 4.0, 1e6)]
    if not all(a <= b + 1e-12 for a, b in zip(totals, totals[1:])):
        problems.append(f"total cost not monotone in the information price: {totals}")
    check(
        "prohibitive-price limit",
        totals[-1],
        solve_g2(table_b, 0.75).principal_cost,
        1e-4,
    )
    assert not problems, "; ".join(problems)


def test_criterion_09_persuasion_envelope_equivalence(table_suite):
    start = time.perf_counter()
    rng = np.random.default_rng(4421)
    for table in table_suite[2:]:
        xs, ys = agent_value_curve(table, 2001)
        lipschitz = float(np.max(np.abs(np.diff(ys)))) * 2000.0
        tol = 2.0 * lipschitz / 2000.0 + 1e-12
        for prior in rng.uniform(0.0, 1.0, 25):
            lp_value = solve_g3(table, float(prior)).agent_cost
            grid_value, _ = envelope_from_samples(xs, ys, float(prior))
            assert abs(lp_value - grid_value) <= tol
    assert time.perf_counter() - start < 60.0


def test_criterion_10_qg_closed_forms():
    betas = np.unique(np.concatenate([np.geomspace(1e-4, 20.0, 200), np.linspace(0.01, 20.0, 200)]))
    for beta in betas:
        p = QGParams(float(beta), 1.0, 4.0)
        assert qg_g2(p).principal_cost - qg_g1(p).principal_cost >= -1e-12
    pinch = QGParams(math.sqrt(3.0) - 1.0, 1.0, 4.0)
    assert qg_g2(pinch).principal_cost - qg_g1(pinch).principal_cost == approx(0.0, abs=1e-10)
    assert disclosure_coefficient(1.0) == approx(-0.18, abs=1e-12)
    assert qg_g3(QGParams(1.0, 1.0, 4.0)).revelation == "full"
    assert disclosure_coefficient(0.5) == approx(0.2082, abs=1e-4)
    assert qg_g3(QGParams(0.5, 1.0, 4.0)).revelation == "none"
    assert disclosure_coefficient(1e-6) == approx(1.0, abs=1e-4)
    assert disclosure_coefficient(1e6) == approx(-5.0 / 9.0, abs=1e-4)


def test_criterion_11_qg_montecarlo():
    start = time.perf_counter()
    p = QGParams(1.0, 1.0, 4.0)
    for game, expected in (("G1", 2.0), ("G2", 2.4)):
        report = oracle_qg_montecarlo(p, game, n_samples=1_000_000)
        assert report.solver_value == approx(expected, abs=1e-9)
        assert report.passed, (
            f"{report.quantity}: closed form {report.solver_value} vs sampled "
            f"{report.oracle_value} +/- {report.tolerance}"
        )
    assert time.perf_counter() - start < 10.0


def test_criterion_12_qg_acquisition(tmp_path):
    p = QGParams(1.0, 1.0, 4.0, kappa=1.0)
    assert qg_g4_cost(p, 1e12) == approx(qg_g2(p).principal_cost, abs=1e-5)
    free = qg_g4_optimize(QGParams(1.0, 1.0, 4.0, kappa=0.0))
    assert free.principal_cost == approx(qg_g1(p).principal_cost, abs=1e-5)

    out = tmp_path / "landscape.csv"
    assert cli.main(["figure", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,kappa,sigma_w_sq,total_cost"
    combos = {tuple(float(v) for v in line.split(",")[:2]) for line in lines[1:]}
    assert {(0.5, 0.5), (0.5, 2.0), (1.0, 0.5), (1.0, 2.0)} <= combos

    dense = np.logspace(-6.0, 6.0, 100_001)
    for beta in (0.5, 1.0):
        for kappa in (0.5, 2.0):
            q = QGParams(beta, 1.0, 4.0, kappa)
            solved = qg_g4_optimize(q)
            costs = [qg_g4_cost(q, float(s)) for s in dense]
            grid_argmin = float(dense[int(np.argmin(costs))])
            assert abs(math.log10(solved.channel) - math.log10(grid_argmin)) <= 1e-4
