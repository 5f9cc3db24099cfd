"""End-to-end tests for the command-line front end."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from incentive_games import cli
from incentive_games.matrix_games import (
    EquilibriumReport,
    IncentiveScheme,
    StateOutcome,
)
from incentive_games.oracle import OracleReport
from incentive_games.scenarios import load_scenario


def run(*argv):
    return cli.main(list(argv))


def run_json(capsys, *argv):
    assert run(*argv) == 0
    return json.loads(capsys.readouterr().out)


def run_csv(capsys, *argv):
    assert run(*argv) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# solve subcommands
# ---------------------------------------------------------------------------


def test_g2_scenario_a_report(capsys):
    doc = run_json(capsys, "g2", "scenarioA")
    assert doc["game"] == "g2"
    assert doc["belief"] == 0.4
    assert doc["principal_cost"] == pytest.approx(2.6, abs=1e-9)
    assert doc["agent_cost"] == pytest.approx(2.6, abs=1e-9)
    assert doc["agent_actions"] == [0, 1]
    assert doc["scheme"]["state_dependent"] is False


def test_g3_scenario_b_report(capsys):
    doc = run_json(capsys, "g3", "scenarioB")
    assert doc["principal_cost"] == pytest.approx(1.0, abs=1e-9)
    assert doc["agent_cost"] == pytest.approx(1.75, abs=1e-9)
    assert doc["revealing"] is True
    split = {round(p, 6): w for p, w in doc["split"]}
    assert split == {0.0: pytest.approx(0.25), 1.0: pytest.approx(0.75)}


def test_g4_scenario_b_report(capsys):
    doc = run_json(capsys, "g4", "scenarioB")
    assert doc["kappa"] == 2.0
    assert doc["total_cost"] == pytest.approx(1.8809428908692696, abs=1e-9)
    assert doc["total_cost"] == pytest.approx(
        doc["gross_cost"] + doc["channel_cost"], abs=1e-9
    )


def test_g4_qg_scenario_report(capsys):
    doc = run_json(capsys, "g4", "qg_fig4")
    assert doc["game"] == "g4"
    assert doc["principal_cost"] == pytest.approx(2.3115717756571046, abs=1e-8)
    assert doc["channel_sigma_w_sq"] == pytest.approx(4.0, abs=1e-4)


def test_qg_subcommands_route_to_closed_forms(capsys):
    g1 = run_json(capsys, "g1", "qg_fig4")
    g2 = run_json(capsys, "g2", "qg_fig4")
    assert g1["principal_cost"] == pytest.approx(2.0)
    assert g2["principal_cost"] == pytest.approx(2.4)
    assert g2["agent_cost"] == pytest.approx(2.32)


def test_json_round_trip_reconstructs_equilibrium(capsys):
    """A printed report carries enough to rebuild and re-check the solution."""
    for name, game in (("scenarioA", "g1"), ("scenarioA", "g2"), ("scenarioB", "g2")):
        doc = run_json(capsys, game, name)
        scenario = load_scenario(name)
        report = EquilibriumReport(
            scheme=IncentiveScheme(np.array(doc["scheme"]["columns"])),
            agent_actions=tuple(doc["agent_actions"]),
            principal_cost=doc["principal_cost"],
            agent_cost=doc["agent_cost"],
            per_state=[StateOutcome(**o) for o in doc["per_state"]],
            belief=doc["belief"],
        )
        report.check(scenario.table, tol=1e-9)


def test_report_csv_format(capsys):
    assert run("g2", "scenarioA", "--format", "csv") == 0
    out = capsys.readouterr().out
    assert out.startswith("key,value\n")
    assert "principal_cost,2.6\n" in out


# ---------------------------------------------------------------------------
# figures and sweeps
# ---------------------------------------------------------------------------


def test_figure1_endpoints_match_degenerate_beliefs(capsys):
    header, rows = run_csv(capsys, "figure", "1", "--grid", "9")
    assert header == ["belief", "j_p1", "j_p2"]
    assert len(rows) == 9
    assert rows[0][1] == rows[0][2]  # at belief 0 information is symmetric
    assert rows[-1][1] == rows[-1][2]


def test_figure2_envelope_at_three_quarters(capsys):
    header, rows = run_csv(capsys, "figure", "2")
    assert header == ["belief", "j_a2", "j_a2_envelope"]
    at = {row[0]: row for row in rows}
    assert at[0.75][1] == pytest.approx(2.0, abs=1e-9)
    assert at[0.75][2] == pytest.approx(1.75, abs=1e-9)


def test_figure3_objective_vanishes_at_prior(capsys):
    header, rows = run_csv(capsys, "figure", "3", "--grid", "401")
    assert header == ["belief", "j_p2", "objective", "objective_envelope"]
    at = {row[0]: row for row in rows}
    assert at[0.75][2] == pytest.approx(at[0.75][1] - 2.0, abs=1e-9)
    assert all(row[3] <= row[2] + 1e-9 for row in rows)


def test_figure4_grid_shape(capsys):
    header, rows = run_csv(capsys, "figure", "4")
    assert header == ["beta", "kappa", "sigma_w_sq", "total_cost"]
    assert len(rows) == 2 * 4 * 200
    betas = sorted({row[0] for row in rows})
    kappas = sorted({row[1] for row in rows})
    assert betas == [0.5, 1.0]
    assert kappas == [0.5, 1.0, 2.0, 4.0]


def test_figure_scenario_kind_mismatch(capsys):
    assert run("figure", "4", "scenarioA") == 2
    assert run("figure", "1", "qg_fig4") == 2
    err = capsys.readouterr().err
    assert "figure 4 needs a qg scenario" in err


def test_sweep_matrix_columns(capsys):
    header, rows = run_csv(capsys, "sweep", "scenarioA", "--grid", "5")
    assert header == ["belief", "j_p1", "j_p2", "j_a2"]
    assert [row[0] for row in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert rows[2][2] == pytest.approx(3.0, abs=1e-9)


def test_sweep_qg_uses_log_spaced_channel_grid(capsys):
    header, rows = run_csv(capsys, "sweep", "qg_fig4")
    assert header == ["sigma_w_sq", "total_cost"]
    assert len(rows) == 200
    assert rows[0][0] == pytest.approx(1e-6)
    assert rows[-1][0] == pytest.approx(1e6)
    # the raw grid min sits slightly above the refined optimum
    best = min(row[1] for row in rows)
    assert 2.3115717756571046 - 1e-9 <= best < 2.3115717756571046 + 1e-3


def test_sweep_over_kappa(capsys):
    header, rows = run_csv(capsys, "sweep", "scenarioB", "--grid", "5", "--over", "kappa")
    assert header[0] == "kappa"
    totals = [row[1] for row in rows]
    assert totals == sorted(totals)  # acquisition cost grows with kappa


def test_sweep_json_format(capsys):
    doc = run_json(capsys, "sweep", "scenarioA", "--grid", "3", "--format", "json")
    assert doc["columns"][0] == "belief"
    assert len(doc["rows"]) == 3


def test_csv_outputs_are_byte_deterministic(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert run("figure", "1", "--grid", "101", "--out", str(path)) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    for path in paths:
        assert run("sweep", "qg_fig4", "--out", str(path)) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_out_flag_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run("g2", "scenarioA", "--out", str(path)) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(path.read_text())["principal_cost"] == pytest.approx(2.6)


# ---------------------------------------------------------------------------
# verification and exit codes
# ---------------------------------------------------------------------------


def test_verify_scenario_a_passes(capsys):
    assert run("verify", "scenarioA", "--grid", "201") == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_json_format(capsys):
    assert run("verify", "scenarioB", "--grid", "201", "--format", "json") == 0
    docs = json.loads(capsys.readouterr().out)
    assert all(doc["passed"] for doc in docs)
    assert {"quantity", "solver_value", "oracle_value", "tolerance"} <= set(docs[0])


def test_verify_failure_exits_4(capsys, monkeypatch):
    bad = OracleReport("rigged check", solver_value=1.0, oracle_value=2.0, tolerance=1e-9)
    monkeypatch.setattr(cli, "verify_matrix", lambda *a, **k: [bad])
    assert run("verify", "scenarioA") == 4
    assert run("g2", "scenarioA", "--verify") == 4
    assert "FAIL  rigged check" in capsys.readouterr().err


def test_solve_with_verify_passes(capsys):
    assert run("g2", "scenarioA", "--verify", "--grid", "201") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["principal_cost"] == pytest.approx(2.6)


def test_unknown_scenario_exits_2(capsys):
    assert run("g1", "nosuch") == 2
    err = capsys.readouterr().err
    assert "nosuch:1:" in err
    assert "scenarioA" in err  # error lists the bundled names


def test_scenario_errors_carry_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{\n  "kind": "matrix",\n  "prior": 1.5,\n'
        '  "cp": [[[5,5],[5,1]],[[5,1],[5,5]]],\n'
        '  "ca": [[[4,3],[2,3]],[[2,3],[4,2]]]\n}\n'
    )
    assert run("g2", str(path)) == 2
    err = capsys.readouterr().err
    assert f"{path}:3:" in err
    assert "prior" in err


def test_beta_grid_errors_carry_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad_qg.json"
    path.write_text(
        '{\n  "kind": "qg",\n  "beta": 1.0,\n  "z0": 1.0,\n  "sigma0_sq": 4.0,\n'
        '  "beta_grid": [-1.0],\n  "kappa_grid": [1.0]\n}\n'
    )
    assert run("figure", "4", str(path)) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:6: beta must be")
    path.write_text(path.read_text().replace("[-1.0]", "[1.0]").replace('"kappa_grid": [1.0]', '"kappa_grid": [1.0, -2.0]'))
    assert run("figure", "4", str(path)) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:7: kappa must be")


def test_beta_whose_fourth_power_overflows_exits_2(tmp_path, capsys):
    path = tmp_path / "huge_beta.json"
    path.write_text(json.dumps({"kind": "qg", "beta": 1e200, "z0": 1, "sigma0_sq": 4, "kappa": 1}))
    for command in ("g1", "g2", "g3", "g4", "verify"):
        assert run(command, str(path)) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:1: beta must be")


def test_beta_whose_policy_overflows_exits_2(tmp_path, capsys):
    path = tmp_path / "tiny_beta.json"
    path.write_text(json.dumps({"kind": "qg", "beta": 5e-324, "z0": 1, "sigma0_sq": 4, "kappa": 1}))
    for command in ("g1", "g2", "g3", "g4", "verify"):
        assert run(command, str(path)) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:1: beta must be at least")


def test_smallest_accepted_beta_prints_finite_policy_json(tmp_path, capsys):
    path = tmp_path / "least_beta.json"
    path.write_text(json.dumps({"kind": "qg", "beta": 5.56268464626801e-309, "z0": 1, "sigma0_sq": 4, "kappa": 1}))
    assert run("g1", str(path)) == 0

    def reject(constant):
        raise AssertionError(f"non-finite {constant} in the report")

    policy = json.loads(capsys.readouterr().out, parse_constant=reject)["policy"]
    assert policy["q"] > 1e308 and policy["intercept_slope"] < -1e308


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("doc", [
    {"kind": "matrix", "cp": [[[5, 5], [5, 1]], [[5, 1], [5, 5]]],
     "ca": [[[4, 3], [2, 3]], [[2, 3], [4, 2]]], "prior": 0.4},
    {"kind": "qg", "beta": 1.0, "z0": 1.0, "sigma0_sq": 4.0},
])
def test_kappa_sweep_whose_range_overflows_exits_2(tmp_path, capsys, doc):
    """The sweep runs over [0, 2 * kappa]; at kappa = 1e308 that end is inf."""
    path = tmp_path / "huge_kappa.json"
    path.write_text(json.dumps({**doc, "kappa": 1e308}))
    assert run("sweep", str(path), "--over", "kappa", "--grid", "3") == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:1: kappa must be at most")


@pytest.mark.parametrize("beta,kappa", [(1.0, 0.0), (0.05, 1e-9)])
def test_verify_qg_at_free_and_nearly_free_information(tmp_path, capsys, beta, kappa):
    """At kappa = 0 the solver buys channel 0; at kappa = 1e-9 and beta =
    0.05 it buys about 2.9e-10. Both lie below the oracle's argmin window."""
    path = tmp_path / "cheap_channel.json"
    path.write_text(json.dumps({"kind": "qg", "beta": beta, "z0": 1, "sigma0_sq": 4, "kappa": kappa}))
    assert run("verify", str(path)) == 0
    assert capsys.readouterr().out.endswith("5/5 checks passed\n")


def _four_by_four(tmp_path, prior: float):
    rng = np.random.default_rng(4)
    doc = {
        "kind": "matrix",
        "cp": rng.integers(0, 6, (2, 4, 4)).tolist(),
        "ca": rng.integers(0, 6, (2, 4, 4)).tolist(),
        "prior": prior,
    }
    path = tmp_path / "four_by_four.json"
    path.write_text(json.dumps(doc))
    return path


def test_capacity_limit_is_a_solver_error(tmp_path, capsys):
    # every 4x4 response-pair polytope has C(22, 12) = 646646 candidate bases
    path = _four_by_four(tmp_path, 0.5)
    assert run("g3", str(path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:")
    assert "646646 bases" in err


def test_lp_path_answers_where_the_vertex_profiles_cannot(tmp_path, capsys):
    # g1, g2 and g3 at a degenerate prior solve LPs, not the vertex profiles
    # that a 4x4 table exceeds, so they still answer
    path = _four_by_four(tmp_path, 0.0)
    for command in ("g1", "g2", "g3"):
        assert run_json(capsys, command, str(path))["game"] == command


def test_explicit_grid_sets_qg_sweep_length(capsys):
    # the qg defaults (200 variances, 41 kappas) apply only without --grid
    header, rows = run_csv(capsys, "sweep", "qg_fig4", "--grid", "2001")
    assert len(rows) == 2001
    header, rows = run_csv(capsys, "sweep", "qg_fig4", "--over", "kappa", "--grid", "2001")
    assert len(rows) == 2001


def test_bad_grid_exits_2(capsys):
    assert run("sweep", "scenarioA", "--grid", "1") == 2
    assert "--grid" in capsys.readouterr().err


def test_argparse_errors_exit_2(capsys):
    assert run("g2") == 2
    assert run("sweep", "scenarioA", "--over", "bogus") == 2
    assert run("figure", "7") == 2


@pytest.mark.parametrize("command", ["verify", "g1"])
def test_seed_flag_is_gone(capsys, command):
    """`verify` draws nothing, so no command takes a seed."""
    assert run(command, "qg_fig4", "--seed", "7") == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert run("--help") == 0
    assert "incentive-games" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fuzzed scenario files
# ---------------------------------------------------------------------------

@st.composite
def _matrix_docs(draw):
    """Matrix scenarios with tables up to 2x3. About half are valid; the
    rest carry one defect: a ragged or mismatched shape, a non-finite or
    non-numeric entry, or a bad prior or kappa."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    entry = st.one_of(st.integers(0, 5), st.floats(-5.0, 5.0))
    mats = [[draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)] for _ in range(4)]
    doc = {"kind": "matrix", "cp": mats[:2], "ca": mats[2:], "prior": draw(st.floats(0.0, 1.0))}
    if draw(st.booleans()):
        doc["kappa"] = draw(st.floats(0.0, 4.0))
    defect = draw(st.sampled_from(["none"] * 6 + ["row", "cell", "prior", "kappa"]))
    if defect == "row":
        mats[draw(st.integers(0, 3))].append([1.0] * n)
    elif defect == "cell":
        mats[draw(st.integers(0, 3))][0][0] = draw(st.sampled_from([math.nan, math.inf, "1", None]))
    elif defect == "prior":
        doc["prior"] = draw(st.sampled_from([-0.25, 1.5, math.nan, "x"]))
    elif defect == "kappa":
        doc["kappa"] = draw(st.sampled_from([-1.0, math.inf]))
    return doc


@st.composite
def _qg_docs(draw):
    """Quadratic-Gaussian scenarios with beta, z0, sigma0_sq and kappa drawn
    over wide floats (0, 1e-12 and 1e200 among them); about a third carry
    an invalid value in one field."""
    wide = st.one_of(
        st.sampled_from([0.0, 1e-12, 1.0, 1e200]),
        st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
    )
    doc = {"kind": "qg", "beta": draw(wide), "z0": draw(wide) * draw(st.sampled_from([1, -1])),
           "sigma0_sq": draw(wide), "kappa": draw(wide)}
    if draw(st.integers(0, 2)) == 0:
        doc[draw(st.sampled_from(["beta", "z0", "sigma0_sq", "kappa"]))] = draw(
            st.sampled_from([-1.0, math.nan, math.inf, -math.inf, "1", None])
        )
    return doc


_FOUR_BY_FOUR = {
    "kind": "matrix",
    "cp": np.random.default_rng(4).integers(0, 6, (2, 4, 4)).tolist(),
    "ca": np.random.default_rng(5).integers(0, 6, (2, 4, 4)).tolist(),
    "prior": 0.5,
}


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@settings(max_examples=160, deadline=None, derandomize=True)
@given(st.one_of(
    st.tuples(st.sampled_from(["g1", "g2", "g3", "g4", "verify"]), _matrix_docs()),
    st.tuples(st.sampled_from(["g1", "g2", "g3", "g4", "sweep"]), _qg_docs()),
))
@example(("g3", _FOUR_BY_FOUR))
@example(("verify", _FOUR_BY_FOUR))
def test_fuzzed_scenarios_exit_with_a_documented_code(scenario_path, case):
    command, doc = case
    scenario_path.write_text(json.dumps(doc))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = run(command, str(scenario_path), "--grid", "51")
    assert code in (0, 2, 3, 4)


def test_verify_on_a_3x3_table_stops_at_the_oracle_size_limit(tmp_path, capsys):
    rng = np.random.default_rng(4)
    doc = {
        "kind": "matrix",
        "cp": rng.uniform(0, 5, (2, 3, 3)).tolist(),
        "ca": rng.uniform(0, 5, (2, 3, 3)).tolist(),
        "prior": 0.5,
    }
    path = tmp_path / "three_by_three.json"
    path.write_text(json.dumps(doc))
    assert run("verify", str(path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: oracle_g3_by_obedience")
    assert "size limit" in err
