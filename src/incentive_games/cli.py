"""Command-line front end.

Subcommands:

- ``g1 | g2 | g3 | g4 SCENARIO``: solve one game and print the report
  (JSON by default).
- ``sweep SCENARIO``: sweep the natural free parameter (belief for matrix
  scenarios, channel noise for quadratic-Gaussian ones, or ``--over kappa``)
  and emit CSV.
- ``figure {1,2,3,4} [SCENARIO]``: emit one of the four bundled plot-ready
  data series (CSV): 1 = principal cost under full vs asymmetric information
  across beliefs; 2 = agent cost and its convexification; 3 = the acquisition
  objective and its convex envelope; 4 = the channel-cost landscape.
- ``verify SCENARIO``: run the brute-force oracle suite against the solvers.

Exit codes: 0 success, 2 scenario/validation error, 3 internal solver error,
4 verification failure. All numbers are printed with 12 significant digits
and all outputs are deterministic for a fixed scenario.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from incentive_games.belief_engine import lower_hull_indices, tilde_entropy
from incentive_games.matrix_games import (
    AcquisitionReport,
    EquilibriumReport,
    PersuasionReport,
    SolverError,
    solve_g1,
    solve_g2,
    solve_g3,
    solve_g4,
    value_curves,
)
from incentive_games.oracle import verify_matrix, verify_qg
from incentive_games.qg_games import (
    QGParams,
    QGReport,
    qg_g1,
    qg_g2,
    qg_g3,
    qg_g4_cost,
    qg_g4_optimize,
)
from incentive_games.scenarios import Scenario, ScenarioError, load_scenario

# --grid defaults: beliefs (or kappas of a matrix kappa sweep), then the
# channel variances and the kappas of a qg sweep
BELIEF_GRID_POINTS = 2001
SIGMA_GRID_POINTS = 200
QG_KAPPA_POINTS = 41


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round12(obj)
    return obj


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _csv(columns: list[str], rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _equilibrium_dict(game: str, r: EquilibriumReport) -> dict:
    return {
        "game": game,
        "belief": r.belief,
        "principal_cost": r.principal_cost,
        "agent_cost": r.agent_cost,
        "agent_actions": list(r.agent_actions),
        "scheme": {
            "state_dependent": r.scheme.state_dependent,
            "columns": r.scheme.columns,
        },
        "per_state": [asdict(o) for o in r.per_state],
    }


def _persuasion_dict(r: PersuasionReport) -> dict:
    return {
        "game": "g3",
        "prior": r.prior,
        "principal_cost": r.principal_cost,
        "agent_cost": r.agent_cost,
        "revealing": r.revealing,
        "split": [[p, w] for p, w in r.split.atoms],
        "recommendations": [
            {
                "group": list(rec.group),
                "scheme": rec.scheme,
                "prob_given_state": list(rec.prob_given_state),
                "posterior": rec.posterior,
            }
            for rec in r.recommendation_distribution
        ],
    }


def _acquisition_dict(r: AcquisitionReport) -> dict:
    return {
        "game": "g4",
        "prior": r.prior,
        "kappa": r.kappa,
        "grid_size": r.grid_size,
        "total_cost": r.total_cost,
        "gross_cost": r.gross_cost,
        "channel_cost": r.channel_cost,
        "agent_cost": r.agent_cost,
        "split": [[p, w] for p, w in r.split.atoms],
    }


def _qg_dict(r: QGReport) -> dict:
    doc = {
        "game": r.game.lower(),
        "principal_cost": r.principal_cost,
        "agent_cost": r.agent_cost,
        "policy": asdict(r.policy),
    }
    if r.channel is not None:
        doc["channel_sigma_w_sq"] = r.channel
    if r.posterior is not None:
        doc["posterior"] = asdict(r.posterior)
    if r.revelation is not None:
        doc["revelation"] = r.revelation
        doc["indifferent"] = r.indifferent
    return doc


def _report_csv(doc: dict) -> str:
    """Flat key,value rows for scalar fields (nested structures skipped)."""
    rows = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            rows.append(f"{key},{_fmt(value)}")
        elif isinstance(value, (bool, str)):
            rows.append(f"{key},{value}")
    return "key,value\n" + "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _solve(scenario: Scenario, game: str, grid: int) -> dict:
    if scenario.kind == "matrix":
        table, prior = scenario.table, scenario.prior
        if game == "g1":
            return _equilibrium_dict("g1", solve_g1(table, prior))
        if game == "g2":
            return _equilibrium_dict("g2", solve_g2(table, prior))
        if game == "g3":
            return _persuasion_dict(solve_g3(table, prior))
        return _acquisition_dict(solve_g4(table, prior, scenario.kappa, grid))
    p = scenario.params
    if game == "g1":
        return _qg_dict(qg_g1(p))
    if game == "g2":
        return _qg_dict(qg_g2(p))
    if game == "g3":
        return _qg_dict(qg_g3(p))
    return _qg_dict(qg_g4_optimize(p))


def _sigma_grid(n: int) -> np.ndarray:
    return np.logspace(-6.0, 6.0, n)


def _full_information_line(table, beliefs: np.ndarray) -> np.ndarray:
    """The g1 principal cost across beliefs: affine between the two states."""
    v1, v2 = (o.principal_cost for o in solve_g1(table, 0.5).per_state)
    return beliefs * v1 + (1.0 - beliefs) * v2


def _kappa_range(scenario: Scenario, points: int) -> np.ndarray:
    """The kappas of a kappa sweep: [0, max(4, 2 * kappa)]."""
    top = max(4.0, 2.0 * scenario.kappa)
    if not np.isfinite(top):
        raise ScenarioError(
            f"{scenario.source}:1: kappa must be at most about 9e307 to sweep over kappa "
            f"(the sweep runs to 2 * kappa), not {scenario.kappa:g}"
        )
    return np.linspace(0.0, top, points)


def _sweep(scenario: Scenario, over: str | None, grid: int | None) -> tuple[list[str], list]:
    if scenario.kind == "matrix":
        over = over or "belief"
        if over == "belief":
            beliefs, jp2, ja2 = value_curves(scenario.table, grid)
            jp1 = _full_information_line(scenario.table, beliefs)
            return ["belief", "j_p1", "j_p2", "j_a2"], zip(beliefs, jp1, jp2, ja2)
        if over == "kappa":
            kappas = _kappa_range(scenario, grid)
            rows = []
            for k in kappas:
                r = solve_g4(scenario.table, scenario.prior, float(k))
                rows.append((k, r.total_cost, r.gross_cost, r.channel_cost, r.agent_cost))
            return ["kappa", "total_cost", "gross_cost", "channel_cost", "agent_cost"], rows
        raise ScenarioError(f"{scenario.source}:1: matrix scenarios sweep over belief or kappa, not {over!r}")
    over = over or "sigma_w"
    p = scenario.params
    if over == "sigma_w":
        sigmas = _sigma_grid(SIGMA_GRID_POINTS if grid is None else grid)
        rows = [(s, qg_g4_cost(p, float(s))) for s in sigmas]
        return ["sigma_w_sq", "total_cost"], rows
    if over == "kappa":
        kappas = _kappa_range(scenario, QG_KAPPA_POINTS if grid is None else grid)
        rows = []
        for k in kappas:
            r = qg_g4_optimize(QGParams(p.beta, p.z0, p.sigma0_sq, float(k), p.sigma_w_sq))
            rows.append((k, r.channel, r.principal_cost, r.agent_cost))
        return ["kappa", "channel_sigma_w_sq", "total_cost", "agent_cost"], rows
    raise ScenarioError(f"{scenario.source}:1: qg scenarios sweep over sigma_w or kappa, not {over!r}")


def _hull_curve(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    idx = lower_hull_indices(xs, ys)
    return np.interp(xs, xs[idx], ys[idx])


_FIGURE_DEFAULT = {1: "scenarioA", 2: "scenarioB", 3: "scenarioB", 4: "qg_fig4"}


def _figure(which: int, scenario: Scenario, grid: int) -> tuple[list[str], list]:
    if which in (1, 2, 3) and scenario.kind != "matrix":
        raise ScenarioError(f"{scenario.source}:1: figure {which} needs a matrix scenario")
    if which == 4 and scenario.kind != "qg":
        raise ScenarioError(f"{scenario.source}:1: figure 4 needs a qg scenario")
    if which == 1:
        beliefs, jp2, _ = value_curves(scenario.table, grid)
        return ["belief", "j_p1", "j_p2"], zip(beliefs, _full_information_line(scenario.table, beliefs), jp2)
    if which == 2:
        beliefs, _, ja2 = value_curves(scenario.table, grid)
        return ["belief", "j_a2", "j_a2_envelope"], zip(beliefs, ja2, _hull_curve(beliefs, ja2))
    if which == 3:
        if not (0.0 < scenario.prior < 1.0):
            raise ScenarioError(f"{scenario.source}:1: figure 3 needs an interior prior")
        beliefs, jp2, _ = value_curves(scenario.table, grid)
        objective = jp2 - scenario.kappa * tilde_entropy(beliefs, scenario.prior)
        return (
            ["belief", "j_p2", "objective", "objective_envelope"],
            zip(beliefs, jp2, objective, _hull_curve(beliefs, objective)),
        )
    p = scenario.params
    betas = scenario.beta_grid or (p.beta,)
    kappas = scenario.kappa_grid or (p.kappa,)
    sigmas = _sigma_grid(SIGMA_GRID_POINTS)
    rows = []
    for beta in betas:
        for kappa in kappas:
            q = QGParams(beta=beta, z0=p.z0, sigma0_sq=p.sigma0_sq, kappa=kappa)
            rows.extend((beta, kappa, s, qg_g4_cost(q, float(s))) for s in sigmas)
    return ["beta", "kappa", "sigma_w_sq", "total_cost"], rows


def _verification(scenario: Scenario, grid: int) -> list:
    if scenario.kind == "matrix":
        return verify_matrix(scenario.table, scenario.prior, grid, scenario.kappa)
    return verify_qg(scenario.params)


def _verification_text(reports) -> str:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.quantity}: solver={_fmt(r.solver_value)} "
            f"oracle={_fmt(r.oracle_value)} tol={_fmt(r.tolerance)}"
        )
    failed = sum(not r.passed for r in reports)
    lines.append(f"{len(reports) - failed}/{len(reports)} checks passed")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incentive-games",
        description="Solve two-player incentive-design games under four information regimes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, scenario_optional: bool = False):
        if scenario_optional:
            p.add_argument("scenario", nargs="?", help="scenario file or bundled name")
        else:
            p.add_argument("scenario", help="scenario file or bundled name")
        p.add_argument("--grid", type=int, default=None, metavar="N",
                       help=f"matrix scenarios: belief grid size, or kappas of a kappa sweep "
                            f"(default {BELIEF_GRID_POINTS}); qg sweeps: channel variances "
                            f"(default {SIGMA_GRID_POINTS}) or kappas (default {QG_KAPPA_POINTS})")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="output format (default: json for reports, csv for series)")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    for game in ("g1", "g2", "g3", "g4"):
        p = sub.add_parser(game, help=f"solve {game} and print the report")
        common(p)
        p.add_argument("--verify", action="store_true",
                       help="also run the oracle suite; exit 4 on any failure")

    p = sub.add_parser("sweep", help="sweep a parameter and emit CSV")
    common(p)
    p.add_argument("--over", choices=("belief", "sigma_w", "kappa"), default=None,
                   help="sweep variable (default: belief for matrix, sigma_w for qg)")

    p = sub.add_parser("figure", help="emit a bundled plot-ready data series")
    p.add_argument("which", type=int, choices=(1, 2, 3, 4))
    common(p, scenario_optional=True)

    p = sub.add_parser("verify", help="run the oracle suite against the solvers")
    common(p)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dispatch(args) -> int:
    if args.command == "figure" and args.scenario is None:
        args.scenario = _FIGURE_DEFAULT[args.which]
    scenario = load_scenario(args.scenario)
    if args.grid is not None and args.grid < 2:
        raise ScenarioError(f"{scenario.source}:1: --grid must be at least 2")
    if args.grid is None and scenario.kind == "matrix":
        args.grid = BELIEF_GRID_POINTS

    if args.command in ("g1", "g2", "g3", "g4"):
        doc = _jsonable(_solve(scenario, args.command, args.grid))
        if args.verify:
            reports = _verification(scenario, args.grid)
            if not all(r.passed for r in reports):
                sys.stderr.write(_verification_text(reports))
                return 4
        if args.format == "csv":
            _emit(_report_csv(doc), args.out)
        else:
            _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        return 0

    if args.command in ("sweep", "figure"):
        if args.command == "sweep":
            columns, rows = _sweep(scenario, args.over, args.grid)
        else:
            columns, rows = _figure(args.which, scenario, args.grid)
        if args.format == "json":
            doc = {"columns": columns, "rows": [[_round12(v) for v in row] for row in rows]}
            _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        else:
            _emit(_csv(columns, rows), args.out)
        return 0

    # verify
    reports = _verification(scenario, args.grid)
    if args.format == "json":
        docs = [_jsonable(asdict(r)) for r in reports]
        _emit(json.dumps(docs, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(_verification_text(reports), args.out)
    return 0 if all(r.passed for r in reports) else 4


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on bad flags or --help
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:     # ScenarioError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (SolverError, RuntimeError) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
