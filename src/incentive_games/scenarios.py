"""Scenario files: the JSON input format of the command-line front end.

A scenario is a single JSON object. Matrix form:

    {"kind": "matrix",
     "cp": [[[5, 5], [5, 1]], [[5, 1], [5, 5]]],   # one m-by-n matrix per state
     "ca": [[[4, 3], [2, 3]], [[2, 3], [4, 2]]],
     "prior": 0.4,
     "kappa": 1.0}

Quadratic-Gaussian form:

    {"kind": "qg", "beta": 1.0, "z0": 1.0, "sigma0_sq": 4.0, "kappa": 1.0,
     "sigma_w_sq": 4.0,                  # optional, defaults to infinity
     "beta_grid": [0.5, 1.0],            # optional, used by figure 4
     "kappa_grid": [0.5, 1.0, 2.0, 4.0]}

Three scenarios ship with the package and can be named instead of a path:
``scenarioA`` and ``scenarioB`` (the two matrix benchmarks) and ``qg_fig4``
(the channel-cost landscape study). Validation errors carry the offending
file and line so they can be jumped to from a terminal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from incentive_games.matrix_games import CostTable
from incentive_games.qg_games import QGParams

BUNDLED = {
    "scenarioA": "scenario_a.json",
    "scenarioB": "scenario_b.json",
    "qg_fig4": "qg_fig4.json",
}


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate."""


@dataclass(frozen=True)
class Scenario:
    kind: str
    source: str
    table: CostTable | None = None
    prior: float = 0.5
    kappa: float = 0.0
    params: QGParams | None = None
    beta_grid: tuple[float, ...] = ()
    kappa_grid: tuple[float, ...] = ()


def _line_of(text: str, key: str) -> int:
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return 1


def _fail(source: str, text: str, key: str, message: str) -> None:
    raise ScenarioError(f"{source}:{_line_of(text, key)}: {message}")


def _number(doc: dict, source: str, text: str, key: str, default=None) -> float:
    if key not in doc:
        if default is not None:
            return default
        _fail(source, text, "kind", f"missing required field {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(source, text, key, f"{key!r} must be a number")
    return float(value)


def _number_list(doc: dict, source: str, text: str, key: str) -> tuple[float, ...]:
    value = doc.get(key, [])
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
    ):
        _fail(source, text, key, f"{key!r} must be an array of numbers")
    return tuple(float(v) for v in value)


def _matrix_scenario(doc: dict, source: str, text: str) -> Scenario:
    for key in ("cp", "ca"):
        if key not in doc:
            _fail(source, text, "kind", f"missing required field {key!r}")
    prior = _number(doc, source, text, "prior")
    if not (0.0 <= prior <= 1.0):
        _fail(source, text, "prior", "prior must lie in [0, 1]")
    kappa = _number(doc, source, text, "kappa", default=0.0)
    if not (math.isfinite(kappa) and kappa >= 0.0):
        _fail(source, text, "kappa", "kappa must be finite and nonnegative")
    try:
        table = CostTable(cp=tuple(doc["cp"]), ca=tuple(doc["ca"]))
    except (ValueError, TypeError) as exc:
        _fail(source, text, "cp", f"bad cost matrices: {exc}")
    return Scenario(kind="matrix", source=source, table=table, prior=prior, kappa=kappa)


def _qg_scenario(doc: dict, source: str, text: str) -> Scenario:
    beta = _number(doc, source, text, "beta")
    z0 = _number(doc, source, text, "z0")
    sigma0_sq = _number(doc, source, text, "sigma0_sq")
    kappa = _number(doc, source, text, "kappa", default=0.0)
    sigma_w_sq = _number(doc, source, text, "sigma_w_sq", default=math.inf)
    try:
        params = QGParams(
            beta=beta, z0=z0, sigma0_sq=sigma0_sq, kappa=kappa, sigma_w_sq=sigma_w_sq
        )
    except ValueError as exc:
        _fail(source, text, "beta", str(exc))
    grids = {}
    for key, field in (("beta_grid", "beta"), ("kappa_grid", "kappa")):
        grids[key] = _number_list(doc, source, text, key)
        for value in grids[key]:
            try:
                replace(params, **{field: value})
            except ValueError as exc:
                _fail(source, text, key, str(exc))
    return Scenario(kind="qg", source=source, params=params, kappa=kappa, **grids)


def load_scenario(source: str) -> Scenario:
    """Load a scenario from a file path or a bundled name."""
    name = str(source)
    if name in BUNDLED:
        text = (
            resources.files("incentive_games.data").joinpath(BUNDLED[name]).read_text()
        )
    else:
        path = Path(name)
        if not path.exists():
            raise ScenarioError(
                f"{name}:1: no such scenario file (bundled names: "
                + ", ".join(sorted(BUNDLED)) + ")"
            )
        text = path.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{name}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{name}:1: scenario must be a JSON object")
    kind = doc.get("kind")
    if kind == "matrix":
        return _matrix_scenario(doc, name, text)
    if kind == "qg":
        return _qg_scenario(doc, name, text)
    _fail(name, text, "kind", "field 'kind' must be \"matrix\" or \"qg\"")
