"""Smoke tests: every demo script runs and prints its headline result, the
package runs with numpy as its only third-party import, and its public API
is exactly __all__."""

import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import incentive_games

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _kappa_two_row(out: str) -> str:
    return next(line for line in out.splitlines() if line.split()[:1] == ["2.00"])


@pytest.mark.parametrize("script, headline", [
    ("persuasion_split", lambda out: "agent 1.7500, principal 1.0000" in out),
    ("price_of_ignorance", lambda out: "price of ignorance:   1.6000" in out),
    ("priced_information", lambda out: "1.8809" in _kappa_two_row(out)),
    ("quadratic_gaussian_tour", lambda out: "principal 2.0000, agent 1.6000" in out),
])
def test_demo_prints_its_headline(capsys, script, headline):
    runpy.run_path(str(DEMOS / f"{script}.py"), run_name="__main__")
    assert headline(capsys.readouterr().out)


def test_package_runs_without_scipy_or_hypothesis():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
        "import incentive_games\n"
        "from incentive_games import cli\n"
        "sys.exit(cli.main(['g2', 'scenarioA']))\n"
    )
    src = str(Path(incentive_games.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr


def test_all_is_exactly_the_public_bindings():
    # every name in __all__ resolves, and every public binding of the package
    # that is not a submodule is in __all__, once: an export deleted from the
    # imports but left in __all__ fails here, and so does one left out
    for name in incentive_games.__all__:
        assert hasattr(incentive_games, name), name
    public = [name for name, value in vars(incentive_games).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(incentive_games.__all__) == sorted(public)
