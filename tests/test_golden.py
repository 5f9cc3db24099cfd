"""Golden CLI outputs: every bundled command's stdout, compared byte for byte.

The files under tests/golden/ hold the stdout of each command below. The
matrix belief sweeps and figures run at --grid 101 to keep the files small;
the other commands run at their defaults. A change that alters one of these
outputs on purpose regenerates the file and says which lines changed and why.
To regenerate, from the repository root:

    PYTHONPATH=src python tests/test_golden.py

It rewrites only the files whose content changed and prints a unified diff
of each one, which lists the moved lines.
"""

import difflib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from incentive_games import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = [
    [command, scenario]
    for scenario in ("scenarioA", "scenarioB", "qg_fig4")
    for command in ("g1", "g2", "g3", "g4", "verify")
] + [
    ["sweep", "scenarioA", "--grid", "101"],
    ["sweep", "scenarioB", "--grid", "101"],
    ["sweep", "qg_fig4"],
    ["sweep", "scenarioB", "--over", "kappa", "--grid", "5"],
    ["sweep", "qg_fig4", "--over", "kappa"],
    ["figure", "1", "--grid", "101"],
    ["figure", "2", "--grid", "101"],
    ["figure", "3", "--grid", "101"],
    ["figure", "4"],
]


def golden_name(argv: list[str]) -> str:
    return "_".join(a.lstrip("-") for a in argv) + ".txt"


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=golden_name)
def test_cli_output_matches_golden(argv):
    expected = (GOLDEN / golden_name(argv)).read_text()
    assert stdout_of(argv) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for argv in COMMANDS:
        path = GOLDEN / golden_name(argv)
        old = path.read_text() if path.exists() else ""
        new = stdout_of(argv)
        if new != old:
            rel = path.relative_to(GOLDEN.parent.parent)
            print("".join(difflib.unified_diff(
                old.splitlines(keepends=True), new.splitlines(keepends=True),
                fromfile=f"a/{rel}", tofile=f"b/{rel}",
            )), end="")
            path.write_text(new)
