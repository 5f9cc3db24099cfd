"""The benchmark's three workloads: seeded inputs, operations and output checks.

A workload hands out rounds. A round is a list of operations (ops) whose mix
is fixed, so every round holds the same share of each op kind and the timed
phase always ends on a round boundary. The seed only draws the inputs; the
package receives the generated inputs and nothing else.

Every op is one public call into the package, resolved through the package
namespace when it runs, so trace wrappers installed later are seen. Checks
run after the round, outside the timed region; they return an error message
for a wrong output and None for a correct one.
"""

from __future__ import annotations

import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import incentive_games as ig
from incentive_games import cli

GRID = 2001            # the package's default belief grid
TIE_TOL = 1e-9


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    fingerprint: Callable[[object], object]


class Workload:
    name = ""
    # Modules the workload is documented to exercise; a traced run in which
    # one of them records no call has a stale binding and fails.
    exercised: tuple[str, ...] = ()
    # Modules documented as idle: a traced run reports calls into them.
    idle: tuple[str, ...] = ()
    # Module documented to take the largest self time.
    dominant = ""
    # Rough seconds per round on a 2-core host; sizes traced runs so that
    # their counters repeat exactly for one seed and one --seconds value.
    round_s = 1.0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.counts: Counter[str] = Counter()   # per-layer counts the checks make

    def next_round(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# persuasion-fresh
# ---------------------------------------------------------------------------

SMALL_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2))
LARGE_SHAPES = ((4, 4), (3, 5))   # beyond the enumerator's 400k-bases cap
INTERIOR_PRIORS = 3
# The table population is fixed and every run walks it in the same order;
# the workload seed relabels each table and draws the priors. A fresh g3
# call's cost is set by its table's polytopes (feasible pairs, vertices),
# which relabeling keeps, so two seeds do the same amount of work. Fresh
# tables per seed made the latency tail differ by 20% between seeds.
CORPUS_SEED = 20250902
CORPUS_ROUNDS = 12


def _split_key(split):
    return tuple((float(p), float(w)) for p, w in split.atoms)


def _draw(rng, m: int, n: int, integer: bool) -> list[np.ndarray]:
    """cp for both states, then ca for both states."""
    if integer:
        return [rng.integers(0, 6, (m, n)).astype(float) for _ in range(4)]
    return [rng.uniform(0.0, 5.0, (m, n)) for _ in range(4)]


def _corpus() -> list[list[tuple[list[np.ndarray], bool, int]]]:
    """Per round: (matrices, integer-valued, interior priors) per table."""
    rng = np.random.default_rng(CORPUS_SEED)
    rounds = []
    for _ in range(CORPUS_ROUNDS):
        tables = [(_draw(rng, m, n, integer), integer, INTERIOR_PRIORS)
                  for m, n in SMALL_SHAPES for integer in (False, True)]
        for m, n in LARGE_SHAPES:
            integer = bool(rng.integers(0, 2))
            tables.append((_draw(rng, m, n, integer), integer, 2))
        rounds.append(tables)
    return rounds


class PersuasionFresh(Workload):
    """solve_g3 on seeded tables, every table a new object.

    Per round: each small shape once real-valued (uniform on [0, 5]) and once
    integer-valued (0..5, which brings ties and degeneracy), each at priors 0,
    1 and three interior draws; then one 4x4 and one 3x5 table at two
    interior priors each. The large tables fail today with the enumerator's
    capacity ValueError, so 4 of the 64 ops of a round fail. The seed permutes
    each table's principal actions and agent actions, may swap its two
    states, and draws the interior priors.
    """

    name = "persuasion-fresh"
    exercised = ("lp_kernel", "matrix_games")
    idle = ("belief_engine", "qg_games", "oracle", "scenarios", "cli")
    dominant = "lp_kernel"
    round_s = 2.5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.corpus = _corpus()
        self.rounds = 0

    def _relabel(self, mats: list[np.ndarray]):
        m, n = mats[0].shape
        rows, cols = self.rng.permutation(m), self.rng.permutation(n)
        cp0, cp1, ca0, ca1 = (a[np.ix_(rows, cols)] for a in mats)
        if self.rng.integers(0, 2):
            cp0, cp1, ca0, ca1 = cp1, cp0, ca1, ca0
        return ig.CostTable(cp=(cp0, cp1), ca=(ca0, ca1))

    def next_round(self) -> list[Op]:
        ops = []
        curves: dict = {}
        for mats, integer, interior in self.corpus[self.rounds % CORPUS_ROUNDS]:
            table = self._relabel(mats)
            priors = [float(p) for p in self.rng.uniform(0.0, 1.0, interior)]
            if interior == INTERIOR_PRIORS:
                priors = [0.0, 1.0] + priors
            for mu in priors:
                ops.append(self._op(table, mu, integer, curves))
        self.rounds += 1
        return ops

    def _op(self, table, mu: float, integer: bool, curves: dict) -> Op:
        kind = "int" if integer else "real"

        def check(report):
            if not report.split.is_plausible(mu):
                return f"g3 split mean {report.split.mean()!r} is not the prior {mu!r}"
            g2 = ig.solve_g2(table, mu)
            g2.check(table)
            if report.agent_cost > g2.agent_cost + TIE_TOL:
                return f"g3 agent cost {report.agent_cost!r} exceeds g2's {g2.agent_cost!r}"
            if 0.0 < mu < 1.0:
                if table not in curves:     # tables hash by identity
                    xs, ys = ig.agent_value_curve(table, GRID)
                    lipschitz_tol = 2.0 * float(np.max(np.abs(np.diff(ys)))) + 1e-12
                    curves[table] = (xs, ys, lipschitz_tol)
                xs, ys, tol = curves[table]
                envelope, _ = ig.envelope_from_samples(xs, ys, mu)
                if abs(report.agent_cost - envelope) > tol:
                    # Known tie disagreement between the g2 curve and the
                    # persuasion LP; it shows on integer tables only.
                    self.counts["matrix_games.g3.envelope_gap"] += 1
                    if not integer:
                        return f"g3 agent cost {report.agent_cost!r} is off the envelope {envelope!r}"
            return None

        return Op(
            label=f"g3 {table.m}x{table.n} {kind} mu={mu!r}",
            call=lambda: ig.solve_g3(table, mu),
            check=check,
            fingerprint=lambda r: (r.principal_cost, r.agent_cost, _split_key(r.split)),
        )


# ---------------------------------------------------------------------------
# acquisition-sweep
# ---------------------------------------------------------------------------

KAPPAS_PER_SCENARIO = 50


class AcquisitionSweep(Workload):
    """solve_g4 on the bundled scenarioA and scenarioB at the default belief
    grid, over seeded kappa draws on [0, 4]. The scenarios load once, so the
    vertex-profile cache misses once per table and then stays warm."""

    name = "acquisition-sweep"
    exercised = ("lp_kernel", "matrix_games", "belief_engine", "scenarios")
    idle = ("qg_games", "oracle", "cli")
    dominant = "belief_engine"
    round_s = 1.4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.scenarios = [ig.load_scenario(name) for name in ("scenarioA", "scenarioB")]
        self.g2_at_prior: dict = {}

    def next_round(self) -> list[Op]:
        ops = []
        for scenario in self.scenarios:
            for kappa in self.rng.uniform(0.0, 4.0, KAPPAS_PER_SCENARIO):
                ops.append(self._op(scenario, float(kappa)))
        return ops

    def _op(self, scenario, kappa: float) -> Op:
        table, mu = scenario.table, scenario.prior

        def check(report):
            if table not in self.g2_at_prior:
                g2 = ig.solve_g2(table, mu)
                g2.check(table)
                self.g2_at_prior[table] = g2
            g2 = self.g2_at_prior[table]
            total = report.total_cost
            if abs(total - (report.gross_cost + report.channel_cost)) > TIE_TOL * max(1.0, abs(total)):
                return f"g4 total {total!r} != gross + channel"
            if total > g2.principal_cost + TIE_TOL:
                return f"g4 total {total!r} exceeds the g2 principal cost {g2.principal_cost!r}"
            if not report.split.is_plausible(mu):
                return "g4 split is not Bayes-plausible"
            return None

        return Op(
            label=f"g4 {scenario.source} kappa={kappa!r}",
            call=lambda: ig.solve_g4(table, mu, kappa),
            check=check,
            fingerprint=lambda r: (
                r.total_cost, r.gross_cost, r.channel_cost, r.agent_cost, _split_key(r.split)
            ),
        )


# ---------------------------------------------------------------------------
# cli-tour
# ---------------------------------------------------------------------------


def _cli_commands() -> list[list[str]]:
    commands = []
    for scenario in ("scenarioA", "scenarioB", "qg_fig4"):
        for command in ("g1", "g2", "g3", "g4", "verify"):
            commands.append([command, scenario])
    commands += [
        ["sweep", "scenarioA"],
        ["sweep", "scenarioB"],
        ["sweep", "qg_fig4"],
        # --grid sets the number of kappas of a matrix kappa sweep
        ["sweep", "scenarioB", "--over", "kappa", "--grid", "5"],
        ["sweep", "qg_fig4", "--over", "kappa"],
    ]
    commands += [["figure", str(which)] for which in (1, 2, 3, 4)]
    return commands


class CliTour(Workload):
    """Every bundled CLI command through cli.main in this process, in a
    seeded order per pass. Each call loads its scenario afresh, as a separate
    CLI process would. A command passes when it exits 0 and its stdout is
    byte-identical to the first pass."""

    name = "cli-tour"
    exercised = (
        "lp_kernel", "matrix_games", "belief_engine", "qg_games", "oracle", "scenarios", "cli",
    )
    round_s = 0.8

    def __init__(self, seed: int):
        super().__init__(seed)
        self.commands = _cli_commands()
        self.reference: dict[str, str] = {}

    def next_round(self) -> list[Op]:
        order = self.rng.permutation(len(self.commands))
        return [self._op(self.commands[i]) for i in order]

    def _op(self, argv: list[str]) -> Op:
        label = " ".join(argv)

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, out, err = result
            if code != 0:
                return f"`{label}` exited {code}: {err.strip()}"
            expected = self.reference.setdefault(label, out)
            if out != expected:
                return f"`{label}` stdout differs from the first pass"
            return None

        return Op(label=label, call=call, check=check, fingerprint=lambda r: r[:2])


WORKLOADS = {w.name: w for w in (PersuasionFresh, AcquisitionSweep, CliTour)}
