"""What does the principal lose by not observing the state?

The principal commits to a reaction rule before the agent moves. When she
observes the state she can tailor the rule per state; when she only holds a
prior she must commit to a single state-independent rule. This script solves
both variants on the bundled 2x2 benchmark and sweeps the prior to show that
the uninformed cost curve is piecewise affine, concave, and always above the
informed one.

Run: python3 demos/price_of_ignorance.py
"""

import numpy as np

from incentive_games.matrix_games import solve_g1, solve_g2, value_curves
from incentive_games.scenarios import load_scenario

scenario = load_scenario("scenarioA")
table, prior = scenario.table, scenario.prior

informed = solve_g1(table, prior)
uninformed = solve_g2(table, prior)

print(f"benchmark table, prior P(state 1) = {prior}")
print(f"  informed principal:   cost {informed.principal_cost:.4f}, agent pays {informed.agent_cost:.4f}")
print(f"  uninformed principal: cost {uninformed.principal_cost:.4f}, agent pays {uninformed.agent_cost:.4f}")
print(f"  price of ignorance:   {uninformed.principal_cost - informed.principal_cost:.4f}")
print()
print("the uninformed principal's committed reaction rule (column j = mixed")
print("reply to agent action j):")
print(np.array_str(uninformed.scheme.columns, precision=4, suppress_small=True))
print()

# The informed cost is linear in the prior; the uninformed one is a minimum
# of finitely many affine functions, hence concave. Sample both.
beliefs, curve = value_curves(table, 21)[:2]
base = solve_g1(table, 0.5)
v1, v2 = (o.principal_cost for o in base.per_state)
line = beliefs * v1 + (1.0 - beliefs) * v2

print("belief   informed   uninformed   gap")
for b, lo, hi in zip(beliefs, line, curve):
    bar = "#" * int(round(20 * (hi - lo)))
    print(f"  {b:4.2f}   {lo:8.4f}   {hi:10.4f}   {bar}")
print()
print("the gap peaks near maximal uncertainty and vanishes at degenerate")
print("beliefs, where knowing the prior is as good as knowing the state.")
