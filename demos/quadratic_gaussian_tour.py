"""The scalar quadratic-Gaussian game, end to end.

State, actions, and costs are continuous here: the state is Gaussian, both
players pay quadratic costs, and every equilibrium object has a closed form.
The script walks the same four information regimes as the matrix demos --
full information, Bayesian asymmetry, agent-driven disclosure, and a priced
Gaussian channel -- and shows the two structural facts that make this setup
interesting: disclosure is all-or-nothing with a sign flip in beta, and the
optimal channel noise is a root of a quadratic.

Run: python3 demos/quadratic_gaussian_tour.py
"""

import numpy as np

from incentive_games.qg_games import (
    QGParams,
    disclosure_coefficient,
    qg_g1,
    qg_g2,
    qg_g3,
    qg_g4_cost,
    qg_g4_optimize,
)

p = QGParams(beta=1.0, z0=1.0, sigma0_sq=4.0, kappa=1.0)
print(f"parameters: beta={p.beta}, prior mean={p.z0}, prior variance={p.sigma0_sq}")
print()

informed, uninformed = qg_g1(p), qg_g2(p)
print(f"full information:  principal {informed.principal_cost:.4f}, agent {informed.agent_cost:.4f}")
print(f"prior-mean policy: principal {uninformed.principal_cost:.4f}, agent {uninformed.agent_cost:.4f}")
print()

# Whether the agent volunteers the state is decided by the sign of a single
# coefficient multiplying the posterior variance in the agent's cost.
print("beta   coefficient   agent's choice")
for beta in (0.25, 0.5, np.sqrt(3) - 1, 1.0, 2.0):
    f = disclosure_coefficient(beta)
    report = qg_g3(QGParams(beta, p.z0, p.sigma0_sq))
    choice = report.revelation + (" (indifferent)" if report.indifferent else "")
    print(f"{beta:4.2f}   {f:+11.4f}   {choice}")
print()

# With a priced Gaussian channel the principal picks the noise level
# sigma_w^2; total cost is gross play cost plus kappa/2 * ln(1 + 1/sigma_w^2)
# nats. That is kappa times the mutual information of theta + w only when
# the prior variance is 1; here it is 4.
report = qg_g4_optimize(p)
print(f"priced channel at kappa={p.kappa}:")
print(f"  optimal noise sigma_w^2 = {report.channel:.4f}")
print(f"  total cost {report.principal_cost:.4f} vs {uninformed.principal_cost:.4f} without a channel")
print()
print("  sigma_w^2     total cost")
for s in np.logspace(-2, 4, 13):
    marker = " <- optimum" if abs(np.log10(s / report.channel)) < 0.25 else ""
    print(f"  {s:9.3g}     {qg_g4_cost(p, float(s)):.4f}{marker}")
