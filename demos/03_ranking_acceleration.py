"""
Accelerating the power method on a link graph
=============================================

Ranking vectors are fixed points of a damped teleportation operator.
On graphs with poor mixing the power method needs many sweeps; a
componentwise delta-squared transform applied to the iterate history
reaches the same ranking in a fraction of them.
"""

import numpy as np

from accelerant.cli import _run_componentwise, _run_picard
from accelerant.problems import clustered_graph, pagerank

# two loosely connected clusters: only every fourth node links across,
# so probability mass mixes slowly between the blocks
graph = clustered_graph(2000, 8, seed=7)
problem = pagerank(graph, alpha=0.85)

# both runs stop on an error estimate rather than the raw update size,
# so their answers land within tol of each other, not just of themselves
tol = 1e-6
power = _run_picard(problem, tol, 2000, True)
accel = _run_componentwise(problem, tol, 2000, "aitken", True)

power_evals, _, power_status, power_vec = power
accel_evals, _, accel_status, accel_vec = accel
print(f"power method:      {power_evals:>4} sweeps ({power_status})")
print(f"accelerated:       {accel_evals:>4} sweeps ({accel_status})")
print(f"1-norm agreement:  {np.abs(power_vec - accel_vec).sum():.2e}")

# the ranking itself: both orderings agree on the top nodes
top = np.argsort(power_vec)[::-1][:5]
print("\ntop nodes      power         accelerated")
for node in top:
    print(f"  {node:<10}{power_vec[node]:>12.6f} {accel_vec[node]:>12.6f}")
