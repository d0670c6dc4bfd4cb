"""
Worst-case transition bounds
============================

For a pair of partition cells, the bound is a chance threshold q at which
the reach query is unsatisfiable: no state of the source cell can move its
successor mean into the target's augmented set.  The closed loop's affine
pieces on the source cell give the largest noise-normalised target slack
z* any successor reaches, and the bound is the Gaussian CDF of z* plus a
small numerical tolerance, rounded up and never below dq.  That threshold
upper-bounds the one-step transition probability of every source state.
Sampling a grid of source states shows the bound sitting above the true
probabilities.
"""

from relusafe import CellReach, estimate_edges, make_demo_scenario
from relusafe.montecarlo import estimate_transition, stream

scenario = make_demo_scenario(3, [8, 8], seed=2)
dq = 0.05
source, target = scenario.partition[4], scenario.partition[5]

((bound, q_lo, q_hi, method),), = estimate_edges(
    scenario, [CellReach(scenario, source)], [target.region], dq)
print(f"bound on P({source.id} -> {target.id}) = {bound:.4f}  (dq={dq}, {method}, "
      f"bracket [{q_lo:.6f}, {q_hi:.6f}])")

rng = stream(7, 0)
lo, hi = source.region.bounding_box()
worst = 0.0
for _ in range(60):
    x = rng.uniform(lo, hi)
    est = estimate_transition(scenario, x, target.region, 4000, seed=11)
    worst = max(worst, est.hit_fraction)
print(f"worst sampled true probability over 60 states: {worst:.4f}")
assert worst <= bound + 0.02, "bound must dominate the sampled probabilities"
print("bound dominates the samples, as it must")
