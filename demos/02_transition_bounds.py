"""
Worst-case transition bounds
============================

For a pair of partition cells, a walk down the dyadic grid of chance
levels q finds the smallest threshold whose reach query is unsatisfiable:
no state of the source cell can move its successor mean into the target's
augmented set.  Each verdict is read off the largest noise-normalised
target slack that the closed loop's affine pieces on the source cell
reach.  That threshold upper-bounds the one-step transition probability of
every source state.  Sampling a grid of source states shows the bound sitting
above the true probabilities.
"""

from relusafe import estimate_bound, make_demo_scenario
from relusafe.montecarlo import estimate_transition, stream

scenario = make_demo_scenario(3, [8, 8], seed=2)
dq = 0.05
source, target = scenario.partition[4], scenario.partition[5]

bound = estimate_bound(scenario, source, target, dq)
print(f"bound on P({source.id} -> {target.id}) = {bound:.4f}  (dq={dq})")

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
