"""
Selection bias from conditioning on detection
=============================================

The minimal-loss witness keeps X and C exactly independent over all
trials. Restricting attention to detected trials (D != LOSS) induces a
correlation out of nothing: a Berkson-type selection effect. The same
conditioning applied to a uniformly thinned joint induces none.
"""

import numpy as np

from dcqe import (
    JointDistribution,
    LossFeasibilityProblem,
    OutcomeSpace,
    berkson_gap,
    check_independence,
    construct_witness,
)

witness = construct_witness(LossFeasibilityProblem(q=0.5, n_x=4, p=0.25)).witness

dev = check_independence(witness).statistic
gap = berkson_gap(witness)
print(f"unconditional |P(x,c) - P(x)P(c)|   max: {dev:.3e}")
print(f"detected-only |P(x,c) - P(x)P(c)|   max: {gap:.6f}  (= 1/18)")
assert dev <= 1e-12
assert gap > 0.01

# Control: start from an independent (X, C) law and thin every outcome by
# the same factor into a loss column. The selection is then independent of
# (X, C) and conditioning is harmless.
space = OutcomeSpace(4, ("erase", "preserve"), ("D1", "D2", "LOSS"))
rng = np.random.default_rng(4)
p_x = rng.random(4) + 0.1
p_x /= p_x.sum()
p_c = np.array([0.6, 0.4])
split = rng.random((2, 2)) + 0.1
split /= split.sum(axis=1, keepdims=True)
detected = p_x[:, None, None] * p_c[None, :, None] * split[None, :, :]
table = np.zeros((4, 2, 3))
table[:, :, :2] = 0.75 * detected
table[:, :, 2] = 0.25 * detected.sum(axis=2)
uniform_thinning = JointDistribution(space, table)
print(f"uniform thinning gap:               {berkson_gap(uniform_thinning):.3e}")
assert berkson_gap(uniform_thinning) <= 1e-12

print()
print("loss aimed at one (choice, position) sector biases the survivors;")
print("loss applied evenly does not.")
