"""
How much loss buys a deterministic eraser
=========================================

If a design insists on independence, deterministic routing, and distinct
conditionals, the only property left to give up is losslessness. For an
erase probability q the admissible loss rate p lies in [q/2, q]; here we
sweep p at q = 1/2 and then inspect the witness at the cheapest rate.
"""

import numpy as np

from dcqe import (
    LossFeasibilityProblem,
    check_feasible,
    check_independence,
    construct_witness,
    loss_bounds,
    marginal,
)

for q in (0.2, 0.5, 0.8):
    low, high = loss_bounds(q)
    print(f"q = {q}: admissible loss rates [{low}, {high}]")
print()

# The feasibility check solves the constraint system exactly, so the sweep
# flips precisely at the closed-form endpoints.
q = 0.5
print(f"{'p':>6}  feasible  binding constraint")
for p in (0.15, 0.2499, 0.25, 0.3, 0.5, 0.5001, 0.6):
    result = check_feasible(LossFeasibilityProblem(q=q, n_x=4, p=p))
    print(f"{p:>6}  {str(result.feasible):<8}  {result.binding_constraint}")
print()

# The minimal-loss witness: all loss is taken from the erase arm, and the
# choice marginal stays independent of the signal position.
witness = construct_witness(LossFeasibilityProblem(q=q, n_x=4, p=0.25)).witness
print("witness P(C, D) at p = q/2:")
cd = marginal(witness, "cd")
print(f"{'':>10}" + "".join(f"{d:>10}" for d in witness.space.d_values))
for i, c in enumerate(witness.space.c_values):
    print(f"{c:>10}" + "".join(f"{cd[i, k]:>10.4f}" for k in range(cd.shape[1])))
dev = check_independence(witness).statistic
print(f"independence deviation: {dev:.2e}")
assert dev <= 1e-12
assert np.array_equal(cd, np.array([[0.25, 0.0, 0.25], [0.0, 0.5, 0.0]]))
