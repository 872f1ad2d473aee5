"""
Monte Carlo round trip through the auditor
==========================================

Sample events from the lossy polarization architecture, rebuild the joint
from the raw event log, and audit the estimate. With enough trials the
empirical audit reaches the same verdict as the analytic one, and the
measured loss rate lands within counting error of q/2.
"""

import numpy as np

from dcqe import (
    audit,
    build_polarization,
    default_fringe_model,
    estimate_from_events,
    sample_events,
)

q = 0.5
joint = build_polarization(default_fringe_model(n_x=16, cycles=1.0), q)
analytic = audit(joint)
print(f"analytic violations:  {analytic.violations}")

n = 200_000
log = sample_events(joint, n, seed=7)
estimate = estimate_from_events(log)
empirical = audit(estimate)
print(f"empirical violations: {empirical.violations}  (tolerance {empirical.tolerance:.4f})")
assert empirical.violations == analytic.violations

loss_idx = estimate.space.d_values.index("LOSS")
p_hat = estimate.p.sum(axis=(0, 1))[loss_idx]
sigma = np.sqrt(q / 2 * (1 - q / 2) / n)
print(f"loss rate: measured {p_hat:.5f}, analytic {q / 2}, counting sigma {sigma:.5f}")
assert abs(p_hat - q / 2) <= 3 * sigma

# The estimate is a plain joint law: its detected-only conditionals show
# the erase-arm fringe while the preserve arm stays flat.
erase_idx = estimate.space.d_values.index("D_erase")
fringe = estimate.p[:, :, erase_idx].sum(axis=1)
print("\nerase-arm coincidence profile (relative):")
top = fringe.max()
for x, w in enumerate(fringe):
    print(f"{x:>3} {'#' * int(round(40 * w / top))}")
