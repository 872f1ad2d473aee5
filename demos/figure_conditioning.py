"""
Sorting one histogram into two by region
========================================

Route every signal position inside a mask to D1 and the rest to D2, with
the recorded choice equal to the detection outcome. Conditioning on a
detector then carves the base histogram into complementary pieces; their
sum restores the base exactly. The "choice" here is read off the signal,
so the independence property is the one that fails.
"""

import numpy as np

from dcqe import audit, route_by_region, sample_events

n_x = 16
mask = [1] * 8 + [0] * 8
base = np.full(n_x, 1.0 / n_x)
joint = route_by_region(mask, base)

report = audit(joint)
print(f"violations: {report.violations}")
assert report.violations == ("independence",)

# Analytic split: each detector keeps exactly the masked (or unmasked) half.
# Summing out the choice leaves one histogram per detector, D1 then D2.
h1, h2 = joint.p.sum(axis=1).T
assert np.array_equal(h1 + h2, base)
print("bin  D1-share  D2-share")
for x in range(n_x):
    print(f"{x:>3}  {h1[x]:>8.4f}  {h2[x]:>8.4f}")

# Sampled coincidence images partition the counts the same way.
log = sample_events(joint, 20_000, seed=2)
img1, img2 = log.counts().sum(axis=1).T
assert img1[8:].sum() == 0 and img2[:8].sum() == 0
assert img1.sum() + img2.sum() == 20_000
print(f"\nsampled counts: D1 {int(img1.sum())}, D2 {int(img2.sum())}")
print(f"x marginal == base: {np.array_equal(joint.p.sum(axis=(1, 2)), base)}")
