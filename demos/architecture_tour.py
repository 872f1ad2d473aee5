"""
Tour of the four eraser architectures
=====================================

Build each architecture as an explicit joint law over (X, C, D), run the
structural audit, and show which of the four properties fails. No
architecture satisfies all four at once; each gives up a different one.
"""

from dcqe import (
    audit,
    build_kim,
    build_mach_zehnder,
    build_passive_choice,
    build_polarization,
    coarse_grain,
    default_fringe_model,
    kim_coarse_graining,
)

model = default_fringe_model(n_x=32, cycles=2.0)

# The Kim-style layout is audited twice: once per fine detector, once with
# the erase and preserve detector pairs pooled into single channels.
kim = build_kim(model)
joints = {
    "kim (fine detectors)": kim,
    "kim (pooled channels)": coarse_grain(kim, kim_coarse_graining()),
    "mach-zehnder q=1/2": build_mach_zehnder(model, 0.5),
    "polarization q=1/2": build_polarization(model, 0.5),
    "passive choice": build_passive_choice(model),
}

print(f"{'architecture':<24} {'violated property':<24} consistent")
for name, joint in joints.items():
    report = audit(joint)
    assert report.no_go_consistent
    print(f"{name:<24} {', '.join(report.violations):<24} {report.no_go_consistent}")

# The fine-grained Kim audit pins the failure to a concrete counterexample:
# the erase choice splits its mass across two detectors.
fine = audit(kim)
routing = fine.deterministic_routing
ce = routing.detail["counterexample"]
print()
print(f"routing counterexample: choice {ce['c']!r} reaches both {ce['d']!r} and {ce['d_prime']!r}")
print(f"stray mass: {routing.statistic:.3f}")
