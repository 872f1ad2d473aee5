"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with a
stable name (run ``pytest tests/test_acceptance.py -s`` to see every line).
Tolerances are part of the contract and are asserted literally.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from dcqe import (
    FringeModel,
    LossFeasibilityProblem,
    audit,
    berkson_gap,
    build_kim,
    build_mach_zehnder,
    build_passive_choice,
    build_polarization,
    check_distinct_conditionals,
    check_feasible,
    check_independence,
    coarse_grain,
    conditional_x_given_d,
    construct_witness,
    default_fringe_model,
    estimate_from_events,
    kim_coarse_graining,
    loss_bounds,
    route_by_region,
    sample_events,
    total_variation,
)
from conftest import FOUR_BIN_PHASE0, routed_joint
from oracles import rational_fringe_profile, tv_fraction


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


def test_no_go_suite_on_randomized_routed_joints():
    with criterion("no-go consistency on 10k routed joints"):
        rng = np.random.default_rng(20260819)
        started = time.perf_counter()
        worst_gap = 0.0
        all_consistent = True
        for _ in range(10_000):
            j = routed_joint(rng)
            report = audit(j)
            worst_gap = max(worst_gap, report.distinct_conditionals.statistic)
            all_consistent = all_consistent and report.no_go_consistent
        elapsed = time.perf_counter() - started
        assert worst_gap <= 1e-12
        assert all_consistent
        assert elapsed < 10.0


def test_loss_bounds_and_feasibility_sweep():
    with criterion("loss-rate bounds and feasibility sweep at q=1/2"):
        assert loss_bounds(0.5) == (0.25, 0.5)

        def feasible(p):
            return check_feasible(LossFeasibilityProblem(q=0.5, n_x=4, p=p)).feasible

        assert not feasible(0.25 - 1e-9)
        assert feasible(0.25 + 1e-9)
        assert feasible(0.5 - 1e-9)
        assert not feasible(0.5 + 1e-9)


def test_witness_independence_and_choice_detector_table():
    with criterion("witness independence and choice-detector table"):
        result = construct_witness(LossFeasibilityProblem(q=0.5, n_x=4, p=0.25))
        w = result.witness
        assert check_independence(w).statistic <= 1e-12
        expected_cd = np.array([[0.25, 0.0, 0.25], [0.0, 0.5, 0.0]])
        assert np.array_equal(w.p.sum(axis=0), expected_cd)


def test_kim_cancellation_coarse_and_fine():
    with criterion("kim cancellation coarse and fine"):
        model = default_fringe_model()
        coarse = coarse_grain(build_kim(model), kim_coarse_graining())
        tv_analytic = total_variation(
            conditional_x_given_d(coarse, "D_erase"),
            conditional_x_given_d(coarse, "D_preserve"),
        )
        assert tv_analytic <= 1e-12

        est = estimate_from_events(sample_events(coarse, 1_000_000, seed=9))
        tv_sampled = total_variation(
            conditional_x_given_d(est, "D_erase"),
            conditional_x_given_d(est, "D_preserve"),
        )
        assert tv_sampled <= 0.01

        # Four bins, unit visibility: opposite-phase profiles at exact
        # rational cosine values give a total variation of exactly 1/2.
        assert tv_fraction(
            rational_fringe_profile(0), rational_fringe_profile(2)
        ) == Fraction(1, 2)
        four = FringeModel(n_x=4, cycles=1.0, phase0=FOUR_BIN_PHASE0)
        fine = build_kim(four)
        tv_fine = total_variation(
            conditional_x_given_d(fine, "D1"), conditional_x_given_d(fine, "D2")
        )
        assert tv_fine == 0.5


def test_violation_table_across_six_architectures():
    with criterion("violation table across six architectures"):
        model = default_fringe_model()
        kim = build_kim(model)
        mask = [1] * (model.n_x // 2) + [0] * (model.n_x // 2)
        regioned = route_by_region(mask, np.full(model.n_x, 1.0 / model.n_x))
        cases = [
            (coarse_grain(kim, kim_coarse_graining()), ("distinct_conditionals",)),
            (kim, ("deterministic_routing",)),
            (build_mach_zehnder(model, 0.5), ("deterministic_routing",)),
            (build_polarization(model, 0.5), ("lossless",)),
            (build_passive_choice(model), ("independence",)),
            (regioned, ("independence",)),
        ]
        for joint, expected in cases:
            assert audit(joint).violations == expected


def test_no_signaling_of_conditional_signal_marginals():
    with criterion("no-signaling of conditional signal marginals"):
        model = default_fringe_model()
        for j in (build_mach_zehnder(model, 0.5), build_polarization(model, 0.5)):
            # p(x | c) for erase and preserve, loss included
            erase, preserve = (j.p.sum(axis=2) / j.p.sum(axis=(0, 2))).T
            assert np.max(np.abs(erase - preserve)) <= 1e-12


def test_monte_carlo_loss_rate():
    with criterion("monte carlo loss rate at q=1/2"):
        j = build_polarization(default_fringe_model(), 0.5)
        est = estimate_from_events(sample_events(j, 1_000_000, seed=7))
        loss_idx = est.space.d_values.index("LOSS")
        p_loss = est.p.sum(axis=(0, 1))[loss_idx]
        assert abs(p_loss - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / 1_000_000)


def test_berkson_gap_under_detection_conditioning():
    with criterion("berkson gap under detection conditioning"):
        w = construct_witness(LossFeasibilityProblem(q=0.5, n_x=4, p=0.25)).witness
        assert berkson_gap(w) > 0.01
        assert check_independence(w).statistic <= 1e-12


def test_region_routing_figure_partition():
    with criterion("region-routing figure partition"):
        n_x = 16
        bits = [1] * 8 + [0] * 8
        base = np.full(n_x, 1.0 / n_x)
        j = route_by_region(bits, base)
        i1 = j.space.d_values.index("D1")
        i2 = j.space.d_values.index("D2")
        h1 = j.p[:, :, i1].sum(axis=1)
        h2 = j.p[:, :, i2].sum(axis=1)
        member = np.asarray(bits, dtype=bool)
        assert np.all(h1[~member] == 0.0)
        assert np.all(h2[member] == 0.0)
        assert np.array_equal(h1 + h2, base)
        assert np.array_equal(j.p.sum(axis=(1, 2)), base)
