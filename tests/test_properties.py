"""Property-based checks over randomly generated joints.

Each test draws a seed and builds its inputs with numpy's generator, so
failures shrink to a single reproducible integer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcqe import (
    CHUNK_TRIALS,
    JointDistribution,
    OutcomeSpace,
    audit,
    check_deterministic_routing,
    check_distinct_conditionals,
    check_independence,
    check_lossless,
    coarse_grain,
    conditional_x_given_d,
    estimate_from_events,
    sample_events,
    total_variation,
    validate,
)
from conftest import random_joint, routed_joint

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_distribution(rng, n):
    p = rng.random(n) + 0.01
    return p / p.sum()


class TestTableInvariants:
    @given(seed=seeds)
    def test_random_joint_validates(self, seed):
        rng = np.random.default_rng(seed)
        validate(random_joint(rng, with_loss=bool(seed % 2)))

    @given(seed=seeds)
    def test_marginals_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint(rng)
        for axes in ((1, 2), (0, 2), (0, 1), 2, 0, 1):
            assert abs(j.p.sum(axis=axes).sum() - 1.0) <= 1e-12

    @given(seed=seeds)
    def test_detector_mixture_recovers_x_marginal(self, seed):
        # Sum_d P(d) p(x|d) = P(x) on any joint with every detector occupied.
        rng = np.random.default_rng(seed)
        j = random_joint(rng)
        p_d = j.p.sum(axis=(0, 1))
        mix = sum(
            p_d[k] * conditional_x_given_d(j, d)
            for k, d in enumerate(j.space.d_values)
        )
        assert np.max(np.abs(mix - j.p.sum(axis=(1, 2)))) <= 1e-12


class TestTotalVariation:
    @given(seed=seeds)
    def test_range_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = random_distribution(rng, n)
        b = random_distribution(rng, n)
        tv = total_variation(a, b)
        assert 0.0 <= tv <= 1.0
        assert total_variation(b, a) == tv
        assert total_variation(a, a) == 0.0

    @given(seed=seeds)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = random_distribution(rng, n)
        b = random_distribution(rng, n)
        c = random_distribution(rng, n)
        assert total_variation(a, c) <= total_variation(a, b) + total_variation(b, c) + 1e-12

    @given(seed=seeds)
    def test_half_l1_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = random_distribution(rng, n)
        b = random_distribution(rng, n)
        assert abs(total_variation(a, b) - 0.5 * np.abs(a - b).sum()) <= 1e-15


class TestCoarseGraining:
    @given(seed=seeds)
    def test_pairing_preserves_xc_marginal(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint(rng, n_d=4)
        g = {"D0": "E0", "D1": "E0", "D2": "E1", "D3": "E1"}
        merged = coarse_grain(j, g)
        assert np.allclose(merged.p.sum(axis=2), j.p.sum(axis=2), atol=1e-14)
        validate(merged)

    @given(seed=seeds)
    def test_identity_graining_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint(rng)
        g = {d: d for d in j.space.d_values}
        assert np.array_equal(coarse_grain(j, g).p, j.p)


class TestStructuralChecks:
    @given(seed=seeds)
    def test_product_joint_is_independent(self, seed):
        rng = np.random.default_rng(seed)
        n_x = int(rng.integers(2, 6))
        n_c = int(rng.integers(2, 4))
        p_x = random_distribution(rng, n_x)
        p_c = random_distribution(rng, n_c)
        # Product structure in (X, C) with a two-way split per choice.
        space = OutcomeSpace(
            n_x, tuple(f"c{k}" for k in range(n_c)), ("D0", "D1")
        )
        table = np.empty(space.shape)
        for c in range(n_c):
            w = rng.random()
            table[:, c, 0] = p_x * p_c[c] * w
            table[:, c, 1] = p_x * p_c[c] * (1 - w)
        j = JointDistribution(space, table)
        assert check_independence(j).holds

    @given(seed=seeds)
    def test_routed_joint_satisfies_three_and_fails_distinctness(self, seed):
        rng = np.random.default_rng(seed)
        j = routed_joint(rng)
        assert check_independence(j).holds
        assert check_lossless(j).holds
        routing = check_deterministic_routing(j)
        assert routing.holds
        assert routing.detail["counterexample"] is None
        distinct = check_distinct_conditionals(j)
        assert not distinct.holds
        assert distinct.statistic <= 1e-12

    @given(seed=seeds)
    def test_no_go_holds_on_every_random_joint(self, seed):
        rng = np.random.default_rng(seed)
        kind = seed % 3
        if kind == 0:
            j = routed_joint(rng)
        else:
            j = random_joint(rng, with_loss=kind == 2)
        report = audit(j)
        assert report.no_go_consistent
        assert len(report.violations) >= 1

    @given(seed=seeds)
    def test_audit_is_pure(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint(rng)
        before = j.p.copy()
        first = audit(j)
        second = audit(j)
        assert first == second
        assert np.array_equal(j.p, before)


class TestSampler:
    @settings(max_examples=25)
    @given(seed=seeds, n=st.integers(min_value=1, max_value=300))
    def test_deterministic_and_prefix_stable(self, seed, n):
        rng = np.random.default_rng(seed)
        j = random_joint(rng, with_loss=bool(seed % 2))
        a = sample_events(j, n, seed=seed)
        b = sample_events(j, n, seed=seed)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.c_idx, b.c_idx)
        assert np.array_equal(a.d_idx, b.d_idx)
        longer = sample_events(j, n + 17, seed=seed)
        assert np.array_equal(longer.x[:n], a.x)
        assert np.array_equal(longer.d_idx[:n], a.d_idx)

    @settings(max_examples=10)
    @given(seed=seeds)
    def test_estimate_round_trip_supports_only_sampled_cells(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint(rng)
        log = sample_events(j, 5000, seed=seed)
        est = estimate_from_events(log)
        assert est.n_samples == 5000
        assert abs(est.p.sum() - 1.0) <= 1e-12
        # Estimated support never exceeds the true support.
        assert np.all(est.p[j.p == 0] == 0)


@settings(max_examples=5)
@given(seed=seeds)
def test_chunked_sampler_crosses_boundary(seed):
    rng = np.random.default_rng(seed)
    j = random_joint(rng)
    n = CHUNK_TRIALS + 13
    full = sample_events(j, n, seed=seed)
    head = sample_events(j, CHUNK_TRIALS - 5, seed=seed)
    assert np.array_equal(full.x[: CHUNK_TRIALS - 5], head.x)
