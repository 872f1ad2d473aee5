"""Property-based checks over randomly generated joints.

Each test draws a seed and builds its inputs with numpy's generator, so
failures shrink to a single reproducible integer.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcqe import (
    CHUNK_TRIALS,
    JointDistribution,
    OutcomeSpace,
    audit,
    build_kim,
    build_mach_zehnder,
    build_passive_choice,
    build_polarization,
    check_deterministic_routing,
    check_distinct_conditionals,
    check_independence,
    check_lossless,
    coarse_grain,
    conditional_x_given_d,
    default_fringe_model,
    estimate_from_events,
    kim_coarse_graining,
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


@functools.cache
def paper_tables():
    m = default_fringe_model()
    kim = build_kim(m)
    return {
        "kim": kim,
        "kim_coarse": coarse_grain(kim, kim_coarse_graining()),
        "mach_zehnder": build_mach_zehnder(m, 0.5),
        "polarization": build_polarization(m, 0.5),
        "passive_choice": build_passive_choice(m),
    }


def relabelled(joint, rng):
    """``joint`` with its X, C and D axes each permuted at random, labels
    and all, and the bin permutation: new bin i is old bin ``px[i]``."""
    px, pc, pd = (rng.permutation(k) for k in joint.space.shape)
    space = OutcomeSpace(joint.space.n_x, [joint.space.c_values[i] for i in pc],
                         [joint.space.d_values[i] for i in pd])
    if joint.counts is None:
        return JointDistribution(space, joint.p[np.ix_(px, pc, pd)]), px
    return JointDistribution(space, counts=joint.counts[np.ix_(px, pc, pd)]), px


#: Scores this close are ties: a relabelled table sums its masses in
#: another order, which moves them in their last bits.
SLACK = 1e-12


def assert_near_argmax(scores, picked, expected):
    """``picked`` scores within ``SLACK`` of the best of ``scores``; when no
    other key comes that close, it is ``expected`` (unless that is None)."""
    best = max(scores.values())
    assert scores[picked] >= best - SLACK, (picked, scores[picked], best)
    if expected is not None and sum(v >= best - SLACK for v in scores.values()) == 1:
        assert picked == expected


class TestRelabelling:
    """Permuting the X, C and D axes of a paper table changes no verdict,
    and each witness moves with its labels: it names the relabelled form of
    the original's witness, or, where the original has near-ties, one that
    scores as well on the original table."""

    @staticmethod
    def assert_same_audit(joint, moved, px, **level):
        before, after = audit(joint, **level), audit(moved, **level)
        assert after.violations == before.violations
        assert (after.tolerance, after.n_samples, after.alpha) == (
            before.tolerance, before.n_samples, before.alpha)
        for old, new in zip(before.verdicts, after.verdicts):
            assert (new.holds, new.tolerance) == (old.holds, old.tolerance), new.check
            assert math.isclose(new.statistic, old.statistic, rel_tol=1e-9, abs_tol=1e-14)
            if "p_value" in old.detail:
                assert new.detail["df"] == old.detail["df"]
                assert math.isclose(new.detail["p_value"], old.detail["p_value"], rel_tol=1e-6)
            if "skipped_choices" in old.detail:
                assert sorted(new.detail["skipped_choices"]) == sorted(old.detail["skipped_choices"])
        space, p = joint.space, joint.p

        # independence: the (x, c) cell of largest |p(x,c) - p(x) p(c)|
        p_xc = p.sum(axis=2)
        deviation = np.abs(p_xc - np.outer(p_xc.sum(axis=1), p_xc.sum(axis=0)))
        scores = {(x, c): deviation[x, k] for x in range(space.n_x) for k, c in enumerate(space.c_values)}
        w_old, w_new = before.independence.detail["witness"], after.independence.detail["witness"]
        assert_near_argmax(scores, (int(px[w_new["x"]]), w_new["c"]), (w_old["x"], w_old["c"]))

        # routing: the same map, or a worst choice and its two detectors
        detected = list(space.detected_indices)
        cond = {}
        for k, c in enumerate(space.c_values):
            mass = p[:, k, detected].sum(axis=0)
            if mass.sum() > 0.0:
                cond[c] = dict(zip((space.d_values[d] for d in detected), mass / mass.sum()))
        old, new = before.deterministic_routing.detail, after.deterministic_routing.detail
        assert new["routing"] == old["routing"]
        if new["counterexample"] is not None:
            c_old, c_new = old["counterexample"], new["counterexample"]
            strays = {c: 1.0 - max(row.values()) for c, row in cond.items()}
            assert_near_argmax(strays, c_new["c"], c_old["c"])
            same = c_new["c"] == c_old["c"]
            row = cond[c_new["c"]]
            assert_near_argmax(row, c_new["d"], c_old["d"] if same else None)
            if len(row) > 1:
                rest = {d: v for d, v in row.items() if d != c_new["d"]}
                same = same and c_new["d"] == c_old["d"]
                assert_near_argmax(rest, c_new["d_prime"], c_old["d_prime"] if same else None)

        # distinctness: the pair of largest total variation, and the bins
        # where the first conditional exceeds the second
        conditionals = {}
        for d in detected:
            mass = p[:, :, d].sum(axis=1)
            if mass.sum() > 0.0:
                conditionals[space.d_values[d]] = mass / mass.sum()
        pairs = {
            frozenset((a, b)): 0.5 * float(np.abs(conditionals[a] - conditionals[b]).sum())
            for a in conditionals for b in conditionals if a < b
        }
        w_old = before.distinct_conditionals.detail["witness"]
        w_new = after.distinct_conditionals.detail["witness"]
        assert_near_argmax(pairs, frozenset((w_new["d"], w_new["d_prime"])),
                           frozenset((w_old["d"], w_old["d_prime"])))
        diff = conditionals[w_new["d"]] - conditionals[w_new["d_prime"]]
        bins = {int(px[x]) for x in w_new["bin_set"]}
        assert set(np.flatnonzero(diff > SLACK).tolist()) <= bins
        assert not bins & set(np.flatnonzero(diff < -SLACK).tolist())
        assert math.isclose(w_new["gap"], w_old["gap"], rel_tol=1e-9, abs_tol=1e-14)

    @pytest.mark.parametrize("path", ["exact", "tolerance", "alpha"])
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, name=st.sampled_from(sorted(paper_tables())),
           n=st.sampled_from([10**3, 10**4]))
    def test_relabelling_moves_witnesses_and_keeps_verdicts(self, path, seed, name, n):
        joint = paper_tables()[name]
        if path != "exact":
            joint = estimate_from_events(sample_events(joint, n, seed))
        moved, px = relabelled(joint, np.random.default_rng(seed))
        level = {"alpha": 1e-6} if path == "alpha" else {}
        self.assert_same_audit(joint, moved, px, **level)
