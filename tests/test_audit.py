import math

import numpy as np
import pytest

from dcqe import (
    AllMassLost,
    InsufficientOutcomes,
    InvalidArgument,
    JointDistribution,
    NotNormalized,
    OutcomeSpace,
    audit,
    check_deterministic_routing,
    check_distinct_conditionals,
    check_independence,
    check_lossless,
    default_tolerance,
)


def product_joint(p_x, p_c, kernel, d_values):
    """p(x,c,d) = P(x) P(c) P(d|c): independent by construction."""
    p_x = np.asarray(p_x)
    p_c = np.asarray(p_c)
    kernel = np.asarray(kernel)
    table = p_x[:, None, None] * p_c[None, :, None] * kernel[None, :, :]
    space = OutcomeSpace(
        len(p_x), tuple(f"c{k}" for k in range(len(p_c))), tuple(d_values)
    )
    return JointDistribution(space, table)


class TestDefaultTolerance:
    def test_analytic(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        joint = JointDistribution(space, np.full((2, 2, 2), 0.125))
        assert default_tolerance(joint) == 1e-9

    def test_empirical_scales_with_samples(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        joint = JointDistribution(space, np.full((2, 2, 2), 0.125), n_samples=900)
        assert default_tolerance(joint) == pytest.approx(3 / 30)


class TestIndependence:
    def test_product_distribution_holds(self):
        joint = product_joint(
            [0.1, 0.2, 0.7], [0.4, 0.6], [[0.5, 0.5], [0.2, 0.8]], ("D1", "D2")
        )
        verdict = check_independence(joint)
        assert verdict.holds
        assert verdict.max_deviation <= 1e-12

    def test_correlated_fails_with_argmax_witness(self):
        # P(x=0,c=0)=0.4 while P(x=0)P(c=0)=0.25: deviation 0.15 at (0, a)
        space = OutcomeSpace(2, ("a", "b"), ("D1",))
        table = np.array([[[0.4], [0.1]], [[0.1], [0.4]]])
        verdict = check_independence(JointDistribution(space, table))
        assert not verdict.holds
        assert verdict.max_deviation == pytest.approx(0.15, abs=1e-15)
        assert verdict.witness == (0, "a")

    def test_zero_mass_choice_skipped(self):
        space = OutcomeSpace(2, ("a", "b", "ghost"), ("D1", "D2"))
        table = np.zeros((2, 3, 2))
        table[:, :2, :] = 0.125
        verdict = check_independence(JointDistribution(space, table))
        assert verdict.holds
        assert verdict.skipped_choices == ("ghost",)


class TestLossless:
    def test_no_loss_label_holds(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        verdict = check_lossless(JointDistribution(space, np.full((2, 2, 2), 0.125)))
        assert verdict.holds
        assert verdict.loss_mass == 0.0

    def test_loss_with_mass_fails(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "LOSS"))
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = 0.2
        table[:, :, 1] = 0.05
        verdict = check_lossless(JointDistribution(space, table))
        assert not verdict.holds
        assert verdict.loss_mass == pytest.approx(0.2, abs=1e-15)

    def test_loss_label_with_zero_mass_holds(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "LOSS"))
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = 0.25
        assert check_lossless(JointDistribution(space, table)).holds


class TestRouting:
    def test_deterministic_table_holds(self):
        joint = product_joint(
            [0.3, 0.7], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], ("D1", "D2")
        )
        verdict = check_deterministic_routing(joint)
        assert verdict.holds
        assert verdict.routing.as_dict() == {"c0": "D1", "c1": "D2"}
        assert verdict.counterexample is None
        assert verdict.max_stray_mass == 0.0

    def test_split_choice_fails_with_counterexample(self):
        # c0 splits 60/40 between D1 and D2
        joint = product_joint(
            [0.5, 0.5], [0.5, 0.5], [[0.6, 0.4], [0.0, 1.0]], ("D1", "D2")
        )
        verdict = check_deterministic_routing(joint)
        assert not verdict.holds
        assert verdict.routing is None
        assert verdict.counterexample == ("c0", "D1", "D2")
        assert verdict.max_stray_mass == pytest.approx(0.4, abs=1e-15)

    def test_loss_excluded_from_routing(self):
        # every detected c0 event lands on D1; the loss mass must not count
        space = OutcomeSpace(2, ("c0", "c1"), ("D1", "D2", "LOSS"))
        table = np.zeros((2, 2, 3))
        table[:, 0, 0] = 0.1
        table[:, 0, 2] = 0.15
        table[:, 1, 1] = 0.25
        verdict = check_deterministic_routing(JointDistribution(space, table))
        assert verdict.holds
        assert verdict.routing.as_dict() == {"c0": "D1", "c1": "D2"}

    def test_all_mass_lost_raises(self):
        space = OutcomeSpace(2, ("c0", "c1"), ("D1", "LOSS"))
        table = np.zeros((2, 2, 2))
        table[:, 0, 1] = 0.25
        table[:, 1, 0] = 0.25
        with pytest.raises(AllMassLost) as exc:
            check_deterministic_routing(JointDistribution(space, table))
        assert exc.value.c == "c0"

    def test_zero_mass_choice_skipped(self):
        space = OutcomeSpace(2, ("c0", "c1", "ghost"), ("D1", "D2"))
        table = np.zeros((2, 3, 2))
        table[:, 0, 0] = 0.25
        table[:, 1, 1] = 0.25
        verdict = check_deterministic_routing(JointDistribution(space, table))
        assert verdict.holds
        assert verdict.skipped_choices == ("ghost",)
        assert "ghost" not in verdict.routing.as_dict()


class TestDistinctness:
    def test_single_detected_label_raises(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = 0.25
        with pytest.raises(InsufficientOutcomes):
            check_distinct_conditionals(JointDistribution(space, table))

    def test_equal_conditionals_fail(self):
        joint = product_joint(
            [0.3, 0.7], [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], ("D1", "D2")
        )
        verdict = check_distinct_conditionals(joint)
        assert not verdict.holds
        assert verdict.gap <= 1e-12

    def test_distinct_pair_witness(self):
        # dust-free table: conditionals are the opposite-phase fringe pair
        space = OutcomeSpace(4, ("a", "b"), ("D1", "D2"))
        table = np.zeros((4, 2, 2))
        table[:, 0, 0] = np.array([0.5, 0.25, 0.0, 0.25]) / 2
        table[:, 1, 1] = np.array([0.0, 0.25, 0.5, 0.25]) / 2
        verdict = check_distinct_conditionals(JointDistribution(space, table))
        assert verdict.holds
        assert verdict.gap == 0.5
        assert verdict.pair == ("D1", "D2")
        assert verdict.bin_set == (0,)

    def test_gap_equals_mass_over_bin_set(self):
        rng = np.random.default_rng(7)
        space = OutcomeSpace(5, ("a", "b"), ("D1", "D2", "D3"))
        table = rng.random((5, 2, 3)) + 0.02
        table /= table.sum()
        joint = JointDistribution(space, table)
        verdict = check_distinct_conditionals(joint)
        d, d2 = verdict.pair
        a = table[:, :, space.d_index(d)].sum(axis=1)
        b = table[:, :, space.d_index(d2)].sum(axis=1)
        a, b = a / a.sum(), b / b.sum()
        assert verdict.gap == pytest.approx((a - b)[list(verdict.bin_set)].sum(), abs=1e-12)

    def test_loss_excluded_from_pairs(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2", "LOSS"))
        table = np.zeros((2, 2, 3))
        # identical detected conditionals; loss has a wildly different shape
        table[:, 0, 0] = np.array([0.1, 0.1])
        table[:, 1, 1] = np.array([0.1, 0.1])
        table[0, 0, 2] = 0.6
        verdict = check_distinct_conditionals(JointDistribution(space, table))
        assert not verdict.holds


class TestAudit:
    def test_invalid_joint_rejected(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        with pytest.raises(NotNormalized):
            audit(JointDistribution(space, np.full((2, 2, 2), 0.2)))

    def test_report_consistency_flag(self):
        joint = product_joint(
            [0.3, 0.7], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], ("D1", "D2")
        )
        report = audit(joint)
        # independence, lossless, routing all hold, so distinctness cannot
        assert report.independence.holds
        assert report.lossless.holds
        assert report.deterministic_routing.holds
        assert not report.distinct_conditionals.holds
        assert report.no_go_consistent
        assert report.violations == ("distinct_conditionals",)

    def test_tolerance_threads_through(self):
        joint = product_joint(
            [0.5, 0.5], [0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], ("D1", "D2")
        )
        strict = audit(joint, tol=1e-3)
        loose = audit(joint, tol=0.2)
        assert not strict.deterministic_routing.holds
        assert loose.deterministic_routing.holds
        assert strict.tolerance == 1e-3

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        joint = product_joint([0.5, 0.5], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], ("D1", "D2"))
        with pytest.raises(InvalidArgument, match="tolerance must be finite and positive"):
            audit(joint, tol=tol)

    def test_audit_is_pure(self):
        joint = product_joint(
            [0.2, 0.8], [0.5, 0.5], [[0.7, 0.3], [0.3, 0.7]], ("D1", "D2")
        )
        assert audit(joint) == audit(joint)

    def test_as_dict_shape(self):
        joint = product_joint(
            [0.3, 0.7], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], ("D1", "D2")
        )
        doc = audit(joint).as_dict()
        assert set(doc) == {
            "independence",
            "lossless",
            "deterministic_routing",
            "distinct_conditionals",
            "violations",
            "no_go_consistent",
            "tolerance",
            "n_samples",
        }
        assert doc["independence"]["holds"] is True
        assert doc["deterministic_routing"]["routing"] == {"c0": "D1", "c1": "D2"}
        assert doc["distinct_conditionals"]["holds"] is False
