import numpy as np
import pytest

from dcqe import (
    CoarseGraining,
    InvalidArgument,
    JointDistribution,
    NegativeMass,
    NotNormalized,
    OutcomeSpace,
    ShapeMismatch,
    UnmappedLabel,
    ZeroConditioningMass,
    coarse_grain,
    conditional_x_given_c,
    conditional_x_given_d,
    marginal,
    total_variation,
    validate,
)


def uniform_222():
    space = OutcomeSpace(2, ("erase", "preserve"), ("D1", "D2"))
    return JointDistribution(space, np.full((2, 2, 2), 0.125))


class TestOutcomeSpace:
    def test_shape_and_counts(self):
        space = OutcomeSpace(4, ("erase", "preserve"), ("D1", "D2", "LOSS"))
        assert space.shape == (4, 2, 3)
        assert space.n_c == 2
        assert space.n_d == 3
        assert space.x_bins == tuple(range(4))

    def test_loss_bookkeeping(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "LOSS", "D2"))
        assert space.has_loss
        assert space.loss_index == 1
        assert space.detected_indices == (0, 2)
        lossless = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        assert not lossless.has_loss
        assert lossless.loss_index is None
        assert lossless.detected_indices == (0, 1)

    def test_label_lookup(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        assert space.c_index("b") == 1
        assert space.d_index("D1") == 0
        with pytest.raises(InvalidArgument):
            space.c_index("nope")
        with pytest.raises(InvalidArgument):
            space.d_index("nope")

    def test_single_detection_label_allowed(self):
        space = OutcomeSpace(2, ("a", "b"), ("D_all",))
        assert space.n_d == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_x=1, c_values=("a", "b"), d_values=("D1", "D2")),
            dict(n_x=2, c_values=("a",), d_values=("D1", "D2")),
            dict(n_x=2, c_values=("a", "a"), d_values=("D1", "D2")),
            dict(n_x=2, c_values=("a", "b"), d_values=("D1", "D1")),
            dict(n_x=2, c_values=("a", "LOSS"), d_values=("D1", "D2")),
            dict(n_x=2, c_values=("a", "b"), d_values=("LOSS", "LOSS")),
        ],
    )
    def test_rejects_malformed(self, kwargs):
        with pytest.raises(InvalidArgument):
            OutcomeSpace(**kwargs)


class TestJointDistribution:
    def test_table_is_read_only(self):
        joint = uniform_222()
        with pytest.raises(ValueError):
            joint.p[0, 0, 0] = 1.0

    def test_shape_mismatch(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        with pytest.raises(ShapeMismatch):
            JointDistribution(space, np.zeros((3, 2, 2)))

    def test_empirical_flag(self):
        analytic = uniform_222()
        assert not analytic.is_empirical
        empirical = JointDistribution(analytic.space, analytic.p, n_samples=100)
        assert empirical.is_empirical
        assert empirical.n_samples == 100


class TestValidate:
    def test_uniform_ok(self):
        validate(uniform_222())

    def test_negative_mass_reports_first_cell(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        table = np.full((2, 2, 2), 0.15)
        table[1, 0, 1] = -0.1
        with pytest.raises(NegativeMass) as exc:
            validate(JointDistribution(space, table))
        assert (exc.value.x, exc.value.c, exc.value.d) == (1, "a", "D2")

    def test_all_zero_not_normalized(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        with pytest.raises(NotNormalized) as exc:
            validate(JointDistribution(space, np.zeros((2, 2, 2))))
        assert exc.value.total == 0.0

    def test_nan_mass_not_normalized(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        table = np.full((2, 2, 2), 0.125)
        table[1, 0, 1] = np.nan
        with pytest.raises(NotNormalized):
            validate(JointDistribution(space, table))

    def test_tolerance_is_tight(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        table = np.full((2, 2, 2), 0.125)
        table[0, 0, 0] += 1e-6
        with pytest.raises(NotNormalized):
            validate(JointDistribution(space, table))


class TestMarginal:
    def test_uniform_choice_marginal(self):
        assert np.array_equal(marginal(uniform_222(), "c"), np.array([0.5, 0.5]))

    def test_axis_order_is_canonical(self):
        rng = np.random.default_rng(0)
        space = OutcomeSpace(3, ("a", "b"), ("D1", "D2"))
        table = rng.random((3, 2, 2))
        table /= table.sum()
        joint = JointDistribution(space, table)
        assert np.allclose(marginal(joint, "dc"), marginal(joint, "cd"))
        assert marginal(joint, "cd").shape == (2, 2)
        assert np.allclose(marginal(joint, "xcd"), table)

    def test_bad_axes(self):
        joint = uniform_222()
        for axes in ("", "xx", "q"):
            with pytest.raises(InvalidArgument):
                marginal(joint, axes)


class TestConditionals:
    def test_conditional_given_d_normalized(self):
        rng = np.random.default_rng(1)
        space = OutcomeSpace(4, ("a", "b"), ("D1", "D2"))
        table = rng.random((4, 2, 2)) + 0.1
        table /= table.sum()
        joint = JointDistribution(space, table)
        cond = conditional_x_given_d(joint, "D2")
        assert cond.sum() == pytest.approx(1.0, abs=1e-12)
        expect = table[:, :, 1].sum(axis=1)
        assert np.allclose(cond, expect / expect.sum(), atol=1e-15)

    def test_zero_conditioning_mass(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = 0.25
        joint = JointDistribution(space, table)
        with pytest.raises(ZeroConditioningMass):
            conditional_x_given_d(joint, "D2")

    def test_conditional_given_c(self):
        joint = uniform_222()
        assert np.allclose(conditional_x_given_c(joint, "erase"), [0.5, 0.5])


class TestTotalVariation:
    def test_identical_is_zero(self):
        a = np.array([0.2, 0.3, 0.5])
        assert total_variation(a, a) == 0.0

    def test_disjoint_is_one(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_opposite_phase_fringe_pair(self):
        a = np.array([0.5, 0.25, 0.0, 0.25])
        b = np.array([0.0, 0.25, 0.5, 0.25])
        assert total_variation(a, b) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            total_variation(np.array([1.0]), np.array([0.5, 0.5]))


class TestCoarseGrain:
    def make_kim_like(self):
        rng = np.random.default_rng(3)
        space = OutcomeSpace(4, ("erase", "preserve"), ("D1", "D2", "D3", "D4"))
        table = rng.random((4, 2, 4)) + 0.05
        table /= table.sum()
        return JointDistribution(space, table)

    def test_identity_partition(self):
        joint = self.make_kim_like()
        identity = CoarseGraining.from_dict({d: d for d in joint.space.d_values})
        out = coarse_grain(joint, identity)
        assert out.space.d_values == joint.space.d_values
        assert np.array_equal(out.p, joint.p)

    def test_pairing_preserves_xc_marginal(self):
        joint = self.make_kim_like()
        graining = CoarseGraining.from_groups(
            {"D_erase": ("D1", "D2"), "D_preserve": ("D3", "D4")}
        )
        out = coarse_grain(joint, graining)
        assert out.space.d_values == ("D_erase", "D_preserve")
        assert np.allclose(marginal(out, "xc"), marginal(joint, "xc"), atol=0)

    def test_merge_all_gives_marginal_conditional(self):
        joint = self.make_kim_like()
        graining = CoarseGraining.from_groups({"D_all": ("D1", "D2", "D3", "D4")})
        out = coarse_grain(joint, graining)
        assert out.space.n_d == 1
        assert np.allclose(
            conditional_x_given_d(out, "D_all"), marginal(joint, "x"), atol=1e-15
        )

    def test_unmapped_label(self):
        joint = self.make_kim_like()
        partial = CoarseGraining.from_dict({"D1": "group"})
        with pytest.raises(UnmappedLabel):
            coarse_grain(joint, partial)

    def test_loss_must_map_to_itself(self):
        with pytest.raises(InvalidArgument):
            CoarseGraining.from_dict({"LOSS": "D_other"})

    def test_preserves_sample_count(self):
        joint = self.make_kim_like()
        empirical = JointDistribution(joint.space, joint.p, n_samples=500)
        graining = CoarseGraining.from_dict({d: d for d in joint.space.d_values})
        assert coarse_grain(empirical, graining).n_samples == 500

    def test_coarse_label_order_is_first_appearance(self):
        joint = self.make_kim_like()
        graining = CoarseGraining.from_dict(
            {"D1": "late", "D2": "early", "D3": "early", "D4": "late"}
        )
        out = coarse_grain(joint, graining)
        assert out.space.d_values == ("late", "early")
