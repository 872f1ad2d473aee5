import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcqe import (
    InvalidArgument,
    JointDistribution,
    NegativeMass,
    NotNormalized,
    OutcomeSpace,
    ShapeMismatch,
    UnmappedLabel,
    ZeroConditioningMass,
    audit,
    coarse_grain,
    conditional_x_given_d,
    total_variation,
    validate,
)
from dcqe.io import audit_report_dict
from dcqe.joint import MAX_SAMPLES, NORMALIZATION_TOL


def uniform_222():
    space = OutcomeSpace(2, ("erase", "preserve"), ("D1", "D2"))
    return JointDistribution(space, np.full((2, 2, 2), 0.125))


class TestOutcomeSpace:
    def test_shape_and_counts(self):
        space = OutcomeSpace(4, ("erase", "preserve"), ("D1", "D2", "LOSS"))
        assert space.shape == (4, 2, 3)
        assert space.n_c == 2
        assert space.n_d == 3

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
            dict(n_x=2, c_values=("a", "b"), d_values=()),
            # csv cannot write a NUL before Python 3.11
            dict(n_x=2, c_values=("a", "a\x00b"), d_values=("D1", "D2")),
            dict(n_x=2, c_values=("a", "b"), d_values=("\x00", "D2")),
        ],
    )
    def test_rejects_malformed(self, kwargs):
        with pytest.raises(InvalidArgument):
            OutcomeSpace(**kwargs)

    # 3.0 was accepted with shape (3.0, 2, 2), and a log on it stored float16 cells
    @pytest.mark.parametrize("n_x", [3.0, 2.5, "4", True, None])
    def test_bin_count_must_be_an_integer(self, n_x):
        with pytest.raises(InvalidArgument, match="bin count must be an integer"):
            OutcomeSpace(n_x)

    def test_numpy_bin_counts_are_kept_as_int(self):
        space = OutcomeSpace(np.int64(3))
        assert type(space.n_x) is int and space.shape == (3, 2, 2)
        assert space == OutcomeSpace(3)

    # (0, 1) read back from a joint CSV as ("0", "1"), and "ab" was split
    @pytest.mark.parametrize("kwargs", [
        dict(c_values=(0, 1)), dict(d_values=("D1", 2)), dict(c_values="ab"), dict(d_values="D"),
    ], ids=["int_choices", "int_detection", "string_choices", "string_detection"])
    def test_labels_must_be_a_sequence_of_strings(self, kwargs):
        with pytest.raises(InvalidArgument, match="must be a sequence of strings"):
            OutcomeSpace(2, **kwargs)


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
        assert analytic.n_samples is None and analytic.counts is None
        empirical = JointDistribution(analytic.space, counts=np.full((2, 2, 2), 25))
        assert empirical.n_samples == 200
        assert np.array_equal(empirical.p, analytic.p) and empirical != analytic
        # a sample count is what the counts add up to, never a separate input
        with pytest.raises(TypeError, match="n_samples"):
            JointDistribution(analytic.space, analytic.p, n_samples=100)

    # 0 once divided by zero in the default tolerance, -5 took a negative
    # square root, and 2.5 and True gave tolerances of 1.897 and 3.0. As the
    # count of every cell they make an all-zero table, negative entries, and
    # float, bool and string dtypes.
    @pytest.mark.parametrize("n_samples", [0, -5, 2.5, True, np.bool_(True), "8", 8.0])
    def test_sample_count_must_be_a_positive_integer(self, n_samples):
        joint = uniform_222()
        with pytest.raises(InvalidArgument, match="counts must"):
            JointDistribution(joint.space, counts=np.full((2, 2, 2), n_samples))

    def test_numpy_integer_sample_count_is_stored_as_int(self):
        joint = uniform_222()
        empirical = JointDistribution(joint.space, counts=np.ones((2, 2, 2), dtype=np.uint8))
        assert type(empirical.n_samples) is int and empirical.n_samples == 8
        # a numpy integer in the report was not JSON serializable
        doc = json.loads(json.dumps(audit_report_dict(audit(empirical))))
        assert doc["n_samples"] == 8

    def test_counts_are_checked(self):
        space = uniform_222().space
        counts = np.full((2, 2, 2), 3)
        counts[1, 0, 1] = -1
        with pytest.raises(InvalidArgument, match="counts must be nonnegative"):
            JointDistribution(space, counts=counts)
        # an int64 total of 2**64 + 5 wrapped round to 5
        wrapping = np.array([2**62] * 4 + [5, 0, 0, 0]).reshape(2, 2, 2)
        for too_many in (wrapping, np.full((2, 2, 2), 2**48 + 1)):
            with pytest.raises(InvalidArgument, match="total from 1 to 2"):
                JointDistribution(space, counts=too_many)
        assert JointDistribution(space, counts=np.full((2, 2, 2), 2**48)).n_samples == 2**51
        with pytest.raises(ShapeMismatch):
            JointDistribution(space, counts=np.ones((2, 2, 3), dtype=int))
        for kwargs in ({}, {"p": np.full((2, 2, 2), 0.125), "counts": np.ones((2, 2, 2), int)}):
            with pytest.raises(InvalidArgument, match="not both or neither"):
                JointDistribution(space, **kwargs)

    def test_counts_are_a_read_only_copy(self):
        counts = np.arange(8, dtype=np.int32).reshape(2, 2, 2)
        joint = JointDistribution(uniform_222().space, counts=counts)
        counts[0, 0, 0] = 100
        assert joint.counts.dtype == np.intp and joint.counts.ravel().tolist() == list(range(8))
        assert joint.n_samples == 28 and joint.p.ravel().tolist() == [k / 28 for k in range(8)]
        for table in (joint.counts, joint.p):
            with pytest.raises(ValueError):
                table[0, 0, 0] = 1

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

    @settings(max_examples=150, deadline=None)
    @given(
        log_cells=st.floats(math.log10(8), 6),
        n_c=st.integers(2, 9),
        n_d=st.integers(1, 10),
        kind=st.sampled_from(["random", "one cell nearly all", "equal", "sparse"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_count_tables_pass_the_checks_they_skip(self, log_cells, n_c, n_d, kind, seed):
        # validate returns a count-built table unchecked, as it has no
        # negative cell and sums to 1 within the bound its docstring proves
        n_x = max(2, -(-8 // (n_c * n_d)), int(10**log_cells) // (n_c * n_d))
        space = OutcomeSpace(n_x, tuple(f"c{k}" for k in range(n_c)),
                             tuple(f"D{k}" for k in range(n_d)))
        size = math.prod(space.shape)
        rng = np.random.default_rng(seed)
        top = MAX_SAMPLES // size
        if kind == "random":
            counts = rng.integers(0, int(top ** rng.random()) + 1, size)
        elif kind == "one cell nearly all":
            counts = rng.integers(0, 3, size)
            cell = rng.integers(size)
            counts[cell] = 0
            counts[cell] = MAX_SAMPLES - counts.sum()
        elif kind == "equal":
            counts = np.full(size, top >> int(rng.integers(20)))
            counts[rng.random(size) < rng.random()] = 0
        else:
            counts = np.zeros(size, dtype=np.int64)
            k = int(rng.integers(1, 10))
            counts[rng.choice(size, k, replace=False)] = rng.integers(1, MAX_SAMPLES // k, k)
        counts[0] += counts.sum() == 0
        joint = JointDistribution(space, counts=counts.reshape(space.shape))
        assert 8 <= size <= 10**6 and joint.n_samples <= MAX_SAMPLES
        assert not np.any(joint.p < 0)
        error = abs(float(joint.p.sum()) - 1.0)
        assert error <= NORMALIZATION_TOL
        assert error <= (28 + max(0, math.ceil(math.log2(size / 128)))) * 2.0**-53
        assert validate(joint) is joint


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
        out = coarse_grain(joint, {d: d for d in joint.space.d_values})
        assert out.space.d_values == joint.space.d_values
        assert np.array_equal(out.p, joint.p)

    def test_pairing_preserves_xc_marginal(self):
        joint = self.make_kim_like()
        graining = {"D1": "D_erase", "D2": "D_erase", "D3": "D_preserve", "D4": "D_preserve"}
        out = coarse_grain(joint, graining)
        assert out.space.d_values == ("D_erase", "D_preserve")
        assert np.allclose(out.p.sum(axis=2), joint.p.sum(axis=2), atol=0)

    def test_merge_all_gives_marginal_conditional(self):
        joint = self.make_kim_like()
        out = coarse_grain(joint, dict.fromkeys(("D1", "D2", "D3", "D4"), "D_all"))
        assert out.space.n_d == 1
        assert np.allclose(
            conditional_x_given_d(out, "D_all"), joint.p.sum(axis=(1, 2)), atol=1e-15
        )

    def test_unmapped_label(self):
        joint = self.make_kim_like()
        with pytest.raises(UnmappedLabel):
            coarse_grain(joint, {"D1": "group"})

    def test_loss_must_map_to_itself(self):
        joint = self.make_kim_like()
        with pytest.raises(InvalidArgument):
            coarse_grain(joint, {"LOSS": "D_other"})

    def test_preserves_sample_count(self):
        joint = self.make_kim_like()
        counts = np.rint(joint.p * 500).astype(int)
        empirical = JointDistribution(joint.space, counts=counts)
        graining = {d: d for d in joint.space.d_values}
        out = coarse_grain(empirical, graining)
        assert out == empirical and np.array_equal(out.counts, counts)
        merged = coarse_grain(empirical, {"D1": "a", "D2": "a", "D3": "b", "D4": "b"})
        assert merged.n_samples == empirical.n_samples
        pooled = np.stack([counts[:, :, :2].sum(axis=2), counts[:, :, 2:].sum(axis=2)], axis=2)
        assert np.array_equal(merged.counts, pooled)

    def test_coarse_label_order_is_first_appearance(self):
        joint = self.make_kim_like()
        graining = {"D1": "late", "D2": "early", "D3": "early", "D4": "late"}
        out = coarse_grain(joint, graining)
        assert out.space.d_values == ("late", "early")
