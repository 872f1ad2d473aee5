import numpy as np
import pytest

from dcqe import (
    FringeModel,
    InvalidArgument,
    ShapeMismatch,
    audit,
    build_polarization,
    conditional_x_given_d,
    route_by_region,
    sample_events,
    validate,
)


def left_half_mask(n_x=8):
    return [1] * (n_x // 2) + [0] * (n_x // 2)


class TestRouteByRegion:
    def test_left_half_flat(self):
        joint = route_by_region(left_half_mask(), np.full(8, 0.125))
        validate(joint)
        assert np.allclose(joint.p.sum(axis=(0, 1)), 0.5, atol=0)
        cond = conditional_x_given_d(joint, "D1")
        assert np.allclose(cond, [0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0], atol=0)

    def test_marginal_equals_base_exactly(self):
        rng = np.random.default_rng(4)
        base = rng.random(8)
        base /= base.sum()
        joint = route_by_region(left_half_mask(), base)
        assert np.array_equal(joint.p.sum(axis=(1, 2)), base)

    def test_choice_axis_mirrors_detection(self):
        joint = route_by_region(left_half_mask(), np.full(8, 0.125))
        assert joint.space.c_values == joint.space.d_values
        assert np.all(joint.p[:, 0, 1] == 0)
        assert np.all(joint.p[:, 1, 0] == 0)

    def test_audit_flags_independence_only(self):
        report = audit(route_by_region(left_half_mask(), np.full(8, 0.125)))
        assert report.violations == ("independence",)
        assert report.no_go_consistent

    @pytest.mark.parametrize("bits", [[1, 1, 1], [0, 0, 0], []])
    def test_rejects_trivial_masks(self, bits):
        with pytest.raises(InvalidArgument, match="at least one bin and exclude another"):
            route_by_region(bits, np.full(3, 1 / 3))

    @pytest.mark.parametrize(
        "bits", [[0, 2, 1], [0, 0.5, 1], [0, np.nan, 1], [[0, 1], [1, 0]]],
        ids=["two", "half", "nan", "2-d"],
    )
    def test_rejects_non_binary(self, bits):
        with pytest.raises(InvalidArgument, match="mask bits must be 0 or 1"):
            route_by_region(bits, np.full(3, 1 / 3))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            route_by_region(left_half_mask(8), np.full(4, 0.25))

    def test_base_must_be_distribution(self):
        with pytest.raises(InvalidArgument):
            route_by_region(left_half_mask(), np.full(8, 1.0))
        with pytest.raises(InvalidArgument):
            route_by_region(left_half_mask(), np.array([0.5, -0.5, 0.5, 0.5, 0, 0, 0, 0]))


class TestCoincidenceImage:
    """Coincidence images are the per-detector rows of ``log.counts().sum(axis=1).T``."""

    def test_partition_is_exact(self):
        member = np.array([0, 1, 0, 1, 1, 0, 0, 0], dtype=bool)
        joint = route_by_region(member, np.full(8, 0.125))
        log = sample_events(joint, 10**4, 21)
        inside, outside = log.counts().sum(axis=1).T
        assert inside[~member].sum() == 0
        assert outside[member].sum() == 0
        assert inside.sum() + outside.sum() == len(log)

    def test_half_mask_counts_within_3_sigma(self):
        joint = route_by_region(left_half_mask(), np.full(8, 0.125))
        n = 10**5
        inside, outside = sample_events(joint, n, 8).counts().sum(axis=1).T
        expect = n / 8
        sigma = np.sqrt(n * (1 / 8) * (7 / 8))
        for count in list(inside[:4]) + list(outside[4:]):
            assert abs(count - expect) <= 3 * sigma

    def test_loss_events_ignored(self):
        joint = build_polarization(FringeModel(n_x=8, cycles=1.0), 0.5)
        log = sample_events(joint, 5000, 2)
        images = log.counts().sum(axis=1).T[list(log.space.detected_indices)]
        n_lost = int(np.sum(log.d_idx == log.space.loss_index))
        assert images.shape == (2, 8)
        assert images.sum() == len(log) - n_lost
