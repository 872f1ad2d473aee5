import numpy as np
import pytest

from dcqe import (
    CHUNK_TRIALS,
    EmptyLog,
    EventLog,
    FringeModel,
    InvalidArgument,
    JointDistribution,
    OutcomeSpace,
    audit,
    build_kim,
    default_fringe_model,
    estimate_from_events,
    sample_events,
)

from conftest import FOUR_BIN_PHASE0


def uniform_222():
    space = OutcomeSpace(2, ("erase", "preserve"), ("D1", "D2"))
    return JointDistribution(space, np.full((2, 2, 2), 0.125))


class TestEventLog:
    def test_derived_axes(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        log = EventLog(space, np.ravel_multi_index(([1, 0], [0, 1], [1, 0]), space.shape))
        assert log.x.tolist() == [1, 0]
        assert log.c_idx.tolist() == [0, 1]
        assert log.d_idx.tolist() == [1, 0]
        assert len(log) == 2

    def test_cells_are_a_read_only_copy(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        cells = np.array([3, 5])
        log = EventLog(space, cells)
        cells[0] = 0
        assert log.cells.tolist() == [3, 5]
        assert not log.cells.flags.writeable

    def test_rejects_non_1d_cells(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        with pytest.raises(InvalidArgument):
            EventLog(space, np.array([[0, 1], [2, 3]]))
        with pytest.raises(InvalidArgument):
            EventLog(space, np.array(0))

    def test_rejects_out_of_range(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        with pytest.raises(InvalidArgument):
            EventLog(space, np.array([-1]))
        with pytest.raises(InvalidArgument):
            EventLog(space, np.array([2 * 2 * 2]))

    def test_counts_match_events(self):
        log = sample_events(uniform_222(), 1000, 3)
        counts = log.counts()
        assert counts.shape == (2, 2, 2)
        assert counts.sum() == 1000


class TestSampleEvents:
    def test_deterministic(self):
        joint = uniform_222()
        a = sample_events(joint, 5000, 42)
        b = sample_events(joint, 5000, 42)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.c_idx, b.c_idx)
        assert np.array_equal(a.d_idx, b.d_idx)

    def test_seed_changes_stream(self):
        joint = uniform_222()
        a = sample_events(joint, 1000, 0)
        b = sample_events(joint, 1000, 1)
        assert not np.array_equal(a.x, b.x)

    def test_prefix_property_across_chunks(self):
        # a shorter run is an exact prefix of a longer one, even when the
        # longer run spans more sampling chunks
        joint = uniform_222()
        n_short = CHUNK_TRIALS + 64
        short = sample_events(joint, n_short, 3)
        long = sample_events(joint, n_short + 4400, 3)
        assert np.array_equal(short.x, long.x[:n_short])
        assert np.array_equal(short.c_idx, long.c_idx[:n_short])
        assert np.array_equal(short.d_idx, long.d_idx[:n_short])

    def test_requires_positive_count(self):
        with pytest.raises(InvalidArgument):
            sample_events(uniform_222(), 0, 1)

    def test_never_emits_zero_mass_cells(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        table = np.zeros((2, 2, 2))
        table[:, 0, 0] = 0.25
        table[:, 1, 1] = 0.25
        log = sample_events(JointDistribution(space, table), 20000, 5)
        counts = log.counts()
        assert counts[:, 0, 1].sum() == 0
        assert counts[:, 1, 0].sum() == 0


class TestEstimateFromEvents:
    def test_single_record_point_mass(self):
        space = OutcomeSpace(2, ("erase", "preserve"), ("D1", "D2"))
        log = EventLog(space, np.ravel_multi_index(([0], [0], [0]), space.shape))
        est = estimate_from_events(log)
        assert est.p[0, 0, 0] == 1.0
        assert est.p.sum() == 1.0
        assert est.n_samples == 1

    def test_empty_log_raises(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        none = np.array([], dtype=int)
        empty = EventLog(space, np.ravel_multi_index((none, none, none), space.shape))
        with pytest.raises(EmptyLog):
            estimate_from_events(empty)

    def test_uniform_cells_converge(self):
        est = estimate_from_events(sample_events(uniform_222(), 10**6, 11))
        assert np.max(np.abs(est.p - 0.125)) <= 0.005

    def test_large_run_total_variation(self):
        joint = build_kim(default_fringe_model())
        est = estimate_from_events(sample_events(joint, 10**6, 5))
        assert 0.5 * np.sum(np.abs(est.p - joint.p)) <= 0.01

    @pytest.mark.parametrize("n", [10**4, 10**6])
    def test_per_cell_concentration(self, n):
        joint = build_kim(FringeModel(4, 1.0, FOUR_BIN_PHASE0))
        est = estimate_from_events(sample_events(joint, n, 17))
        assert np.max(np.abs(est.p - joint.p)) <= 3 / np.sqrt(n)

    def test_round_trip_audit_matches_analytic(self):
        joint = build_kim(default_fringe_model())
        analytic = audit(joint)
        est = estimate_from_events(sample_events(joint, 10**6, 23))
        empirical = audit(est, tol=0.02)
        assert empirical.violations == analytic.violations
        for name in ("independence", "lossless", "deterministic_routing", "distinct_conditionals"):
            assert getattr(empirical, name).holds == getattr(analytic, name).holds
