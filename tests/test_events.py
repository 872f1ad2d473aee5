import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcqe import (
    CHUNK_TRIALS,
    EmptyLog,
    EventLog,
    FringeModel,
    InvalidArgument,
    JointDistribution,
    NegativeMass,
    OutcomeSpace,
    audit,
    build_kim,
    build_mach_zehnder,
    build_passive_choice,
    build_polarization,
    coarse_grain,
    default_fringe_model,
    estimate_from_events,
    kim_coarse_graining,
    sample_events,
)
import dcqe.events
from dcqe.events import SLICE_WORDS, _chunk_bits, cell_dtype
from dcqe.io import read_event_log, write_event_log

from conftest import FOUR_BIN_PHASE0


def uniform_222():
    space = OutcomeSpace(2, ("erase", "preserve"), ("D1", "D2"))
    return JointDistribution(space, np.full((2, 2, 2), 0.125))


def assert_counted(log):
    """``log.counts()`` is the ``bincount`` of its cells, shaped to its
    space, and an owned, writeable ``intp`` array."""
    counts = log.counts()
    assert counts.shape == log.space.shape and counts.dtype == np.intp
    assert counts.flags.owndata and counts.flags.writeable
    expected = np.bincount(log.cells, minlength=math.prod(log.space.shape))
    assert np.array_equal(counts.reshape(-1), expected)


class TestEventLog:
    def test_derived_axes(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        log = EventLog(space, np.ravel_multi_index(([1, 0], [0, 1], [1, 0]), space.shape))
        assert log.x.tolist() == [1, 0]
        assert log.c_idx.tolist() == [0, 1]
        assert log.d_idx.tolist() == [1, 0]
        assert len(log) == 2

    def test_logs_compare_by_space_and_cells(self):
        # the generated == compared the cell arrays' truth value and raised
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        log = EventLog(space, [0, 1, 2])
        assert log == EventLog(space, np.array([0, 1, 2], dtype=np.int64))
        assert log != EventLog(space, [0, 1, 3])
        assert log != EventLog(OutcomeSpace(2, ("a", "c"), ("D1", "D2")), [0, 1, 2])
        with pytest.raises(TypeError):
            hash(log)

    def test_cells_are_a_read_only_copy(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        cells = np.array([3, 5])
        log = EventLog(space, cells)
        cells[0] = 0
        assert log.cells.tolist() == [3, 5]
        assert not log.cells.flags.writeable

    @pytest.mark.parametrize("n_cells, dtype", [
        (2, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16),
        (65_537, np.uint32), (2**32, np.uint32), (2**32 + 1, np.intp),
    ])
    def test_cell_dtype_edges(self, n_cells, dtype):
        # the largest cell index, n_cells - 1, sets the dtype
        assert cell_dtype(n_cells) == np.dtype(dtype)

    @pytest.mark.parametrize("n_x, dtype", [
        (128, np.uint8), (129, np.uint16), (32_768, np.uint16), (32_769, np.uint32),
    ])
    def test_cells_are_stored_compact(self, n_x, dtype):
        space = OutcomeSpace(n_x, ("a", "b"), ("D1",))
        top = 2 * n_x - 1
        log = EventLog(space, [0, top])
        assert log.cells.dtype == dtype and log.cells.tolist() == [0, top]
        assert log.x.tolist() == [0, n_x - 1] and log.c_idx.tolist() == [0, 1]
        for axis in (log.x, log.c_idx, log.d_idx):
            assert axis.dtype == np.intp

    def test_a_space_past_uint32_keeps_intp_cells(self):
        space = OutcomeSpace(2**31 + 1, ("a", "b"), ("D1",))
        log = EventLog(space, [2**32 + 1])
        assert log.cells.dtype == np.intp and log.x.tolist() == [2**31]

    def test_read_only_owned_cells_are_kept(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        cells = np.array([3, 5], dtype=np.uint8)
        cells.setflags(write=False)
        assert EventLog(space, cells).cells is cells
        sampled = sample_events(uniform_222(), 1000, 2)
        assert sampled.cells.base is None and not sampled.cells.flags.writeable
        assert sampled.cells.dtype == np.uint8

    def test_read_only_views_and_other_dtypes_are_copied(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        owner = np.array([3, 5, 1], dtype=np.uint8)
        view = owner[:2]
        view.setflags(write=False)
        wide = np.array([3, 5], dtype=np.intp)
        wide.setflags(write=False)
        narrow = np.array([3, 5], dtype=np.int32)
        narrow.setflags(write=False)
        writable = np.array([3, 5], dtype=np.uint8)
        for cells in (view, wide, narrow, writable):
            log = EventLog(space, cells)
            assert log.cells is not cells and log.cells.base is None
            assert log.cells.dtype == np.uint8 and not log.cells.flags.writeable
        log = EventLog(space, view)
        owner[0] = 0
        assert log.cells.tolist() == [3, 5]

    def test_negative_cells_do_not_wrap(self):
        # each of these is a valid uint8 cell once wrapped; the space has 8 cells
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        for cells in ([-1], np.array([-1], dtype=np.int8), [256],
                      np.array([2**64 - 1], dtype=np.uint64)):
            with pytest.raises(InvalidArgument):
                EventLog(space, cells)

    @pytest.mark.parametrize("cells", [
        [0.5, 1.7], np.array([1.0, 2.0]), np.array([True, False]), [2**64], [-1, 2**63],
    ], ids=["floats", "integral-floats", "bools", "past-uint64", "object"])
    def test_non_integer_cells_are_refused(self, cells):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        with pytest.raises(InvalidArgument, match="integers"):
            EventLog(space, cells)

    def test_an_empty_list_is_an_empty_log(self):
        # numpy reads [] as float64, which holds no non-integer cell
        log = EventLog(OutcomeSpace(2, ("a", "b"), ("D1", "D2")), [])
        assert len(log) == 0 and log.cells.dtype == np.uint8

    def test_kept_cells_are_range_checked(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        cells = np.array([0, 8], dtype=np.intp)
        cells.setflags(write=False)
        with pytest.raises(InvalidArgument):
            EventLog(space, cells)

    def test_unsigned_cells_past_the_space_raise(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        kept = np.array([0, 8], dtype=np.uint8)
        kept.setflags(write=False)
        for cells in (kept, np.array([8], dtype=np.uint16), np.array([2**32], dtype=np.uint64)):
            with pytest.raises(InvalidArgument, match="out of range"):
                EventLog(space, cells)

    def test_signed_minus_one_raises_on_intp_cells(self):
        # a space past uint32, so read-only intp cells are kept and the sign is checked
        space = OutcomeSpace(2**31 + 1, ("a", "b"), ("D1",))
        kept = np.array([0, -1], dtype=np.intp)
        kept.setflags(write=False)
        for cells in (kept, [-1], np.array([-1], dtype=np.int8)):
            with pytest.raises(InvalidArgument, match="out of range"):
                EventLog(space, cells)

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

    @pytest.mark.parametrize("n_x", [2, 3 * CHUNK_TRIALS])
    def test_counts_over_several_slices(self, n_x):
        space = OutcomeSpace(n_x, ("a", "b"), ("D1",))
        cells = np.random.default_rng(4).integers(0, 2 * n_x, size=2 * CHUNK_TRIALS * 3 + 17)
        counts = EventLog(space, cells).counts()
        assert np.array_equal(counts.reshape(-1), np.bincount(cells, minlength=2 * n_x))
        assert not EventLog(space, cells[:0]).counts().any()

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("n_trials, n_x", [
        (8 * CHUNK_TRIALS - 1, 2), (8 * CHUNK_TRIALS, 2), (8 * CHUNK_TRIALS + 1, 2),
        # a ragged tail; more cells than one worker's slice holds; no events
        (3 * CHUNK_TRIALS + 17, 2), (3 * CHUNK_TRIALS + 17, CHUNK_TRIALS // 2), (0, 2),
    ])
    def test_counts_on_any_worker_count(self, workers, n_trials, n_x, monkeypatch):
        asked = []
        monkeypatch.setattr(dcqe.events, "_workers",
                            lambda n_chunks: asked.append(n_chunks) or workers)
        space = OutcomeSpace(n_x, ("a", "b"), ("D1", "D2"))
        cells = np.random.default_rng(n_trials).integers(0, 4 * n_x, size=n_trials)
        assert_counted(EventLog(space, cells))
        # the sampler's rule: one worker count for the log's chunks
        assert asked == [-(-n_trials // CHUNK_TRIALS)]

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_counts_of_sampled_built_and_read_logs(self, workers, monkeypatch, tmp_path):
        monkeypatch.setattr(dcqe.events, "_workers", lambda n_chunks: workers)
        sampled = sample_events(build_kim(default_fringe_model()), 3 * CHUNK_TRIALS + 17, 2)
        path = str(tmp_path / "log.csv")
        write_event_log(sampled, path)
        built = EventLog(sampled.space, sampled.cells.astype(np.int64))
        for log in (sampled, built, read_event_log(path)):
            assert_counted(log)

    @pytest.mark.parametrize("where", ["caller", "other"])
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_a_failing_worker_raises_and_stops_every_thread(self, workers, where, monkeypatch):
        log = sample_events(uniform_222(), N_WIDE, 1)
        plain = np.bincount
        caller = threading.get_ident()

        def failing(cells, *args, **kwargs):
            if (threading.get_ident() == caller) == (where == "caller"):
                raise RuntimeError("counting")
            return plain(cells, *args, **kwargs)

        baseline = threading.active_count()
        monkeypatch.setattr(dcqe.events, "_workers", lambda n_chunks: workers)
        monkeypatch.setattr(dcqe.events.np, "bincount", failing)
        with pytest.raises(RuntimeError, match="counting"):
            log.counts()
        assert threading.active_count() == baseline

    @staticmethod
    def counting_peak():
        log = sample_events(uniform_222(), 2_000_000, 1)
        tracemalloc.start()
        try:
            log.counts()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    #: bincount copies each slice to intp, and the slices that the workers
    #: count at once total a chunk, so two chunks' copies are the allowance
    COUNTING_SCRATCH = 2 * CHUNK_TRIALS * np.dtype(np.intp).itemsize

    def test_counts_do_not_copy_the_log(self):
        assert self.counting_peak() < self.COUNTING_SCRATCH

    @pytest.mark.parametrize("workers", [2, 3])
    def test_counts_on_workers_do_not_copy_the_log(self, workers, monkeypatch):
        # set before the log is sampled, so the threads' first start is not traced
        monkeypatch.setattr(dcqe.events, "_workers", lambda n_chunks: workers)
        assert self.counting_peak() < self.COUNTING_SCRATCH


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

    @pytest.mark.parametrize(
        "seed", [-1, np.int64(-2), 1.5, 2.0, True, np.bool_(False), "3", None], ids=repr
    )
    def test_bad_seed_is_named_before_any_work(self, seed, monkeypatch):
        monkeypatch.setattr(dcqe.events, "validate", None)
        with pytest.raises(InvalidArgument, match="seed must be a non-negative integer, got "):
            sample_events(uniform_222(), 10, seed)

    @pytest.mark.parametrize("n_trials", [True, 1e3, "5", np.int64(0)], ids=repr)
    def test_bad_trial_count_is_named_before_any_work(self, n_trials, monkeypatch):
        monkeypatch.setattr(dcqe.events, "validate", None)
        with pytest.raises(InvalidArgument, match="trial count must be a positive integer, got "):
            sample_events(uniform_222(), n_trials, 1)

    @pytest.mark.parametrize("n_trials", [5, CHUNK_TRIALS + 3])
    def test_numpy_integer_trial_counts_are_accepted(self, n_trials):
        joint = uniform_222()
        log = sample_events(joint, np.int64(n_trials), 0)
        assert np.array_equal(log.cells, sample_events(joint, n_trials, 0).cells)

    @pytest.mark.parametrize("seed", [np.uint8(3), np.int64(3)], ids=repr)
    def test_numpy_integer_seeds_are_accepted(self, seed):
        joint = uniform_222()
        assert np.array_equal(sample_events(joint, 100, seed).cells, sample_events(joint, 100, 3).cells)

    def test_unshapeable_trial_count_is_named(self, monkeypatch):
        # numpy refuses 2**62 two-byte cells before allocating anything
        monkeypatch.setattr(dcqe.events, "validate", None)
        with pytest.raises(MemoryError, match=f"n = {2**62} trials are too many to allocate"):
            sample_events(build_kim(default_fringe_model()), 2**62, 0)

    def test_unallocatable_trial_count_is_named(self, monkeypatch):
        empty = np.empty

        def no_memory(shape, *args, **kwargs):
            if np.prod(shape) > 2**32:
                raise MemoryError(shape)
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", no_memory)
        monkeypatch.setattr(dcqe.events, "validate", None)
        with pytest.raises(MemoryError, match=f"n = {2**40} trials are too many to allocate"):
            sample_events(uniform_222(), 2**40, 0)

    @staticmethod
    def sampling_peak(n):
        """tracemalloc's peak over ``sample_events`` of n polarization trials."""
        joint = build_polarization(default_fringe_model(), 0.5)
        # a first call sets up numpy's random machinery once per process
        sample_events(joint, 1000, 6)
        tracemalloc.start()
        try:
            log = sample_events(joint, n, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.cells.itemsize == 2
        return peak, log.cells.nbytes

    #: A worker's scratch: a slice's raw words, its bucket indices and the
    #: mask of its draws given the sentinel, with one more slice of words'
    #: room for the flagged draws, the tables and small objects.
    SLICE_SCRATCH = 4 * SLICE_WORDS * 8 + 64 * 1024

    def test_memory_is_the_cells_and_one_slice(self):
        # 2 chunks, which the calling thread samples alone; a whole chunk's
        # scratch, ~1.6 MB, would not fit, nor would intp cells (+600 kB)
        peak, nbytes = self.sampling_peak(100_000)
        assert peak - nbytes <= self.SLICE_SCRATCH

    def test_memory_is_the_cells_and_one_slice_per_worker(self, monkeypatch):
        monkeypatch.setattr(dcqe.events, "_workers", lambda n_chunks: 2)
        # intp cells alone would add 60 MB
        peak, nbytes = self.sampling_peak(10_000_000)
        assert peak - nbytes <= 2 * self.SLICE_SCRATCH

    def test_never_emits_zero_mass_cells(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        table = np.zeros((2, 2, 2))
        table[:, 0, 0] = 0.25
        table[:, 1, 1] = 0.25
        log = sample_events(JointDistribution(space, table), 20000, 5)
        counts = log.counts()
        assert counts[:, 0, 1].sum() == 0
        assert counts[:, 1, 0].sum() == 0


def sampler_tables():
    """The five paper tables plus one with zero-mass cells at both ends."""
    m = default_fringe_model()
    space = OutcomeSpace(3, ("a", "b"), ("D1", "D2"))
    ends = np.zeros(12)
    ends[2:10] = [0.05, 0.2, 0.1, 0.15, 0.05, 0.25, 0.1, 0.1]
    return {
        "kim": build_kim(m),
        "kim_coarse": coarse_grain(build_kim(m), kim_coarse_graining()),
        "mach_zehnder": build_mach_zehnder(m, 0.5),
        "polarization": build_polarization(m, 0.5),
        "passive_choice": build_passive_choice(m),
        "zero_ends": JointDistribution(space, ends.reshape(space.shape)),
    }


def unrounded_tables():
    """Valid tables whose cumsum does not end at 1.0: two pass 1.0 before
    their last cell, the second before its last cell with mass; two end
    below 1.0 and have trailing zero cells, the second a lossless table
    whose last cell is a LOSS outcome."""
    space = OutcomeSpace(2, ("a", "b"), ("D1",))
    lossy = OutcomeSpace(2, ("a", "b"), ("D1", "D2", "LOSS"))
    lossless = np.zeros(lossy.shape)
    lossless[:, :, :2] = 0.125
    lossless[1, 1, 1] -= 4e-13
    return {
        "passes_one": JointDistribution(space, np.array([0.6, 0.4 + 5e-13, 0.0, 0.0]).reshape(2, 2, 1)),
        "passes_one_before_mass": JointDistribution(
            space, np.array([0.6, 0.4 + 5e-13, 1e-13, 0.0]).reshape(2, 2, 1)),
        "ends_short": JointDistribution(space, np.array([0.3, 0.7 - 4e-13, 0.0, 0.0]).reshape(2, 2, 1)),
        "lossless_ends_short": JointDistribution(lossy, lossless),
    }


def wide_joint():
    """Random masses on 65,600 cells, so cells are uint32."""
    space = OutcomeSpace(16_400, ("a", "b"), ("D1", "D2"))
    p = np.random.default_rng(9).random(space.shape)
    return JointDistribution(space, p / p.sum())


def crowded_joint():
    """A heavy cell on each side of 602 cells of 1e-12, all in one bucket."""
    space = OutcomeSpace(302, ("a", "b"), ("D1",))
    p = np.full(604, 1e-12)
    p[0] = 0.5
    p[-1] = 0.5 - 602e-12
    return JointDistribution(space, p.reshape(space.shape))


def table_cdf(joint):
    """The cdf ``sample_events`` inverts: the cumsum of the flat masses,
    capped at 1.0, and 1.0 from the last cell with mass on."""
    p = joint.p.reshape(-1)
    cdf = np.minimum(np.cumsum(p), 1.0)
    cdf[np.flatnonzero(p)[-1]:] = 1.0
    return cdf


def chunk_uniforms(seed, chunk_index, size):
    """numpy's own doubles for a sampling chunk's stream."""
    ss = np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.PCG64(ss)).random(size)


def uniforms_of(words):
    """The doubles ``Generator.random`` makes of raw 64-bit words."""
    return (words >> np.uint64(11)) * 2.0**-53


def words_near(values):
    """Raw words whose uniforms are at, one 2**-53 step below and one step
    above each value in [0, 1], each with its 11 low bits clear and set."""
    steps = np.ceil(np.asarray(values) * 2.0**53).astype(np.int64)
    steps = np.unique(np.concatenate([steps - 1, steps, steps + 1]))
    steps = steps[(steps >= 0) & (steps < 2**53)].astype(np.uint64) << np.uint64(11)
    return np.concatenate([steps, steps | np.uint64(0x7FF)])


SEARCHSORTED = np.searchsorted


def bucket_cells(cdf, bits):
    """The sorted search's cells for the least and the greatest uniform of
    each of 2**bits buckets; a bucket holds a cdf step iff they differ."""
    first = np.arange(1 << bits) / (1 << bits)
    last = first + (2.0 ** (53 - bits) - 1) * 2.0**-53
    return SEARCHSORTED(cdf, first, side="right"), SEARCHSORTED(cdf, last, side="right")


def counted_plan(p, bits, dtype):
    """``_sampling_plan``'s result built bucket by bucket: each bucket's
    guess is the count of steps at most its start, it is pure when the next
    step is at least its end, and a full dtype's sentinel is the least cell
    by a count of every pure bucket's guess."""
    steps = np.minimum(np.ceil(np.cumsum(p) * 2.0**53), 2.0**53).astype(np.int64)
    steps[np.flatnonzero(p)[-1]:] = 2**53
    bucket_starts = np.arange(1 << bits, dtype=np.int64) << (53 - bits)
    guide = SEARCHSORTED(steps, bucket_starts, side="right")
    pure = steps[guide] >= bucket_starts + (1 << (53 - bits))
    sentinel = p.size
    if sentinel > np.iinfo(dtype).max:
        sentinel = int(np.bincount(guide[pure], minlength=p.size).argmin())
    guide[~pure] = sentinel
    return steps.view(np.uint64), guide.astype(dtype), dtype.type(sentinel), np.uint64(64 - bits)


def random_table(rng):
    """A random valid table with zero cells at the start, in the middle and
    at the end, whose cumsum ends short of 1.0 or passes it (before the last
    cell with mass, too)."""
    space = OutcomeSpace(int(rng.integers(2, 5)), ("a", "b", "c")[:rng.integers(2, 4)],
                         ("D1", "D2", "LOSS")[:rng.integers(1, 4)])
    p = rng.random(space.shape).reshape(-1) ** 3
    p[rng.random(p.size) < 0.3] = 0.0
    p[:rng.integers(3)] = 0.0
    p[p.size - rng.integers(1, 3):] = 0.0
    p[rng.integers(p.size - 2)] += 0.1
    p /= p.sum()
    # a shortfall or an excess within the normalization tolerance, and
    # maybe a cell of 1e-13 after the last one with mass
    p[p.argmax()] += rng.choice([-1.0, 1.0]) * rng.uniform(1e-14, 8e-13)
    if rng.random() < 0.3:
        p[-1] = 1e-13
    return JointDistribution(space, p.reshape(space.shape))


def searched_values(monkeypatch):
    """The list of every value ``np.searchsorted`` is asked to place from now
    on in the test."""
    searched = []

    def counting(a, v, *args, **kwargs):
        searched.extend(np.atleast_1d(v).tolist())
        return SEARCHSORTED(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    return searched


def inverted(joint, words, monkeypatch):
    """The cells ``sample_events`` gives when its raw words are ``words``."""
    def given(seed, chunk_index, size):
        chunk = words[chunk_index * CHUNK_TRIALS:][:size]
        for start in range(0, size, SLICE_WORDS):
            yield chunk[start:start + SLICE_WORDS]

    monkeypatch.setattr(dcqe.events, "_chunk_bits", given)
    return sample_events(joint, words.size, 0).cells


def chunk_words(seed, chunk_index, size):
    """A chunk's first ``size`` raw words, its slices joined."""
    return np.concatenate(list(_chunk_bits(seed, chunk_index, size)))


def reference_cells(joint, n, seed):
    """The plain sampler: a full block of ``Generator.random`` doubles per
    chunk, sliced, then a sorted search."""
    cdf = table_cdf(joint)
    pieces = []
    for k in range(-(-n // CHUNK_TRIALS)):
        take = min(CHUNK_TRIALS, n - k * CHUNK_TRIALS)
        u = chunk_uniforms(seed, k, CHUNK_TRIALS)[:take]
        pieces.append(np.searchsorted(cdf, u, side="right"))
    return np.concatenate(pieces)


def cells_digest(log):
    return hashlib.sha256(np.ascontiguousarray(log.cells, dtype="<i8").tobytes()).hexdigest()


#: Two full chunks and a partial tail.
N_TAIL = 2 * CHUNK_TRIALS + 123

#: Eight full chunks and a partial tail: enough for two sampling workers.
N_WIDE = 8 * CHUNK_TRIALS + 123

#: sha256 of the little-endian int64 cells, captured from the plain sampler
#: (a full block of uniforms per chunk, sorted search) before the guide table.
PINNED_LOGS = {
    ("kim", 1000, 3): "96b729e2d2bf851b8ae2322f720dd69c8d5eea3d3cee1e0dcee8798d2972e585",
    ("kim", N_TAIL, 11): "6ef026b63583eb5cbe3af8b8811060d2cad96a9f75ff7f48cc2a81e95196a4b6",
    ("kim_coarse", 1000, 3): "f8ea3457d610e5e260cc70e06bce4a28c84df60daed5d7770d7b8c36eb37a7d5",
    ("kim_coarse", N_TAIL, 11): "438a9e4949e4088a69638ab33ad69a903da3fe75858a606219a9eb714512470b",
    ("mach_zehnder", 1000, 3): "9bf3e45f764b6bbd6d3c880595a07bc8d577b5d52b7969f3dd8b812332aa7ada",
    ("mach_zehnder", N_TAIL, 11): "1be93a5bcf663c0b5041367cb882d4bd3ee61c7a7328afd40be668de08b566cf",
    ("polarization", 1000, 3): "6b862a205e6f157bfa2a839210846dc1f70a05ba23cd54f48f1f1fab2c0dbd0e",
    ("polarization", N_TAIL, 11): "19f11349cc9f73f9d7445819786ac64100cfdd9bea974bd9d3f94c3912aea99e",
    ("passive_choice", 1000, 3): "31a16363889c6284820f9bb5e090d9fd238e497b7dcaa3aad9bdd922d682ef17",
    ("passive_choice", N_TAIL, 11): "e6ef4dec6830c037801f9c27a5039661bfbcc1d18219606f682ae2e540a26e08",
    ("zero_ends", 1000, 3): "aa143421d83160095ea24d4e365eef30ba709c998ba66b2747e43df8b04650b0",
    ("zero_ends", N_TAIL, 11): "001c8141b8ae7ed65f0b8646c7c48900a426ba3e59152c1e5e03645bcdb4d1bf",
    # captured from the one-thread sampler (guide table, compact cells)
    # before chunks were sampled on several threads
    ("kim", N_WIDE, 11): "ecadd1c891e2003dc00af769d57b610fc6db2a298ef63284f067e7c191baefc2",
}


class TestSamplerIsBitIdentical:
    @pytest.mark.parametrize("key", sorted(PINNED_LOGS), ids=lambda k: "-".join(map(str, k)))
    def test_pinned_log_digest(self, key):
        name, n, seed = key
        assert cells_digest(sample_events(sampler_tables()[name], n, seed)) == PINNED_LOGS[key]

    @pytest.mark.parametrize("n", [
        1, 999, CHUNK_TRIALS, CHUNK_TRIALS + 1, 3 * CHUNK_TRIALS - 5,
        # on and beside the edges of slices and chunks
        SLICE_WORDS - 1, SLICE_WORDS, SLICE_WORDS + 1, CHUNK_TRIALS - 1,
        2 * CHUNK_TRIALS + SLICE_WORDS + 1,
    ])
    def test_matches_plain_sampler(self, n):
        for joint in (crowded_joint(), sampler_tables()["zero_ends"], wide_joint()):
            assert np.array_equal(sample_events(joint, n, 8).cells, reference_cells(joint, n, 8))

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [3 * CHUNK_TRIALS - 5, N_WIDE])
    def test_any_worker_count_matches_plain_sampler(self, workers, n, monkeypatch):
        monkeypatch.setattr(dcqe.events, "_workers", lambda n_chunks: workers)
        # more workers than most hosts have CPUs, switching as often as they can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for joint in (crowded_joint(), sampler_tables()["zero_ends"], wide_joint()):
                assert np.array_equal(sample_events(joint, n, 8).cells,
                                      reference_cells(joint, n, 8))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n_short", [SLICE_WORDS + 5, CHUNK_TRIALS + SLICE_WORDS - 1])
    def test_a_run_ending_inside_a_slice_is_a_prefix(self, n_short):
        joint = sampler_tables()["kim"]
        long = sample_events(joint, 2 * CHUNK_TRIALS, 5).cells
        assert np.array_equal(sample_events(joint, n_short, 5).cells, long[:n_short])

    @pytest.mark.parametrize("name", ["kim", "zero_ends", "crowded"])
    def test_cdf_steps_on_both_sides_of_slice_edges(self, name, monkeypatch):
        joint = crowded_joint() if name == "crowded" else sampler_tables()[name]
        cdf = table_cdf(joint)
        words = np.random.default_rng(1).integers(0, 2**64, size=2 * CHUNK_TRIALS + SLICE_WORDS + 1,
                                                  dtype=np.uint64)
        # one word a step below a cdf value and one at it, in both orders,
        # at every edge between slices and between chunks
        rng = np.random.default_rng(2)
        for edge in range(SLICE_WORDS, words.size, SLICE_WORDS):
            value = rng.choice(cdf[(cdf > 0.0) & (cdf < 1.0)])
            below, at = (np.uint64(int(np.ceil(value * 2.0**53)) + d) << np.uint64(11) for d in (-1, 0))
            words[edge - 1], words[edge] = (below, at) if edge // SLICE_WORDS % 2 else (at, below)
        expected = SEARCHSORTED(cdf, uniforms_of(words), side="right")
        assert np.array_equal(inverted(joint, words, monkeypatch), expected)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_a_failing_chunk_raises_and_stops_every_thread(self, workers, monkeypatch):
        plain = _chunk_bits

        def failing(seed, chunk_index, size):
            if chunk_index == 5:
                raise RuntimeError("chunk 5")
            return plain(seed, chunk_index, size)

        baseline = threading.active_count()
        monkeypatch.setattr(dcqe.events, "_workers", lambda n_chunks: workers)
        monkeypatch.setattr(dcqe.events, "_chunk_bits", failing)
        # chunk 5 falls to another thread for 2 and 3 workers, to the caller for 5
        with pytest.raises(RuntimeError, match="chunk 5"):
            sample_events(uniform_222(), N_WIDE, 1)
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("name", sorted(sampler_tables()) + ["crowded"])
    def test_inversion_at_cdf_values_and_bucket_edges(self, name, monkeypatch):
        joint = crowded_joint() if name == "crowded" else sampler_tables()[name]
        cdf = table_cdf(joint)
        used = []
        plain = dcqe.events._bucket_bits

        def spied(n_cells, n_trials):
            used.append(plain(n_cells, n_trials))
            return used[-1]

        monkeypatch.setattr(dcqe.events, "_bucket_bits", spied)
        searched = searched_values(monkeypatch)
        least = 4 << (cdf.size - 1).bit_length()
        # the least bucket count, a power of two >= 4 * cells, and the most
        for buckets in (least, 8 * least):
            words = words_near(np.concatenate([cdf, np.arange(buckets) / buckets, [0.0, 1.0]]))
            if buckets > least:
                # a run long enough for the largest guide
                words = np.resize(words, 16 * buckets)
            searched.clear()
            cells = inverted(joint, words, monkeypatch)
            # the run's guide has exactly the buckets whose edges are fed
            bits = used.pop()
            assert bits == buckets.bit_length() - 1
            assert np.array_equal(cells, SEARCHSORTED(cdf, uniforms_of(words), side="right"))
            # only draws from buckets that hold a cdf step are searched, as
            # integers r >> 11, on every paper table, as the sentinel is a
            # cell no pure bucket guesses, if not the cell count
            first, last = bucket_cells(cdf, bits)
            flagged = (first != last)[(words >> np.uint64(64 - bits)).astype(np.intp)]
            assert np.array_equal(np.sort(searched), np.sort(words[flagged] >> np.uint64(11)))

    def test_a_cdf_of_one_ends_a_pure_last_bucket(self, monkeypatch):
        # the last bucket guesses the last cell, whose step 2**53 is the
        # bucket's end, so even the top words keep the guess unsearched
        top = (2**53 - 1) << 11
        words = np.array([top - 1, top, 2**64 - 1], dtype=np.uint64)
        searched = searched_values(monkeypatch)
        assert inverted(uniform_222(), words, monkeypatch).tolist() == [7, 7, 7]
        assert searched == []

    @pytest.mark.parametrize("name", sorted(sampler_tables()) + sorted(unrounded_tables()))
    def test_extreme_words_give_cells_in_range(self, name, monkeypatch):
        """A log is made without EventLog's range check, so every word, the
        extremes and both sides of every cdf step and bucket edge included,
        must give the sorted search's cell, below the cell count."""
        joint = {**sampler_tables(), **unrounded_tables()}[name]
        ends = np.cumsum(joint.p.reshape(-1))[-2:]
        if name == "passes_one":
            assert ends[0] > 1.0
        if name == "ends_short":
            assert ends[-1] < 1.0
        cdf = table_cdf(joint)
        pieces = [np.array([0, 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64), words_near(cdf)]
        for n_trials in (1, 10**9):
            bits = dcqe.events._bucket_bits(cdf.size, n_trials)
            edges = np.arange(1 << bits, dtype=np.uint64) << np.uint64(64 - bits)
            pieces += [edges, edges - np.uint64(1)]
        words = np.unique(np.concatenate(pieces))
        assert words.size < CHUNK_TRIALS
        cells = inverted(joint, words, monkeypatch)
        assert np.array_equal(cells, SEARCHSORTED(cdf, uniforms_of(words), side="right"))
        assert int(cells.max()) < cdf.size

    def test_the_top_word_gives_the_last_cell_with_mass(self, monkeypatch):
        top = np.array([2**64 - 1], dtype=np.uint64)
        # p = (0.3, 0.7 - 4e-13, 0, 0): not cell 3, which has no mass
        assert inverted(unrounded_tables()["ends_short"], top, monkeypatch).tolist() == [1]
        # nor a lost event in a lossless table
        joint = unrounded_tables()["lossless_ends_short"]
        assert np.cumsum(joint.p.reshape(-1))[-1] < 1.0
        log = EventLog(joint.space, inverted(joint, top, monkeypatch))
        assert log.cells.tolist() == [10] and log.d_idx.tolist() == [1]
        assert not log.counts()[:, :, joint.space.loss_index].any()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_guide_size_gives_the_searched_cell_with_mass(self, seed):
        """On random valid tables (``random_table``), every guide size the
        bucket rule can give inverts the words at and beside each bucket edge
        and cdf step, and the extremes, as the sorted search does, to cells
        with mass."""
        joint = random_table(np.random.default_rng(seed))
        p = joint.p.reshape(-1)
        cdf = table_cdf(joint)
        least = dcqe.events._bucket_bits(p.size, 1)
        for bits in range(least, least + 4):
            edges = np.arange(1 << bits, dtype=np.uint64) << np.uint64(64 - bits)
            words = np.unique(np.concatenate([
                edges, edges - np.uint64(1), words_near(cdf),
                np.array([0, 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
            ]))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dcqe.events, "_bucket_bits", lambda n_cells, n_trials: bits)
                cells = inverted(joint, words, patch)
            assert np.array_equal(cells, SEARCHSORTED(cdf, uniforms_of(words), side="right"))
            assert np.all(p[cells] > 0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_pure_buckets_keep_their_entry_and_only_sentinel_draws_are_searched(self, seed):
        """On random valid tables, at every guide size the bucket rule can
        give, each bucket whose entry is not the sentinel gets that entry
        from the sorted search over its whole word range; the others are
        exactly the buckets that hold a cdf step; and of random words and
        those at and beside each bucket edge and cdf step, only the ones
        given the sentinel are searched."""
        rng = np.random.default_rng(seed)
        joint = random_table(rng)
        p = joint.p.reshape(-1)
        cdf = table_cdf(joint)
        least = dcqe.events._bucket_bits(p.size, 1)
        for bits in range(least, least + 4):
            _, guide, sentinel, _ = dcqe.events._sampling_plan(p, bits, cell_dtype(p.size))
            # the cell dtype has room past the last cell
            assert sentinel == p.size and sentinel.dtype == guide.dtype
            first, last = bucket_cells(cdf, bits)
            kept = guide != sentinel
            assert np.array_equal(guide[kept], first[kept]) and np.array_equal(guide[kept], last[kept])
            assert np.array_equal(~kept, first != last)
            edges = np.arange(1 << bits, dtype=np.uint64) << np.uint64(64 - bits)
            words = np.concatenate([
                edges, edges - np.uint64(1), words_near(cdf),
                rng.integers(0, 2**64, size=1000, dtype=np.uint64),
            ])
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dcqe.events, "_bucket_bits", lambda n_cells, n_trials: bits)
                searched = searched_values(patch)
                cells = inverted(joint, words, patch)
            assert np.array_equal(cells, SEARCHSORTED(cdf, uniforms_of(words), side="right"))
            flagged = ~kept[(words >> np.uint64(64 - bits)).astype(np.intp)]
            assert np.array_equal(np.sort(searched), np.sort(words[flagged] >> np.uint64(11)))

    def test_a_full_dtype_takes_the_cell_fewest_pure_buckets_guess(self, monkeypatch):
        # 256 cells fill uint8, so the sentinel is a cell, here one that
        # pure buckets guess too: draws from those are searched as well
        space = OutcomeSpace(64, ("a", "b"), ("D1", "D2"))
        p = np.ones(256)
        p[37] = 0.6
        joint = JointDistribution(space, (p / p.sum()).reshape(space.shape))
        assert np.array_equal(sample_events(joint, N_TAIL, 4).cells, reference_cells(joint, N_TAIL, 4))
        cdf = table_cdf(joint)
        words = np.random.default_rng(3).integers(0, 2**64, size=3 * SLICE_WORDS, dtype=np.uint64)
        bits = dcqe.events._bucket_bits(256, words.size)
        _, guide, sentinel, _ = dcqe.events._sampling_plan(joint.p.reshape(-1), bits, np.dtype(np.uint8))
        first, last = bucket_cells(cdf, bits)
        held = np.bincount(first[first == last], minlength=256)
        assert sentinel == held.argmin() == 37 and held[37] > 0 and sentinel.dtype == np.uint8
        assert np.array_equal(guide == sentinel, (first != last) | (first == 37))
        searched = searched_values(monkeypatch)
        cells = inverted(joint, words, monkeypatch)
        assert np.array_equal(cells, SEARCHSORTED(cdf, uniforms_of(words), side="right"))
        flagged = (guide == sentinel)[(words >> np.uint64(64 - bits)).astype(np.intp)]
        assert sorted(searched) == sorted((words[flagged] >> np.uint64(11)).tolist())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_the_plan_is_the_one_counted_bucket_by_bucket(self, seed):
        """On random 256-cell tables, whose cells fill uint8, with zero cells
        and a few heavy ones, and on ``random_table``'s, every guide size the
        bucket rule can give has ``counted_plan``'s steps, guide, sentinel
        and shift."""
        rng = np.random.default_rng(seed)
        full = rng.random(256) ** rng.uniform(0.2, 8.0)
        full[rng.random(256) < rng.uniform(0.0, 0.6)] = 0.0
        full[rng.integers(256, size=3)] += rng.uniform(0.01, 3.0, size=3)
        roomy = random_table(rng).p.reshape(-1)
        for p in (full / full.sum(), roomy):
            dtype = cell_dtype(p.size)
            least = dcqe.events._bucket_bits(p.size, 1)
            for bits in range(least, least + 4):
                plan = dcqe.events._sampling_plan(p, bits, dtype)
                for got, want in zip(plan, counted_plan(p, bits, dtype), strict=True):
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_crowded_bucket_falls_back_to_search(self, monkeypatch):
        joint = crowded_joint()
        cdf = table_cdf(joint)
        low, high = (int(np.ceil(v * 2.0**53)) << 11 for v in (0.5, 0.5 + 700e-12))
        words = np.random.default_rng(0).integers(low, high, size=20000, dtype=np.uint64)
        expected = np.searchsorted(cdf, uniforms_of(words), side="right")
        # these draws span at most two guide buckets but hundreds of
        # cells, so nearly all of them need the fallback search
        assert np.unique(expected).size > 500
        assert np.array_equal(inverted(joint, words, monkeypatch), expected)

    @pytest.mark.parametrize("size", [
        1, 2, 1000, SLICE_WORDS - 1, SLICE_WORDS, SLICE_WORDS + 1, CHUNK_TRIALS - 1, CHUNK_TRIALS,
    ])
    def test_chunk_bits_are_the_generators_doubles(self, size):
        for seed in range(20):
            for chunk in (0, 5):
                *full, last = _chunk_bits(seed, chunk, size)
                assert all(s.size == SLICE_WORDS for s in full) and 0 < last.size <= SLICE_WORDS
                bits = np.concatenate(full + [last])
                assert bits.dtype == np.uint64
                assert np.array_equal(uniforms_of(bits), chunk_uniforms(seed, chunk, size))

    @pytest.mark.parametrize("take", [1, 2, 1000, SLICE_WORDS + 1, CHUNK_TRIALS - 1])
    def test_short_draw_is_prefix_of_full_chunk(self, take):
        for seed in range(20):
            for chunk in (0, 5):
                full = chunk_words(seed, chunk, CHUNK_TRIALS)
                assert np.array_equal(chunk_words(seed, chunk, take), full[:take])

    @pytest.mark.parametrize("name", sorted(sampler_tables()) + sorted(unrounded_tables()) + ["wide"])
    def test_guide_bins_from_integer_steps(self, name):
        joint = wide_joint() if name == "wide" else {**sampler_tables(), **unrounded_tables()}[name]
        cdf = table_cdf(joint)
        least = dcqe.events._bucket_bits(cdf.size, 1)
        # the least bucket count and the largest the bucket rule gives
        for bits in (least, dcqe.events._bucket_bits(cdf.size, 2**62)):
            steps, guide, sentinel, shift = dcqe.events._sampling_plan(joint.p.reshape(-1), bits, np.dtype(np.intp))
            # sorted, as searchsorted needs, and at most 2**53
            assert steps.dtype == np.uint64 and np.array_equal(steps, np.ceil(cdf * 2.0**53))
            assert np.all(steps[1:] >= steps[:-1]) and int(steps[-1]) == 2**53
            # a bucket without a cdf step inside keeps the sorted search's
            # cell for its start, and one with a step has the sentinel, no cell
            first, last = bucket_cells(cdf, bits)
            pure = first == last
            assert np.array_equal(guide[pure], first[pure]) and np.all(guide[~pure] == sentinel)
            assert sentinel == cdf.size and sentinel.dtype == np.intp
            assert shift == 64 - bits

    @pytest.mark.parametrize("n_cells, n_trials, buckets", [
        # polarization: 4 * 512 until n / 4 passes it, then at most 32 * 512
        (384, 1, 2048), (384, 10**3, 2048), (384, 2**14 - 1, 2048), (384, 2**14, 4096),
        (384, 10**5, 16384), (384, 10**7, 16384),
        # wide_joint's uint32 cells: 4 * 2**17 until n = 2**22, then at most 32 * 2**17
        (65_600, 1, 2**19), (65_600, 10**3, 2**19), (65_600, 10**5, 2**19),
        (65_600, 2**22 - 1, 2**19), (65_600, 2**22, 2**20), (65_600, 10**7, 2**21),
        (65_600, 2**25, 2**22), (65_600, 10**9, 2**22),
    ])
    def test_bucket_rule(self, n_cells, n_trials, buckets):
        assert 1 << dcqe.events._bucket_bits(n_cells, n_trials) == buckets


class TestSamplingPlan:
    """A table's steps and guide are built on its first call for each guide
    size and kept on the table object."""

    #: kim runs at each of its four guide sizes, the least and the largest
    #: twice, the largest being the one every n >= 2**16 gets, on and off
    #: the pinned logs
    RUNS = [(1000, 3), (N_TAIL, 11), (20_000, 3), (1000, 3), (40_000, 3), (100_000, 3), (N_WIDE, 11)]

    def test_one_table_object_over_every_guide_size(self, monkeypatch):
        joint = sampler_tables()["kim"]
        bits = [dcqe.events._bucket_bits(joint.p.size, n) for n, _ in self.RUNS]
        assert bits == [11, 14, 12, 11, 13, 14, 14] and dcqe.events._bucket_bits(512, 2**62) == 14
        built = []
        plain = dcqe.events._sampling_plan

        def counted(p, bits, dtype):
            built.append(bits)
            return plain(p, bits, dtype)

        monkeypatch.setattr(dcqe.events, "_sampling_plan", counted)
        logs = [sample_events(joint, n, seed) for n, seed in self.RUNS]
        assert built == [11, 14, 12, 13]
        for (n, seed), log in zip(self.RUNS, logs):
            assert np.array_equal(log.cells, sample_events(sampler_tables()["kim"], n, seed).cells)
            if ("kim", n, seed) in PINNED_LOGS:
                assert cells_digest(log) == PINNED_LOGS["kim", n, seed]

    def test_a_table_that_fails_validation_raises_on_every_call(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        p = np.full(space.shape, 0.125)
        p[0, 0, 0], p[1, 1, 1] = -0.125, 0.375
        joint = JointDistribution(space, p)
        for _ in range(2):
            with pytest.raises(NegativeMass):
                sample_events(joint, 1000, 0)

    def test_threads_sharing_a_fresh_table_give_the_pinned_logs(self):
        joint = sampler_tables()["kim"]
        runs = [(1000, 3), (N_TAIL, 11), (N_WIDE, 11), (1000, 3)]
        digests = [None] * len(runs)
        start = threading.Barrier(len(runs))

        def sample(k):
            start.wait()
            digests[k] = cells_digest(sample_events(joint, *runs[k]))

        threads = [threading.Thread(target=sample, args=(k,)) for k in range(len(runs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert digests == [PINNED_LOGS["kim", n, seed] for n, seed in runs]

    def test_the_plan_is_not_part_of_the_table(self):
        sampled, unsampled = sampler_tables()["kim"], sampler_tables()["kim"]
        text = repr(sampled)
        sample_events(sampled, 1000, 3)
        assert repr(sampled) == text == repr(unsampled)
        # equal tables compare equal whether or not either has been sampled
        for a, b in ((sampled, unsampled), (unsampled, sampler_tables()["kim"])):
            assert a == b and not a != b
        assert sampled == sampled
        moved = sampled.p.copy()
        moved[0, 0, :2] = moved[0, 0, 1::-1]
        for other in (
            sampler_tables()["kim_coarse"],
            estimate_from_events(sample_events(sampled, 1000, 3)),
            JointDistribution(sampled.space, moved),
        ):
            assert sampled != other and not sampled == other
        # the same p from counts is a sampled table, and unequal to the exact one
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        exact = JointDistribution(space, np.full(space.shape, 0.125))
        once, twice = (JointDistribution(space, counts=np.full(space.shape, k)) for k in (1, 2))
        for a, b in ((exact, once), (once, twice)):
            assert np.array_equal(a.p, b.p) and a != b and not a == b
        with pytest.raises(TypeError, match="unhashable"):
            hash(sampled)


class TestWorkers:
    def test_few_chunks_skip_the_affinity_query(self, monkeypatch):
        def unused(pid):
            raise AssertionError("affinity queried")

        monkeypatch.setattr(dcqe.events.os, "sched_getaffinity", unused, raising=False)
        assert [dcqe.events._workers(n) for n in range(1, 8)] == [1] * 7

    @pytest.mark.parametrize("n_chunks, cpus, workers", [
        (8, 64, 2), (11, 64, 2), (12, 64, 3), (153, 64, 38), (153, 2, 2), (8, 1, 1), (10**6, 3, 3),
    ])
    def test_one_per_cpu_with_four_chunks_each(self, n_chunks, cpus, workers, monkeypatch):
        monkeypatch.setattr(dcqe.events.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert dcqe.events._workers(n_chunks) == workers

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(dcqe.events.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(dcqe.events.os, "cpu_count", lambda: 3)
        assert dcqe.events._workers(153) == 3
        monkeypatch.setattr(dcqe.events.os, "cpu_count", lambda: None)
        assert dcqe.events._workers(153) == 1


def assert_kept_as_checked(made, checked):
    """``made`` equals ``checked``, an array a public constructor kept, in
    values, dtype and flags, and has no writable base."""
    assert np.array_equal(made, checked) and made.dtype == checked.dtype
    assert made.flags == checked.flags and not made.flags.writeable
    assert made.base is None or not made.base.flags.writeable


def logs_to_estimate(tmp_path):
    """Sampled logs, one over several counting slices; the same read back
    from a file; and hand-built ones."""
    tables = sampler_tables()
    logs = [sample_events(tables[name], n, 3) for name in sorted(tables) for n in (1000, 10**5)]
    logs.append(sample_events(unrounded_tables()["ends_short"], 2 * CHUNK_TRIALS + 1, 1))
    for k, log in enumerate(logs[:4]):
        path = str(tmp_path / f"log{k}.csv")
        write_event_log(log, path)
        logs.append(read_event_log(path))
    space = OutcomeSpace(3, ("a", "b"), ("D1", "D2", "LOSS"))
    logs += [EventLog(space, [17]), EventLog(space, np.arange(18, dtype=np.int8)[::-1])]
    logs.append(EventLog(OutcomeSpace(3 * CHUNK_TRIALS, ("a", "b"), ("D1",)),
                         np.random.default_rng(4).integers(0, 6 * CHUNK_TRIALS, 3 * CHUNK_TRIALS)))
    return logs


class TestEstimateFromEvents:
    def test_sampled_logs_are_as_the_checked_constructor_keeps_them(self):
        tables = {**sampler_tables(), **unrounded_tables()}
        for name, joint in tables.items():
            for n in (1, 1000, N_TAIL):
                log = sample_events(joint, n, 5)
                checked = EventLog(joint.space, np.array(log.cells))
                assert log == checked and log.space is joint.space, (name, n)
                assert_kept_as_checked(log.cells, checked.cells)
                assert int(log.cells.max()) < joint.p.size

    def test_estimates_are_as_the_checked_constructor_keeps_them(self, tmp_path):
        for log in logs_to_estimate(tmp_path):
            est = estimate_from_events(log)
            checked = JointDistribution(log.space, counts=log.counts())
            assert est == checked and est.space is log.space
            assert type(est.n_samples) is int and est.n_samples == len(log) == checked.n_samples
            assert est.p.tobytes() == checked.p.tobytes()
            assert_kept_as_checked(est.p, checked.p)
            assert_kept_as_checked(est.counts, checked.counts)
            assert est.counts.shape == log.space.shape and est.counts.sum() == len(log)

    def test_single_record_point_mass(self):
        space = OutcomeSpace(2, ("erase", "preserve"), ("D1", "D2"))
        log = EventLog(space, np.ravel_multi_index(([0], [0], [0]), space.shape))
        est = estimate_from_events(log)
        assert est.p[0, 0, 0] == 1.0
        assert est.p.sum() == 1.0
        assert est.n_samples == 1

    def test_coarse_graining_an_estimate_pools_its_log(self):
        # summed counts over n, not summed quotients, which differ in the last bit
        kim = build_kim(default_fringe_model())
        graining = kim_coarse_graining()
        for seed in range(5):
            log = sample_events(kim, 10_000, seed)
            coarse = coarse_grain(estimate_from_events(log), graining)
            relabel = np.array([coarse.space.d_index(graining[d]) for d in kim.space.d_values])
            pooled = estimate_from_events(EventLog(coarse.space, np.ravel_multi_index(
                (log.x, log.c_idx, relabel[log.d_idx]), coarse.space.shape)))
            assert coarse == pooled and np.array_equal(coarse.counts, pooled.counts), seed
            assert coarse.p.tobytes() == pooled.p.tobytes()

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
