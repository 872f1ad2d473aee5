"""Trial-level event logs and Monte Carlo sampling.

A sampled experiment is a sequence of (x, c, d) triples, each one a cell of
the joint table. Logs store one flat cell index per trial against an
:class:`~dcqe.joint.OutcomeSpace`; labels are materialized only at the I/O
boundary.

Sampling is deterministic given (table, n_trials, seed) and independent of
batching: chunk k of every run has its own PCG64 stream, seeded from the root
seed and k, and a partial tail draws only the 64-bit words it keeps, which are
a prefix of the full chunk's draw. So logs share prefixes, and chunks may be
generated out of order or in parallel. A chunk is drawn and inverted in
slices of ``SLICE_WORDS`` words, consecutive draws from its one stream, so
each worker's scratch memory is a slice's and the logs do not depend on the
slice size. Runs of at least eight chunks are sampled, and logs as long
counted, on a few threads, at most one per CPU the process may run on and
with at least four chunks each; the cells and the counts are the same to the
bit on any number of threads, and CPU affinity (e.g. ``taskset -c 0``) is
the only control. ``worker_count`` and ``run_workers``, left out of
``__all__``, hold that rule and start those threads; ``dcqe.io`` writes and
reads event logs on at most two of them. A guide table (Chen & Asau 1974;
Devroye 1986, III.2.4) inverts the cdf exactly as a sorted search of
``Generator.random``'s doubles would, working in integers on the raw words
those doubles are made from and searching only draws from the buckets that
hold a cdf step. A table's sampling plan (the cdf as integer steps and the
guide) is built once per table object and guide size, and kept on it.
"""

from __future__ import annotations

__all__ = ["CHUNK_TRIALS", "EventLog", "estimate_from_events", "sample_events"]

import math
import os
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import EmptyLog, InvalidArgument
from .joint import JointDistribution, OutcomeSpace, check_int, unchecked, validate

#: Trials per deterministic sampling chunk. Fixed: changing it changes logs.
CHUNK_TRIALS = 1 << 16

#: Raw words drawn and inverted at a time within a chunk. It bounds each
#: worker's scratch memory; the logs do not depend on it.
SLICE_WORDS = 1 << 15

# a raw word r is the double (r >> 11) / 2**53, as Generator.random makes it
_LOW_BITS = np.uint64(11)
_TWO53 = 2.0**53


def cell_dtype(n_cells: int) -> np.dtype:
    """The dtype of a log's cells on a space of ``n_cells`` cells: the least
    of uint8, uint16 and uint32 that holds index ``n_cells - 1``, else ``intp``."""
    dtype = np.min_scalar_type(n_cells - 1)
    return dtype if dtype.itemsize <= 4 else np.dtype(np.intp)


@dataclass(frozen=True, eq=False)
class EventLog:
    """Immutable record of trials as flat cell indices.

    ``cells[t]`` is trial t's row-major index into the ``space.shape``
    grid, the order of ``joint.p.reshape(-1)``. Cells are stored as
    ``cell_dtype(n_x * n_c * n_d)``, 1 to 4 bytes per trial for any table
    that fits in memory. Build one from per-axis indices with
    ``np.ravel_multi_index((x, c_idx, d_idx), space.shape)``; ``x``,
    ``c_idx`` and ``d_idx`` are recomputed from ``cells`` on access, as
    ``intp``. The input must have an integer dtype (an empty list is
    accepted too). It is range-checked in its own dtype, its smallest cell
    too when that dtype is signed, so an index such as -1 cannot wrap into
    range; then it is cast once to the cell dtype and made read-only,
    unless it already is a read-only array of that dtype that owns its
    data, which is kept as given. Two logs are equal when their spaces and
    cells are; logs are not hashable.
    """

    space: OutcomeSpace
    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells)
        # a float would be truncated and a Python int past 64 bits is an object
        if cells.size and cells.dtype.kind not in "iu":
            raise InvalidArgument(f"cell indices must be integers, got dtype {cells.dtype}")
        if cells.ndim != 1:
            raise InvalidArgument("cell indices must be one-dimensional")
        n_cells = math.prod(self.space.shape)
        signed = cells.dtype.kind == "i"
        if cells.size and ((signed and cells.min() < 0) or cells.max() >= n_cells):
            raise InvalidArgument("cell index out of range for the outcome space")
        dtype = cell_dtype(n_cells)
        if cells.base is not None or cells.dtype != dtype or cells.flags.writeable:
            cells = cells.astype(dtype)
            cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    def __eq__(self, other):
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.cells, other.cells)

    __hash__ = None

    def __len__(self) -> int:
        return int(self.cells.size)

    @property
    def x(self) -> np.ndarray:
        return np.floor_divide(self.cells, self.space.n_c * self.space.n_d, dtype=np.intp)

    @property
    def c_idx(self) -> np.ndarray:
        return np.floor_divide(self.cells, self.space.n_d, dtype=np.intp) % self.space.n_c

    @property
    def d_idx(self) -> np.ndarray:
        return np.remainder(self.cells, self.space.n_d, dtype=np.intp)

    def counts(self) -> np.ndarray:
        """Event counts on the full (n_x, n_c, n_d) grid, as owned ``intp``.

        A log of eight or more chunks is counted on the W threads it would be
        sampled on: worker w tallies slices w, w + W, ..., and the calling
        thread adds the tallies. Integer sums are exact, so the counts are the
        same for every W. CPU affinity is the only control."""
        size = math.prod(self.space.shape)
        n = self.cells.size
        workers = worker_count(-(-n // CHUNK_TRIALS))
        # bincount copies a read-only input whole, so it is given slices, one
        # as long as the table keeps the adds from outweighing the counting;
        # the W copies it holds at once total one chunk
        step = max(CHUNK_TRIALS // workers, size)

        def tally(w: int) -> np.ndarray:
            own = np.bincount(self.cells[w * step:(w + 1) * step], minlength=size)
            for start in range((w + workers) * step, n, workers * step):
                own += np.bincount(self.cells[start:start + step], minlength=size)
            return own

        counts, *others = run_workers(tally, workers)
        for other in others:
            counts += other
        # shaped in place, so the array owns its data, as reshape's view would not
        counts.resize(self.space.shape)
        return counts


def _chunk_bits(seed: int, chunk_index: int, size: int) -> Iterator[np.ndarray]:
    """The first ``size`` raw 64-bit words of chunk ``chunk_index``'s stream,
    as consecutive slices of ``SLICE_WORDS`` words, the last one shorter."""
    ss = np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    bit_generator = np.random.PCG64(ss)
    for start in range(0, size, SLICE_WORDS):
        yield bit_generator.random_raw(min(SLICE_WORDS, size - start))


def _bucket_bits(n_cells: int, n_trials: int) -> int:
    """log2 of the guide's bucket count: the least power of two >= 4 * cells,
    grown to the greatest one <= n_trials / 4, but never past the least one
    >= 32 * cells."""
    least = (n_cells - 1).bit_length() + 2
    return min(max(least, (n_trials // 4).bit_length() - 1), least + 3)


def _sampling_plan(p: np.ndarray, bits: int, dtype: np.dtype) -> tuple:
    """How ``sample_events`` inverts the flat masses ``p`` with a guide of
    K = 2**bits buckets: ``steps``, ``min(ceil(cumsum(p) * 2**53), 2**53)``
    and 2**53 from the last cell with mass on, as uint64; the ``dtype``
    guide, the sentinel in each impure bucket; the sentinel; the shift."""
    k = 1 << bits
    # ceil(cdf * 2**53) is exact, as scaling by a power of two is
    steps = np.minimum(np.ceil(np.cumsum(p) * _TWO53), _TWO53).astype(np.int64)
    steps[np.flatnonzero(p)[-1]:] = 2**53
    # guide[b] counts the steps <= b << drop, those with ends <= b, as K divides 2**53
    drop = 53 - bits
    ends = (steps + ((1 << drop) - 1)) >> drop
    guide = np.cumsum(np.bincount(ends, minlength=k + 1)[:k])
    # bucket b is impure when a step j lies strictly inside it: b = ends[j] - 1
    impure = ends[steps < ends << drop] - 1
    sentinel = p.size
    if sentinel > np.iinfo(dtype).max:  # every value of the dtype is a cell
        # the pure buckets guessing cell j: its ends[j] - ends[j - 1], less its impure ones
        held = np.diff(ends, prepend=0) - np.bincount(guide[np.unique(impure)], minlength=p.size)
        sentinel = int(held.argmin())
    guide[impure] = sentinel
    return steps.view(np.uint64), guide.astype(dtype), dtype.type(sentinel), np.uint64(64 - bits)


def worker_count(units: int) -> int:
    """Threads to work through ``units`` units on: one per CPU this process
    may run on, with at least four units each, so one below eight. A unit is
    a chunk of ``CHUNK_TRIALS`` trials for sampling, counting and writing an
    event log, and a 256 KiB block of the file for reading one (``dcqe.io``
    takes at most two workers). The affinity mask (``taskset`` sets it) is
    the only control; the cells, counts, files and logs are the same
    whatever it returns."""
    if units < 8:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, units // 4)


def run_workers(work: Callable[[int], object], workers: int) -> list:
    """``[work(0), ..., work(workers - 1)]``, with ``work(0)`` run on the
    calling thread and the others on threads that live for the call; a
    worker's exception is raised here once every worker has stopped. The
    sampler, ``EventLog.counts`` and the event-log writer and reader of
    ``dcqe.io`` all run their workers through it."""
    if workers == 1:
        return [work(0)]
    results, errors = [None] * workers, []

    def run(w: int) -> None:
        try:
            results[w] = work(w)
        except BaseException as error:  # raised on the calling thread below
            errors.append(error)

    # plain threads, as importing concurrent.futures would add ~6 ms to a
    # process's first parallel call; the calling thread is worker 0, so its
    # heap, not a new thread's, holds that share of the temporaries
    started = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=run, args=(w,))
            thread.start()
            started.append(thread)
        results[0] = work(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return results


def sample_events(joint: JointDistribution, n_trials: int, seed: int) -> EventLog:
    """Draw i.i.d. trials from a validated table.

    Each trial is ``searchsorted(cdf, u, "right")`` for the double
    ``u = (r >> 11) / 2**53`` that ``Generator.random`` makes of the
    stream's next raw word r, where cdf is the cumsum of the flat masses,
    capped at 1.0 and set to 1.0 from the last cell with mass on; so that
    cell takes whatever the cumsum ends short of 1, and no later cell is
    drawn. It is computed on r, in integers: the plan holds
    ``steps = ceil(cdf * 2**53)``, exact as scaling by a power of two is,
    and u = R / 2**53 for R = r >> 11, so cdf[j] <= u exactly when
    steps[j] <= R, and ``searchsorted(steps, R, "right")`` is the cell.
    The guide has K buckets, K the least power of two >= 4 * cells, grown
    toward n_trials / 4 but never past the least one >= 32 * cells, so
    longer runs search less and the tables stay small beside the draws. A
    draw's bucket b is ``r >> (64 - log2 K)``, which is ``floor(u * K)``:
    R is in [b * 2**53 / K, (b + 1) * 2**53 / K). The count g of steps at
    most b's start has ``steps[g - 1] <= R``, so g is the cell of every R
    in b when ``steps[g]`` is at least b's end; then b is pure, and
    ``guide[b]`` is g. Any other bucket holds a step and has the sentinel,
    the value the fewest pure buckets hold (``p.size`` if the cell dtype
    has room). A draw is one gather, and only draws given the sentinel are
    searched: the cells are the sorted search's to the bit, for every K.

    Every cell j written has ``steps[j - 1] <= R < steps[j]`` (reading
    ``steps[-1]`` as 0). The steps never fall, as masses are nonnegative,
    and rise only at a cell with mass; they are 2**53 > R from the last
    cell with mass on. So j has mass and is at most that cell, below the
    cell count. Cells are written straight into an array of the log's
    ``cell_dtype``, owned and then made read-only, and the log is made
    without ``EventLog``'s checks, which it passes as shown. The plan is
    built, and the table validated, on the first call for a K and kept on
    the table object; a table that fails validation keeps none, so raises on
    every call. On the paper tables the largest guide, 32 * cells buckets
    from n = 1e5, takes ~60-80 µs with validation, ~10-40 µs more than 4,096.

    W workers fill chunks ``w, w + W, ...`` into their own slices of the
    cells, ``SLICE_WORDS`` words at a time, so a worker's scratch is one
    slice's words, buckets and sentinel mask: the calling thread and W - 1
    threads that live for the call. W is the number of CPUs in
    the process's affinity mask (``taskset`` sets it), capped so that each
    worker has at least four chunks, so below eight chunks the calling
    thread samples alone. Each chunk has its own stream, so the cells are
    the same to the bit for every W.

    A seed that is not a non-negative integer or a trial count that is not
    a positive one (a bool is neither) raises ``InvalidArgument``, and a
    trial count whose cells cannot be allocated raises ``MemoryError``, all
    before the table is looked at.
    """
    seed = check_int(seed, "seed", 0)
    n_trials = check_int(n_trials, "trial count", 1)
    try:
        cells = np.empty(n_trials, dtype=cell_dtype(math.prod(joint.space.shape)))
    except (MemoryError, ValueError):
        # numpy raises ValueError for an array too big to even shape
        raise MemoryError(f"n = {n_trials} trials are too many to allocate") from None
    bits = _bucket_bits(joint.p.size, n_trials)
    # kept on the table, whose p is a read-only copy; threads racing on a
    # missing plan may each build an equal one
    plans = vars(joint).setdefault("_sampling_plans", {})
    if bits not in plans:
        validate(joint)
        plans[bits] = _sampling_plan(joint.p.reshape(-1), bits, cells.dtype)
    steps, guide, sentinel, shift = plans[bits]
    n_chunks = -(-n_trials // CHUNK_TRIALS)
    workers = worker_count(n_chunks)

    def fill(first: int) -> None:
        # a bucket's uint64 bits are its intp value, as it is below 2**53;
        # the view is made once per worker, and array methods skip wrappers
        bucket = np.empty(min(SLICE_WORDS, n_trials), dtype=np.intp)
        as_uint = bucket.view(np.uint64)
        for chunk in range(first, n_chunks, workers):
            start = chunk * CHUNK_TRIALS
            for raw in _chunk_bits(seed, chunk, min(CHUNK_TRIALS, n_trials - start)):
                stop = start + raw.size
                np.right_shift(raw, shift, out=as_uint[:raw.size])
                out = cells[start:stop]
                # "clip" writes into out, where "raise" fills a copy first; every bucket is in range
                guide.take(bucket[:raw.size], out=out, mode="clip")
                flagged = (out == sentinel).nonzero()[0]
                if flagged.size:
                    out[flagged] = np.searchsorted(steps, raw[flagged] >> _LOW_BITS, side="right")
                start = stop
                del raw  # so the next slice is not drawn while these words are held

    run_workers(fill, workers)
    cells.setflags(write=False)
    return unchecked(EventLog, space=joint.space, cells=cells)


def estimate_from_events(log: EventLog) -> JointDistribution:
    """Relative-frequency table from a log: the sampled table of its counts.

    It is ``JointDistribution(log.space, counts=log.counts())``, made
    without that constructor's checks, which the counts pass by
    construction: they are ``bincount`` over cells that are all below the
    cell count (``EventLog`` checks a given log, and ``sample_events``
    writes none past it), so they are an owned ``intp`` array of the
    space's shape, nonnegative, and summing to n = ``len(log)``. That n is
    at least 1 here and below ``MAX_SAMPLES``, as a log of 2**51 cells
    cannot be allocated. So the counts are kept as the constructor keeps
    its ``intp`` copy, and ``p`` is its ``counts / n``.
    """
    n = len(log)
    if n == 0:
        raise EmptyLog("cannot estimate a distribution from zero events")
    counts = log.counts()
    counts.setflags(write=False)
    p = counts / n
    p.setflags(write=False)
    return unchecked(JointDistribution, space=log.space, p=p, counts=counts, n_samples=n)
