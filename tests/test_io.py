import csv
import hashlib
import json
import math
import os
import re
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcqe.io

from dcqe import (
    CHUNK_TRIALS,
    LOSS,
    ArchitectureSpec,
    EventLog,
    FringeModel,
    InvalidArgument,
    JointDistribution,
    LossFeasibilityProblem,
    OutcomeSpace,
    audit,
    build_kim,
    build_mach_zehnder,
    build_passive_choice,
    build_polarization,
    coarse_grain,
    construct_witness,
    default_fringe_model,
    estimate_from_events,
    kim_coarse_graining,
    sample_events,
)
from dcqe.io import (
    SCHEMA_VERSION,
    arch_config_dict,
    arch_spec_from_dict,
    audit_report_dict,
    feasibility_result_dict,
    problem_dict,
    problem_from_dict,
    read_event_log,
    read_joint,
    read_json,
    read_mask,
    write_audit_report,
    write_column,
    write_event_log,
    write_joint,
    write_json,
)

from conftest import FOUR_BIN_PHASE0, no_memory_for_big_tables
from oracles import reference_read_events, reference_write_events


def small_joint():
    return build_polarization(FringeModel(4, 1.0, FOUR_BIN_PHASE0), 0.5)


def reference_outcome(path):
    """What the row-by-row reader makes of a file: a ``(space, x, labels)``
    triple for a log, or the type of error that reading it raises."""
    try:
        xs, labels = reference_read_events(path)
    except ValueError:
        return ValueError
    if not xs or not all(0 <= x < 2**63 for x in xs):
        return ValueError
    try:
        space = OutcomeSpace(
            max(max(xs) + 1, 2),
            tuple(sorted({c for c, _ in labels})),
            tuple(sorted({d for _, d in labels})),
        )
    except InvalidArgument:
        return InvalidArgument
    return space, xs, labels


def assert_reads_like_reference(path):
    expected = reference_outcome(path)
    if isinstance(expected, type):
        with pytest.raises(ValueError) as info:
            read_event_log(path)
        assert type(info.value) is expected
        return
    space, xs, labels = expected
    log = read_event_log(path)
    assert log.space == space
    assert log.x.tolist() == xs
    assert [(space.c_values[c], space.d_values[d]) for c, d in zip(log.c_idx, log.d_idx)] == labels


def labelled_trials(log):
    """Each trial of ``log`` as its ``(x, c, d)`` bin and labels."""
    c_values, d_values = log.space.c_values, log.space.d_values
    return [
        (x, c_values[c], d_values[d])
        for x, c, d in zip(log.x.tolist(), log.c_idx.tolist(), log.d_idx.tolist())
    ]


class TestEventLogFiles:
    def test_round_trip(self, tmp_path):
        log = sample_events(small_joint(), 500, 9)
        path = tmp_path / "events.csv"
        write_event_log(log, path)
        back = read_event_log(path)
        assert back.space == log.space
        assert np.array_equal(back.x, log.x)
        assert np.array_equal(back.c_idx, log.c_idx)
        assert np.array_equal(back.d_idx, log.d_idx)
        assert back.cells.base is None and not back.cells.flags.writeable

    def test_header_and_loss_spelling(self, tmp_path):
        log = sample_events(small_joint(), 200, 1)
        path = tmp_path / "events.csv"
        write_event_log(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,x,c,d"
        assert any(line.endswith(",LOSS") for line in lines[1:])

    def test_inferred_space_sorts_labels(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "trial,x,c,d\n0,1,preserve,D2\n1,0,erase,D1\n2,3,erase,LOSS\n"
        )
        log = read_event_log(path)
        assert log.space.n_x == 4
        assert log.space.c_values == ("erase", "preserve")
        assert log.space.d_values == ("D1", "D2", "LOSS")
        assert len(log) == 3

    def test_rejects_bad_header(self, tmp_path):
        # a header that will not decode, or has a field past csv's size limit, is no header
        path = tmp_path / "events.csv"
        long = b"d" * (csv.field_size_limit() + 1)
        for body in (b"a,b,c\n", b"tri\xffal,x,c,d\n0,1,a,D1\n", b"trial,x,c," + long + b"\n"):
            path.write_bytes(body)
            with pytest.raises(ValueError, match="expected header 'trial,x,c,d'"):
                read_event_log(path)

    @pytest.mark.parametrize(
        "row, reason",
        [("1,0,b\udcff,D2", "can't decode byte 0xff"),
         ("1,0," + "b" * (csv.field_size_limit() + 1) + ",D2", "field larger than field limit")],
        ids=["non-utf8", "past-field-limit"],
    )
    def test_row_csv_cannot_read_is_named(self, tmp_path, row, reason):
        path = tmp_path / "events.csv"
        path.write_bytes(f"trial,x,c,d\n0,1,a,D1\n{row}\n".encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError, match=f"event row 2 of {re.escape(str(path))}: .*{reason}"):
            read_event_log(path)

    # Python 3.11's csv.reader reads a NUL, which 3.10's refuses
    @pytest.mark.parametrize("row", [b"1,0,a\x00b,D2", b'1,0,a,"D\x002"'], ids=["bare", "quoted"])
    def test_nul_label_is_refused_by_row(self, tmp_path, row):
        path = tmp_path / "events.csv"
        path.write_bytes(b"trial,x,c,d\n0,1,a,D1\n" + row + b"\n")
        with pytest.raises(ValueError, match=f"event row 2 of {re.escape(str(path))}"):
            read_event_log(path)

    @pytest.mark.parametrize("x", [-1, -(2**62), 2**62])
    def test_rejects_out_of_range_bin(self, tmp_path, x):
        # a negative bin is not a valid index; 2**62 bins are too many to allocate
        path = tmp_path / "events.csv"
        path.write_text(f"trial,x,c,d\n0,{x},a,D1\n1,1,b,D2\n")
        with pytest.raises(ValueError, match=f"bin {x} in event row 1 ") as info:
            read_event_log(path)
        assert not isinstance(info.value, InvalidArgument)

    def test_bin_beyond_int64_is_named_ahead_of_a_later_row(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "trial,x,c,d\n0,1,a,D1\n1,99999999999999999999,b,D2\n2,0,a,D1\n3,x,b,D2\n"
        )
        with pytest.raises(ValueError, match="bin 99999999999999999999 in event row 2 "):
            read_event_log(path)

    def test_trial_beyond_int64_is_named(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("trial,x,c,d\n0,1,a,D1\n99999999999999999999,0,b,D2\n")
        with pytest.raises(
            ValueError, match="trial 99999999999999999999 in event row 2 .* does not fit an index"
        ):
            read_event_log(path)

    @pytest.mark.parametrize("field", ["trial", "bin"])
    def test_field_past_the_int_digit_limit_is_named(self, tmp_path, field):
        long = "9" * 5000
        row = f"{long},0,b,D2" if field == "trial" else f"1,{long},b,D2"
        path = tmp_path / "events.csv"
        path.write_text(f"trial,x,c,d\n0,1,a,D1\n{row}\n")
        with pytest.raises(ValueError, match=f"{field} 9+ in event row 2 "):
            read_event_log(path)

    def test_zero_padding_does_not_count_toward_the_digit_limit(self, tmp_path):
        padded = "0" * 5000
        events, joint = tmp_path / "events.csv", tmp_path / "joint.csv"
        events.write_text(f"trial,x,c,d\n{padded}0,{padded}1,a,D1\n{padded}1,0,b,D2\n")
        joint.write_text(f"x,c,d,p\n{padded}1,a,D1,0.5\n0,b,D2,0.5\n")
        assert read_event_log(events).x.tolist() == [1, 0]
        assert read_joint(joint).p[1, 0, 0] == 0.5

    def test_rejects_non_increasing_trials(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("trial,x,c,d\n5,0,a,D1\n5,1,a,D1\n")
        with pytest.raises(ValueError):
            read_event_log(path)

    def test_exact_bytes(self, tmp_path):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        log = EventLog(space, np.ravel_multi_index(([1, 0], [0, 1], [1, 0]), space.shape))
        path = tmp_path / "events.csv"
        write_event_log(log, path)
        assert path.read_bytes() == b"trial,x,c,d\n0,1,a,D2\n1,0,b,D1\n"

    def test_round_trip_quoted_labels(self, tmp_path):
        space = OutcomeSpace(3, ("e,1", 'p"2', "x\r"), ("D 1", "D,2", "\r\r", "a\rb", LOSS))
        table = np.full(space.shape, 1.0 / 45)
        log = sample_events(JointDistribution(space, table), 400, 6)
        path = tmp_path / "events.csv"
        write_event_log(log, path)
        text = path.read_bytes().decode()
        assert '"e,1"' in text and '"p""2"' in text and '"D,2"' in text
        assert '"x\r"' in text and '"\r\r"' in text and '"a\rb"' in text
        back = read_event_log(path)
        assert labelled_trials(back) == labelled_trials(log)
        assert back.space.c_values == ("e,1", 'p"2', "x\r")

    def test_write_is_deterministic(self, tmp_path):
        log = sample_events(small_joint(), 300, 4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_event_log(log, p1)
        write_event_log(log, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unallocatable_table_names_its_row(self, tmp_path, monkeypatch):
        path = tmp_path / "events.csv"
        path.write_text("trial,x,c,d\n0,1,a,D1\n1,3000000000,b,D2\n")
        no_memory_for_big_tables(monkeypatch)
        with pytest.raises(ValueError, match="bin 3000000000 in event row 2 .* too large"):
            read_event_log(path)

    def test_unallocatable_table_names_the_first_row_of_its_bin(self, tmp_path, monkeypatch):
        # the largest bin first appears in a later block than the first,
        # and again after it, in the same block and in a later one
        bins = [1] * 12 + [3000000000, 2, 3000000000] + [2] * 4 + [3000000000] + [1] * 12
        path = tmp_path / "events.csv"
        path.write_text("trial,x,c,d\n" + "".join(f"{t},{x},{'ab'[t % 2]},D1\n" for t, x in enumerate(bins)))
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", 64)
        no_memory_for_big_tables(monkeypatch)
        with pytest.raises(ValueError, match="bin 3000000000 in event row 13 .* too large"):
            read_event_log(path)

    def test_unshapeable_table_names_its_row(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("trial,x,c,d\n0,1,a,D1\n1,9223372036854775807,b,D2\n")
        with pytest.raises(ValueError, match="bin 9223372036854775807 in event row 2 .* too large"):
            read_event_log(path)


# tab, "!", "#", "'" and "+" lie below "," but separate nothing
LABEL_TEXT = st.text(
    st.sampled_from(["a", "Z", " ", ",", '"', "\n", "\r", "\t", "!", "#", "'", "+", "é", "日"]),
    max_size=5,
)


@st.composite
def labelled_logs(draw):
    choice_text = LABEL_TEXT.filter(lambda s: s != LOSS)
    c_values = draw(st.lists(choice_text, min_size=2, max_size=3, unique=True))
    d_values = draw(st.lists(LABEL_TEXT | st.just(LOSS), min_size=1, max_size=3, unique=True))
    space = OutcomeSpace(draw(st.integers(2, 5)), tuple(c_values), tuple(d_values))
    n_cells = math.prod(space.shape)
    cells = draw(st.lists(st.integers(0, n_cells - 1), min_size=1, max_size=30))
    return EventLog(space, np.array(cells))


def quoted_label_log(n_trials, seed=6):
    space = OutcomeSpace(3, ("e,1", 'p"2', "x\r"), ("D 1", "D,2", "\r\r", "a\rb", LOSS))
    return sample_events(JointDistribution(space, np.full(space.shape, 1.0 / 45)), n_trials, seed)


def assert_writes_like_reference(log, tmp_path):
    path, expected = tmp_path / "events.csv", tmp_path / "reference.csv"
    write_event_log(log, path)
    reference_write_events(log, expected)
    assert path.read_bytes() == expected.read_bytes()


class TestEventWriterMatchesReference:
    """The block writer against the row-by-row ``csv.writer`` loop."""

    @settings(max_examples=200, deadline=None)
    @given(log=labelled_logs())
    def test_written_logs(self, tmp_path_factory, log):
        assert_writes_like_reference(log, tmp_path_factory.mktemp("logs"))

    @pytest.mark.parametrize(
        "n_trials", [1, 9, 10, 11, 9999, 10000, 10001, 65535, 65536, 65537, 2 * 65536 + 123]
    )
    def test_digit_widths_and_sizes(self, tmp_path, n_trials):
        assert_writes_like_reference(quoted_label_log(n_trials), tmp_path)

    @pytest.mark.parametrize("low_digits", [1, 2, 3])
    def test_small_blocks(self, tmp_path, monkeypatch, low_digits):
        # blocks of 10, 100 and 1,000 trials; 12,345 trials cross 5 digits
        monkeypatch.setattr(dcqe.io, "_LOW_DIGITS", low_digits)
        assert_writes_like_reference(quoted_label_log(12345), tmp_path)

    def test_log_smaller_than_its_space_renders_only_its_cells(self, tmp_path, monkeypatch):
        rendered = []
        cell_fields = dcqe.io._cell_fields

        def counted(space, cells):
            fields = cell_fields(space, cells)
            rendered.extend(fields)
            return fields

        monkeypatch.setattr(dcqe.io, "_cell_fields", counted)
        space = OutcomeSpace(
            7000, tuple(f"c{k:02}" for k in range(15)), tuple(f"D{k:02}" for k in range(20))
        )
        cells = np.random.default_rng(4).integers(0, math.prod(space.shape), 301)
        assert_writes_like_reference(EventLog(space, cells), tmp_path)
        assert len(rendered) == len(set(cells.tolist())) <= 301

    @pytest.mark.parametrize(
        "kind, q",
        [("kim", None), ("mach_zehnder", 0.5), ("polarization", 0.5), ("passive_choice", None)],
    )
    def test_paper_tables(self, tmp_path, kind, q):
        joint = ArchitectureSpec(kind, FringeModel(64, 2.0), q).build()
        assert_writes_like_reference(sample_events(joint, 20000, 3), tmp_path)

    def test_empty_log_is_the_header(self, tmp_path):
        log = EventLog(OutcomeSpace(2, ("a", "b"), ("D1", "D2")), np.zeros(0, dtype=np.intp))
        assert_writes_like_reference(log, tmp_path)
        assert (tmp_path / "events.csv").read_bytes() == b"trial,x,c,d\n"

    def test_unencodable_label_leaves_no_file(self, tmp_path):
        space = OutcomeSpace(2, ("a", "\ud800"), ("D1", "D2"))
        log = EventLog(space, np.arange(8))
        path = tmp_path / "events.csv"
        with pytest.raises(UnicodeEncodeError):
            write_event_log(log, path)
        assert not path.exists()


class TestEventReaderMatchesReference:
    """The block reader against the row-by-row ``csv.reader`` loop."""

    @settings(max_examples=200, deadline=None)
    @given(log=labelled_logs())
    def test_written_logs(self, tmp_path_factory, log):
        path = tmp_path_factory.mktemp("logs") / "events.csv"
        write_event_log(log, path)
        assert_reads_like_reference(path)
        if not isinstance(reference_outcome(path), type):  # one observed choice has no space
            assert labelled_trials(read_event_log(path)) == labelled_trials(log)

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(b"trial,x,c,d\r\n0,1,a,D1\r\n1,0,b,D2\r\n", id="crlf"),
            pytest.param(b"trial,x,c,d\n\n0,1,a,D1\n\r\n\n1,0,b,D2\n\n", id="blank-lines"),
            pytest.param(b"trial,x,c,d\n0,1,a,D1\n1,0,b,D2", id="no-final-newline"),
            pytest.param(b"trial,x,c,d\n0,1,a,D1\n1,0,b,D2\r", id="final-cr"),
            pytest.param(b" trial , x,c,d \n0,1,a,D1\n1,0,b,D2\n", id="spaced-header"),
            pytest.param(b'trial,x,c,d\r\n0,1,"a\r\nb",D1\r\n7,0,"""",",,"\r\n', id="crlf-quoted"),
            pytest.param(b"trial,x,c,d\n0,1,,\n1,0,b,\n", id="empty-labels"),
            pytest.param(b"trial,x,c,d\n0,007,a,D1\n1,-0,b,D2\n", id="zero-padded"),
            pytest.param(b"trial,x,c,d\n0,1,a,D1\n1,0,b\n", id="3-fields"),
            pytest.param(b"trial,x,c,d\n0,1,a,D1,E\n1,0,b,D2\n", id="5-fields"),
            pytest.param(b"trial,x,c,d\n0,1,a,D1\n1\n", id="1-field-last"),
            pytest.param(b"trial,x,c,d\n0,1,a,D1\n1", id="1-field-no-final-newline"),
            pytest.param(b"trial,x,c,d\n0,1,a,D1\n0,0,b,D2\n", id="repeated-trial"),
            pytest.param(b"trial,x,c,d\n5,1,a,D1\n3,0,b,D2\n", id="decreasing-trials"),
            pytest.param(b"trial,x,c,d\n-1,1,a,D1\n3,0,b,D2\n", id="negative-trial"),
            pytest.param(b"trial,x,c,d\n0,1,a,D1\n1,9223372036854775808,b,D2\n", id="bin-2**63"),
            pytest.param(b"trial,x,c,d\n0,1,a,D1\n1,-9223372036854775809,b,D2\n", id="bin--2**63-1"),
            pytest.param(b"trial,x,c,d\n0,1,a,D1\n1,-9223372036854775808,b,D2\n", id="bin--2**63"),
            pytest.param(b"trial,x,c,d\n0,1,a,D1\n1,00000000000000000000001,b,D2\n", id="bin-23-digits"),
            pytest.param(b"trial,x,c,d\n0,-1,a,D1\n1,0,b,D2\n", id="negative-bin"),
            pytest.param(b"trial,x,c,d\n0,1,a,D1\n1,0,a,D2\n", id="one-choice"),
            pytest.param(b"trial,x,c,d\n0,1,LOSS,D1\n1,0,b,D2\n", id="loss-choice"),
            pytest.param(b"trial,x,c,d\n0,x,a,D1\n", id="non-integer-bin"),
            pytest.param(b"trial,x,c,d\n\n\n", id="no-events"),
            pytest.param(b"trial,x,c,d", id="header-only"),
            pytest.param(b"", id="empty"),
            pytest.param(b"\ntrial,x,c,d\n0,1,a,D1\n", id="blank-before-header"),
            pytest.param(b"trial,x,c\n0,1,a\n", id="short-header"),
        ],
    )
    def test_hand_made_files(self, tmp_path, body):
        path = tmp_path / "events.csv"
        path.write_bytes(body)
        assert_reads_like_reference(path)

    @pytest.mark.parametrize(
        "row",
        [
            pytest.param(b" 1,0,b,D2", id="padded-trial"),
            pytest.param(b"1,+0,b,D2", id="plus-bin"),
            pytest.param(b'"1",0,b,D2', id="quoted-trial"),
            pytest.param(b"1,0,b,D2\r2,1,a,D1", id="bare-cr"),
            pytest.param(b'1,0,b"c,D2', id="stray-quote"),
            pytest.param(b'1,0,b"c,D2\n2,1,a"d,D1', id="paired-stray-quotes"),
            pytest.param(b'1,0,"b"c,D2', id="text-after-closing-quote"),
        ],
    )
    def test_lenient_inputs_are_rejected_by_row(self, tmp_path, row):
        # csv.reader accepts these, but the writer never produces them
        path = tmp_path / "events.csv"
        path.write_bytes(b"trial,x,c,d\n0,1,a,D1\n" + row + b"\n3,1,a,D1\n")
        reference_read_events(path)
        with pytest.raises(ValueError, match="event row 2 "):
            read_event_log(path)


class TestEventReaderBlocks:
    """Blocks of a few bytes cut records, quoted newlines and the last line."""

    TEXT = (
        b"trial,x,c,d\n0,1,a,D1\n1,0,\"e\n1\",\"D,\"\"2\"\"\"\n"
        b"2,12345,a,D1\n3,0,\"e\n1\",\"D,\"\"2\"\"\"\r\n\n4,2,a,D1"
    )

    @pytest.mark.parametrize("block_bytes", [1, 2, 3, 5, 8, 13, 21, 34])
    def test_small_blocks_read_identically(self, tmp_path, monkeypatch, block_bytes):
        path = tmp_path / "events.csv"
        path.write_bytes(self.TEXT)
        whole = read_event_log(path)
        assert whole.space.c_values == ("a", "e\n1")
        assert whole.space.d_values == ("D,\"2\"", "D1")
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", block_bytes)
        assert_reads_like_reference(path)
        assert np.array_equal(read_event_log(path).cells, whole.cells)

    @pytest.mark.parametrize("block_bytes", [1, 4, 9])
    def test_small_blocks_name_the_same_row(self, tmp_path, monkeypatch, block_bytes):
        path = tmp_path / "events.csv"
        path.write_bytes(b"trial,x,c,d\n0,1,a,D1\n\n1,0,b,D2\n+2,1,a,D1\n")
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", block_bytes)
        with pytest.raises(ValueError, match="event row 3 "):
            read_event_log(path)
        path.write_bytes(b'trial,x,c,d\n0,1,a,D1\n1,0,b,"D2\n')
        with pytest.raises(ValueError, match="event row 2 "):
            read_event_log(path)

    LOW_BYTE_TEXT = (
        b"trial,x,c,d\n0,1,a\t!,#'+\n1,0,' +,\"!\n#\"\n2,3,a\t!,D\t\t\r\n"
        b"3,2,' +,#'+\n4,1,a\t!,\"!\n#\"\n"
    )

    @pytest.mark.parametrize("block_bytes", [1, 3, 7, 12, 1000])
    def test_low_bytes_that_separate_nothing(self, tmp_path, monkeypatch, block_bytes):
        # tab, "!", "#", "'" and "+" are found by the scan for separators too
        path = tmp_path / "events.csv"
        path.write_bytes(self.LOW_BYTE_TEXT)
        whole = read_event_log(path)
        assert whole.space.c_values == ("' +", "a\t!")
        assert whole.space.d_values == ("!\n#", "#'+", "D\t\t")
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", block_bytes)
        assert_reads_like_reference(path)
        assert np.array_equal(read_event_log(path).cells, whole.cells)
        path.write_bytes(self.LOW_BYTE_TEXT + b"5,\t1,a\t!,#'+\n")
        with pytest.raises(ValueError, match="event row 6 "):
            read_event_log(path)

    SPACED_TEXT = (
        b"trial,x,c,d\n0,1,c 1,D erase\n1,0,c\t2,D preserve\n2,3,c 1,#$%&'()*+\n"
        b"3,2,! !,D erase\n\n4,1,c\t2,LOSS\n5,0,c 1,D preserve\n"
    )

    @pytest.mark.parametrize("block_bytes", [1, 3, 7, 12, 1000])
    def test_label_bytes_without_quotes_or_crs(self, tmp_path, monkeypatch, block_bytes):
        # spaces, tabs, "!" and "#" to "+" are found by the scan for
        # separators, so these blocks take the quote-parity path
        path = tmp_path / "events.csv"
        path.write_bytes(self.SPACED_TEXT)
        whole = read_event_log(path)
        assert whole.space.c_values == ("! !", "c\t2", "c 1")
        assert whole.space.d_values == ("#$%&'()*+", "D erase", "D preserve", LOSS)
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", block_bytes)
        assert_reads_like_reference(path)
        assert np.array_equal(read_event_log(path).cells, whole.cells)

    @pytest.mark.parametrize(
        "row, message",
        [
            pytest.param(b"6,1,c 1,D erase,x", "malformed event row ", id="5-fields"),
            pytest.param(b"6,1,c 1", "malformed event row ", id="3-fields"),
            pytest.param(b"6,\t1,c 1,D erase", "event row 7 ", id="tab-in-bin"),
            pytest.param(b"6, 1,c 1,D erase", "event row 7 ", id="space-in-bin"),
            pytest.param(b"6,1,c\x001,D erase", "event row 7 ", id="nul-label"),
            pytest.param(b"5,1,c 1,D erase", "strictly increasing", id="repeated-trial"),
        ],
    )
    @pytest.mark.parametrize("block_bytes", [5, 1 << 18])
    def test_label_bytes_beside_a_malformed_row(
        self, tmp_path, monkeypatch, row, message, block_bytes
    ):
        path = tmp_path / "events.csv"
        path.write_bytes(self.SPACED_TEXT + row + b"\n7,0,c 1,D erase\n")
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", block_bytes)
        with pytest.raises(ValueError, match=message):
            read_event_log(path)

    @pytest.mark.parametrize("block_bytes", [16, 1 << 18])
    def test_fields_of_every_width(self, tmp_path, monkeypatch, block_bytes):
        # integers are read eight digits at a time: 1 to 19 digits, signed
        # and zero-padded, end on every side of a word
        rows = []
        for width in range(1, 19):
            rows.append(b"%d,%0*d,a,D1" % (10**width - 1, width, width % 4))
            rows.append(b"%d,-%s,b,D2" % (10**width, b"0" * width))
        path = tmp_path / "events.csv"
        path.write_bytes(b"\n".join([b"trial,x,c,d", *rows, b""]))
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", block_bytes)
        assert_reads_like_reference(path)
        assert read_event_log(path).x.tolist() == [x for width in range(1, 19) for x in (width % 4, 0)]

    def test_every_byte_in_every_digit_place(self):
        # a field reads as a number only when its bytes are digits after an
        # optional "-", wherever in its eight-byte word a byte falls
        fields = [
            b"7" * place + bytes([byte]) + b"7" * (width - 1 - place)
            for width in (1, 3, 8, 9, 12)
            for place in range(width)
            for byte in range(256)
        ]
        stops = np.cumsum([len(f) + 1 for f in fields]) + 7
        body = b"\0" * 8 + b",".join(fields)
        buf = body + bytes(8 * (dcqe.io._TAIL_WORDS + 1) + -len(body) % 8)
        values, ok = dcqe.io._decode_ints(
            buf, np.frombuffer(buf, dtype="<u8"), stops - [len(f) for f in fields], stops
        )
        expected = [re.fullmatch(rb"-?[0-9]+", f) is not None for f in fields]
        assert ok.tolist() == expected
        assert values[ok].tolist() == [int(f) for f, good in zip(fields, expected) if good]

    def test_hash_collisions_fall_back_to_exact_lookup(self, tmp_path, monkeypatch):
        # with a zero multiplier every key is 0, so these collide; with one
        # record per block each stands for its own slot, so this checks
        # that no key or code carries over from one block to the next
        monkeypatch.setattr(dcqe.io, "_HASH_MULTIPLIER", np.uint64(0))
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", 16)
        path = tmp_path / "events.csv"
        path.write_bytes(b"trial,x,c,d\n0,1,erase---,tail-end\n1,0,keep----,tail-end\n")
        log = read_event_log(path)
        assert log.space.c_values == ("erase---", "keep----")
        assert log.c_idx.tolist() == [0, 1]
        assert_reads_like_reference(path)

    def test_hash_collisions_within_one_block(self, tmp_path, monkeypatch):
        # with a zero multiplier every key is 0, so both tails share a block
        # and a slot: one record stands for the slot, and the other tail
        # fails the check and takes the exact lookup
        monkeypatch.setattr(dcqe.io, "_HASH_MULTIPLIER", np.uint64(0))
        path = tmp_path / "events.csv"
        path.write_bytes(
            b"trial,x,c,d\n0,1,erase---,tail-end\n1,0,keep----,tail-end\n2,1,erase---,tail-end\n"
        )
        log = read_event_log(path)
        assert log.space.c_values == ("erase---", "keep----")
        assert log.c_idx.tolist() == [0, 1, 0]
        assert_reads_like_reference(path)

    def test_tails_apart_only_by_length(self, tmp_path, monkeypatch):
        # with a zero multiplier every key is 0, and the NUL past "a,b"
        # leaves their words alike, so only their lengths differ
        monkeypatch.setattr(dcqe.io, "_HASH_MULTIPLIER", np.uint64(0))
        path = tmp_path / "events.csv"
        path.write_bytes(b"trial,x,c,d\n0,1,a,b\n1,0,a,b\x00\n")
        with pytest.raises(ValueError, match="event row 2 "):
            read_event_log(path)

    def test_paper_layouts_take_distinct_slots(self, tmp_path, monkeypatch):
        # the slot tier looks each of a block's tails up once; a record past
        # it, in a slot shared with another tail, is looked up on its own
        calls, past_slots_per_block = [], []
        code, codes = dcqe.io._LabelCodes.code, dcqe.io._LabelCodes.codes

        def counted(self, tail):
            calls.append(tail)
            return code(self, tail)

        def per_block(self, buf, words, starts, stops):
            calls.clear()
            out = codes(self, buf, words, starts, stops)
            tails = {buf[a:b] for a, b in zip(starts.tolist(), stops.tolist())}
            past_slots_per_block.append(len(calls) - len(tails))
            return out

        monkeypatch.setattr(dcqe.io._LabelCodes, "code", counted)
        monkeypatch.setattr(dcqe.io._LabelCodes, "codes", per_block)
        model = default_fringe_model()
        kim = build_kim(model)
        tables = {
            "kim": kim,
            "kim_coarse": coarse_grain(kim, kim_coarse_graining()),
            "mach_zehnder": build_mach_zehnder(model, 0.5),
            "polarization": build_polarization(model, 0.5),
            "passive_choice": build_passive_choice(model),
        }
        past_slots = {}
        for name, joint in tables.items():
            log = sample_events(joint, 20_000, 3)
            path = tmp_path / f"{name}.csv"
            write_event_log(log, path)
            past_slots_per_block.clear()
            assert labelled_trials(read_event_log(path)) == labelled_trials(log)
            past_slots[name] = sum(past_slots_per_block)
        assert past_slots == dict.fromkeys(tables, 0)

    def test_each_new_tail_is_looked_up_once_per_block(self, tmp_path, monkeypatch):
        calls = []
        code = dcqe.io._LabelCodes.code

        def counted(self, tail):
            calls.append(tail)
            return code(self, tail)

        monkeypatch.setattr(dcqe.io._LabelCodes, "code", counted)
        log = sample_events(small_joint(), 3000, 5)
        path = tmp_path / "events.csv"
        write_event_log(log, path)
        assert labelled_trials(read_event_log(path)) == labelled_trials(log)
        pairs = set(zip(log.c_idx.tolist(), log.d_idx.tolist()))
        assert len(calls) == len(set(calls)) == len(pairs)

    #: Tail lengths around the word size and the 64-byte limit of array coding.
    TAIL_LENGTHS = [*range(1, 10), 16, 17, 64, 65]

    @staticmethod
    def tails_of_length(length):
        """Tails of ``length`` bytes that each differ from the first in one
        byte: the first, the last or one on either side of a word boundary."""
        base = bytearray((b"abcdefghijklmnopqrstuvwxyz" * 3)[:length])
        comma = length // 2
        base[comma] = ord(",")
        tails = [bytes(base)]
        for i in sorted({0, 7, 8, 15, 16, 56, 63, 64, length - 1}):
            if i < length and i != comma:
                tails.append(bytes(base[:i] + b"Z" + base[i + 1:]))
        return tails

    def write_tails(self, path, tails, n_rows, n_bins):
        """A log of ``n_rows`` rows drawing bins and tails at random."""
        rng = np.random.default_rng(11)
        xs = rng.integers(0, n_bins, n_rows).tolist()
        picks = rng.integers(0, len(tails), n_rows).tolist()
        rows = [b"%d,%d,%s" % (trial, x, tails[k]) for trial, (x, k) in enumerate(zip(xs, picks))]
        path.write_bytes(b"\n".join([b"trial,x,c,d", *rows, b""]))

    def all_tails(self):
        return [t for length in self.TAIL_LENGTHS for t in self.tails_of_length(length)]

    @pytest.mark.parametrize("block_bytes", [64, 512, 1 << 18])
    def test_tails_around_word_boundaries(self, tmp_path, monkeypatch, block_bytes):
        path = tmp_path / "events.csv"
        self.write_tails(path, self.all_tails(), 3000, 1000)
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", block_bytes)
        assert_reads_like_reference(path)

    def test_each_tail_is_parsed_once_per_file(self, tmp_path, monkeypatch):
        path = tmp_path / "events.csv"
        tails = self.all_tails()
        self.write_tails(path, tails, 3000, 1000)
        parsed = []
        label_pair = dcqe.io._label_pair

        def counted(tail):
            parsed.append(tail)
            return label_pair(tail)

        monkeypatch.setattr(dcqe.io, "_label_pair", counted)
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", 512)
        read_event_log(path)
        assert path.stat().st_size > 100 * 512
        assert len(parsed) == len(set(parsed)) == len(tails)

    @pytest.mark.parametrize("block_bytes", [512, 1 << 18])
    @pytest.mark.parametrize("short", [True, False], ids=["3-byte", "mixed"])
    def test_code_runs_once_per_group_per_block(self, tmp_path, monkeypatch, block_bytes, short):
        # a short tail's key must not hold the bin before it, or the 3-byte
        # tails here would make about a group per record
        path = tmp_path / "events.csv"
        tails = [b"a,b", b"a,c", b"b,c"] if short else self.all_tails()
        self.write_tails(path, tails, 3000, 300)
        calls, blocks = [], []
        code, codes = dcqe.io._LabelCodes.code, dcqe.io._LabelCodes.codes

        def counted(self, tail):
            calls.append(tail)
            return code(self, tail)

        def per_block(self, buf, words, starts, stops):
            calls.clear()
            out = codes(self, buf, words, starts, stops)
            block = [buf[a:b] for a, b in zip(starts.tolist(), stops.tolist())]
            misses = sum(len(t) > 8 * dcqe.io._TAIL_WORDS for t in block)
            assert len(calls) <= len(set(block)) + misses
            blocks.append(len(block))
            return out

        monkeypatch.setattr(dcqe.io._LabelCodes, "code", counted)
        monkeypatch.setattr(dcqe.io._LabelCodes, "codes", per_block)
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", block_bytes)
        assert_reads_like_reference(path)
        assert sum(blocks) == 3000
        if block_bytes == 512:
            assert len(blocks) > 10
        else:
            assert len(blocks) == 1

    def test_blocks_of_mixed_widths_concatenate(self, tmp_path, monkeypatch):
        # bins on both sides of 255 and 65,535 and 300 label pairs, so small
        # blocks hold bins and pair codes of one, two and four bytes
        space = OutcomeSpace(
            70_000, tuple(f"c{k:02}" for k in range(20)), tuple(f"D{k:02}" for k in range(15))
        )
        rng = np.random.default_rng(0)
        x = np.concatenate((
            rng.integers(0, 256, 200),
            rng.integers(256, 65_536, 400),
            rng.integers(65_536, 70_000, 200),
            [69_999],
            rng.integers(0, 256, 100),
        ))
        pair = np.concatenate((np.arange(200) % 10, np.arange(400) % 300, rng.integers(0, 300, 301)))
        log = EventLog(space, np.ravel_multi_index((x, pair // 15, pair % 15), space.shape))
        assert log.cells.dtype == np.uint32
        path = tmp_path / "events.csv"
        reference_write_events(log, path)
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", 512)
        assert_reads_like_reference(path)
        read = read_event_log(path)
        assert read.space == space
        assert read.cells.dtype == log.cells.dtype
        assert np.array_equal(read.cells, log.cells)


class TestEventReaderFuzz:
    """Written logs with bytes inserted, deleted or replaced, read in blocks
    of several sizes: whatever the reader accepts, the row-by-row reference
    reads the same, and what it refuses it refuses with the same
    ``ValueError`` at every block size."""

    #: Separators, quotes, digits, signs, bytes UTF-8 never holds, and labels.
    PIECES = [
        b",", b"\n", b"\r", b'"', *(b"%d" % k for k in range(10)), b"-", b"\x00", b"\xff",
        b"a", b"D1", b"LOSS", b'"e,1"', b'"p""2"', b"\r\n",
    ]
    BLOCK_BYTES = [1 << 18, 64, 16, 8]

    def mutated(self, rng, data):
        """``data`` with 1-3 edits, each inserting, deleting or replacing a piece."""
        data = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(0, len(data) + 1))
            piece = self.PIECES[int(rng.integers(len(self.PIECES)))]
            edit = int(rng.integers(3))
            if edit == 0:
                data[at:at] = piece
            elif edit == 1:
                del data[at:at + int(rng.integers(1, 4))]
            else:
                data[at:at + len(piece)] = piece
        return bytes(data)

    @pytest.mark.parametrize("seed", range(8))
    def test_mutated_logs(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        written = tmp_path / "written.csv"
        path = tmp_path / "events.csv"
        accepted = 0
        for i in range(40):
            log = quoted_label_log(int(rng.integers(1, 12)), seed=1000 * seed + i)
            if i % 2:
                log = sample_events(small_joint(), int(rng.integers(1, 12)), 1000 * seed + i)
            write_event_log(log, written)
            path.write_bytes(self.mutated(rng, written.read_bytes()))
            expected = reference_outcome(path)
            outcomes = set()
            for block_bytes in self.BLOCK_BYTES:
                monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", block_bytes)
                try:
                    read = read_event_log(path)
                except ValueError as exc:
                    outcomes.add((type(exc), str(exc)))
                    continue
                assert not isinstance(expected, type), "the reference refuses what was read"
                space, xs, labels = expected
                assert read.space == space
                assert labelled_trials(read) == [(x, *pair) for x, pair in zip(xs, labels)]
                outcomes.add(read.cells.tobytes())
            assert len(outcomes) == 1
            accepted += isinstance(outcomes.pop(), bytes)
        # the edits leave some logs readable and break others
        assert 0 < accepted < 40


#: Worker counts the sampler's rule is forced to give the writer and reader;
#: 3 and 5 stand for hosts with more CPUs, where io still takes two.
WORKERS = [1, 2, 3, 5]


def force_workers(monkeypatch, workers):
    """Make the sampler's rule give io's writer and reader ``workers``
    workers, whatever the file."""
    monkeypatch.setattr(dcqe.io, "worker_count", lambda units: workers)


def multibyte_label_log(n_trials, seed=8):
    space = OutcomeSpace(5, ("ψ-erase", "保持"), ("D₁", "Dé", LOSS))
    return sample_events(JointDistribution(space, np.full(space.shape, 1.0 / 30)), n_trials, seed)


def read_outcome(path):
    """The cells ``read_event_log`` reads from ``path``, or its error's message."""
    try:
        return read_event_log(path).cells.tobytes()
    except ValueError as exc:
        return str(exc)


class TestWorkerCounts:
    """Files, logs and errors are the same on any number of workers."""

    @pytest.mark.parametrize(
        "n_trials",
        [1, 9_999, 10_000, 10_001, 8 * CHUNK_TRIALS - 1, 8 * CHUNK_TRIALS, 8 * CHUNK_TRIALS + 1],
    )
    @pytest.mark.parametrize("labels", ["plain", "quoted", "multibyte"])
    def test_written_files_are_identical(self, tmp_path, monkeypatch, n_trials, labels):
        if labels == "plain":
            log = sample_events(small_joint(), n_trials, 5)
        else:
            log = (quoted_label_log if labels == "quoted" else multibyte_label_log)(n_trials)
        path = tmp_path / "events.csv"
        digests = set()
        for workers in WORKERS:
            force_workers(monkeypatch, workers)
            write_event_log(log, path)
            digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
        assert len(digests) == 1
        if n_trials < 20_000:
            assert_writes_like_reference(log, tmp_path)

    def test_log_smaller_than_its_space(self, tmp_path, monkeypatch):
        space = OutcomeSpace(
            7000, tuple(f"c{k:02}" for k in range(15)), tuple(f"D{k:02}" for k in range(20))
        )
        log = EventLog(space, np.random.default_rng(4).integers(0, math.prod(space.shape), 301))
        for workers in WORKERS:
            force_workers(monkeypatch, workers)
            assert_writes_like_reference(log, tmp_path)

    @staticmethod
    def written(tmp_path, body=None):
        """Event files of several record kinds: plain, quoted, labels with
        spaces and CRLF endings; ``body`` adds one made by hand."""
        logs = {
            "plain": sample_events(small_joint(), 5_000, 3),
            "quoted": quoted_label_log(2_000),
            "spaced": EventLog(
                OutcomeSpace(4, ("a b", "c"), (" D 1", "D2")), np.arange(2000) % 16
            ),
        }
        paths = []
        for name, log in logs.items():
            paths.append(tmp_path / f"{name}.csv")
            write_event_log(log, paths[-1])
        paths.append(tmp_path / "crlf.csv")
        paths[-1].write_bytes(paths[0].read_bytes().replace(b"\n", b"\r\n"))
        return paths

    @pytest.mark.parametrize("workers", WORKERS)
    def test_logs_are_equal_at_any_block_size(self, tmp_path, monkeypatch, workers):
        paths = self.written(tmp_path)
        expected = [read_event_log(path) for path in paths]
        force_workers(monkeypatch, workers)
        for block_bytes in (512, 1 << 18):
            monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", block_bytes)
            assert [read_event_log(path) for path in paths] == expected

    @staticmethod
    def outcomes(path, monkeypatch, block_sizes=(512, 1 << 18)):
        """What each forced worker count reads from ``path`` at each block size."""
        found = set()
        for workers in WORKERS:
            force_workers(monkeypatch, workers)
            for block_bytes in block_sizes:
                monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", block_bytes)
                found.add(read_outcome(path))
        return found

    def test_the_first_of_two_malformed_rows_is_named(self, tmp_path, monkeypatch):
        rows = [b"%d,%d,a,D1" % (t, t % 7) for t in range(3000)]
        rows[40] = b"40,+1,a,D1"
        rows[2500] = b"2500,1,a"
        path = tmp_path / "events.csv"
        path.write_bytes(b"\n".join([b"trial,x,c,d", *rows, b""]))
        assert self.outcomes(path, monkeypatch) == {
            f"bin b'+1' in event row 41 of {path} is not a bare decimal integer"
        }

    def test_a_later_block_that_finishes_first_is_not_named(self, tmp_path, monkeypatch):
        # block 0 waits until another block is read, so the blocks finish
        # out of file order; the error is still the first row's
        rows = [b"%d,%d,a,D1" % (t, t % 7) for t in range(3000)]
        rows[3] = b"3,-1,a,D1"
        rows[2000] = b"2000,x,a,D1"
        path = tmp_path / "events.csv"
        path.write_bytes(b"\n".join([b"trial,x,c,d", *rows, b""]))
        read_block, later_read = dcqe.io._read_block, threading.Event()

        def out_of_order(records, label_codes, opens_file):
            if opens_file:
                assert later_read.wait(10)
            block = read_block(records, label_codes, opens_file)
            later_read.set()
            return block

        monkeypatch.setattr(dcqe.io, "_read_block", out_of_order)
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", 512)
        force_workers(monkeypatch, 2)
        with pytest.raises(ValueError, match=r"bin -1 in event row 4 .* not a valid index"):
            read_event_log(path)

    @pytest.mark.parametrize("fall_back", [1, 300])
    def test_trials_that_fall_back_across_a_block_boundary(self, tmp_path, monkeypatch, fall_back):
        # records of 16 bytes in blocks of 16: each record opens its own block
        trials = list(range(400))
        trials[fall_back] = trials[fall_back - 1]
        rows = [b"%05d,%03d,ab,cd" % (t, t % 9) for t in trials]
        path = tmp_path / "events.csv"
        path.write_bytes(b"\n".join([b"trial,x,c,d", *rows, b""]))
        expected = f"trial indices must be strictly increasing in {path}"
        assert self.outcomes(path, monkeypatch, (16, 512, 1 << 18)) == {expected}

    def test_a_bad_header_is_named(self, tmp_path, monkeypatch):
        path = tmp_path / "events.csv"
        write_event_log(sample_events(small_joint(), 20_000, 3), path)
        path.write_bytes(b"trial,x,c,e" + path.read_bytes()[len(b"trial,x,c,d"):])
        assert self.outcomes(path, monkeypatch) == {f"expected header 'trial,x,c,d' in {path}"}

    def test_shared_label_coder_under_fast_switching(self, tmp_path, monkeypatch):
        # every worker io takes, switching every microsecond: a tail parsed
        # twice or a pair numbered twice would show as a lost update
        space = OutcomeSpace(
            6, tuple(f"c{k:02}" for k in range(20)), tuple(f"D{k:02}" for k in range(15))
        )
        log = EventLog(space, np.random.default_rng(2).integers(0, math.prod(space.shape), 20_000))
        path = tmp_path / "events.csv"
        write_event_log(log, path)
        parsed = []
        label_pair = dcqe.io._label_pair

        def counted(tail):
            parsed.append(tail)
            return label_pair(tail)

        monkeypatch.setattr(dcqe.io, "_label_pair", counted)
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", 4096)
        force_workers(monkeypatch, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            read = read_event_log(path)
        finally:
            sys.setswitchinterval(interval)
        assert read == log
        pairs = set(zip(log.c_idx.tolist(), log.d_idx.tolist()))
        assert len(parsed) == len(set(parsed)) == len(pairs)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_no_more_than_two_workers(self, tmp_path, monkeypatch, cpus):
        path = tmp_path / "events.csv"
        started = []

        def counted(work, workers):
            started.append(workers)
            return dcqe.events.run_workers(work, workers)

        monkeypatch.setattr(dcqe.io, "run_workers", counted)
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", 512)
        force_workers(monkeypatch, cpus)
        log = sample_events(small_joint(), 20_000, 3)
        write_event_log(log, path)
        assert read_event_log(path) == log
        assert started == [min(cpus, 2)] * 2

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_threads_stop_after_a_raising_worker(self, tmp_path, monkeypatch, workers):
        path = tmp_path / "events.csv"
        log = sample_events(small_joint(), 20_000, 3)
        write_event_log(log, path)
        baseline = threading.active_count()
        read_block, reads = dcqe.io._read_block, []

        def fails_on_the_third(records, label_codes, opens_file):
            reads.append(None)
            if len(reads) == 3:
                raise MemoryError("a worker's block")
            return read_block(records, label_codes, opens_file)

        monkeypatch.setattr(dcqe.io, "_read_block", fails_on_the_third)
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", 512)
        force_workers(monkeypatch, workers)
        with pytest.raises(MemoryError, match="a worker's block"):
            read_event_log(path)
        assert threading.active_count() == baseline

        pwrite, writes = dcqe.io._pwrite, []

        def fails_once(fd, data, offset):
            writes.append(None)
            if len(writes) == 3:
                raise OSError("a worker's write")
            return pwrite(fd, data, offset)

        monkeypatch.setattr(dcqe.io, "_pwrite", fails_once)
        with pytest.raises(OSError, match="a worker's write"):
            write_event_log(log, path)
        assert threading.active_count() == baseline


class TestEventReaderMemory:
    def test_memory_is_the_cells_and_a_few_blocks(self, tmp_path):
        # bins and pair codes are kept in a byte each, and the cells are
        # filled block by block in their own dtype, so past those two bytes
        # per event and the cells only a few blocks are ever held
        log = sample_events(build_polarization(default_fringe_model(), 0.5), 10**6, 7)
        path = tmp_path / "events.csv"
        write_event_log(log, path)
        tracemalloc.start()
        try:
            read = read_event_log(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(read.cells, log.cells)
        assert peak < read.cells.nbytes + 2 * len(log) + 4 * dcqe.io._BLOCK_BYTES

    @pytest.mark.parametrize("workers", [2, 3])
    def test_on_forced_workers(self, tmp_path, monkeypatch, workers):
        force_workers(monkeypatch, workers)
        self.test_memory_is_the_cells_and_a_few_blocks(tmp_path)


class TestEventWriterMemory:
    def test_memory_is_the_cell_table_and_a_few_blocks(self, tmp_path):
        log = sample_events(build_polarization(default_fringe_model(), 0.5), 10**6, 7)
        path = tmp_path / "events.csv"
        fields = dcqe.io._cell_fields(log.space, range(math.prod(log.space.shape)))
        row_bytes = len(str(len(log))) + max(len(f",{f}\n".encode()) for f in fields)
        tracemalloc.start()
        try:
            write_event_log(log, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # per cell, its table row and the str and bytes it is rendered from
        table = len(fields) * (row_bytes + 200)
        assert peak < table + 8 * 10**dcqe.io._LOW_DIGITS * row_bytes

    @pytest.mark.parametrize("workers", [2, 3])
    def test_on_forced_workers(self, tmp_path, monkeypatch, workers):
        force_workers(monkeypatch, workers)
        self.test_memory_is_the_cell_table_and_a_few_blocks(tmp_path)


class TestJointFiles:
    def test_round_trip_is_exact(self, tmp_path):
        joint = small_joint()
        path = tmp_path / "joint.csv"
        write_joint(joint, path)
        back = read_joint(path)
        assert back.space.c_values == joint.space.c_values
        assert back.space.d_values == joint.space.d_values
        assert np.array_equal(back.p, joint.p)
        assert back.n_samples is None

    def test_header(self, tmp_path):
        path = tmp_path / "joint.csv"
        write_joint(small_joint(), path)
        assert path.read_text().splitlines()[0] == "x,c,d,p"

    def test_label_order_is_first_appearance(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text(
            "x,c,d,p\n0,b,D2,0.25\n0,a,D1,0.25\n1,b,D2,0.25\n1,a,D1,0.25\n"
        )
        joint = read_joint(path)
        assert joint.space.c_values == ("b", "a")
        assert joint.space.d_values == ("D2", "D1")

    def test_missing_cells_are_zero(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("x,c,d,p\n0,a,D1,0.3\n0,b,D2,0.2\n1,a,D1,0.3\n1,b,D2,0.2\n")
        joint = read_joint(path)
        assert joint.p[0, 0, 1] == 0.0
        assert joint.p[0, 1, 0] == 0.0

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "joint.csv"
        # a bin past Python's 4,300-digit int conversion limit is named by its line too
        rows = ("0,a,D1,not_a_number", "1,b,D2", "1,b,D2,5_0e-2", "1,b,D2, 0.5",
                "1,b,D2,0.5 ", "9" * 5000 + ",b,D2,0.5", '1,b,"D\x002",0.5')
        # a byte that is not UTF-8 is named by its line before any field is parsed
        for row in rows + ("1,b\udcff,D2,0.5",):
            path.write_bytes(f"x,c,d,p\n0,a,D1,0.5\n{row}\n".encode("utf-8", "surrogateescape"))
            with pytest.raises(ValueError, match=f"(^|on )line 3 of {re.escape(str(path))}"):
                read_joint(path)

    @pytest.mark.parametrize(
        "body, message",
        [("x,c,d\n0,a,D1\n", "expected header 'x,c,d,p'"), ("", "expected header"),
         ("x,c,d,p\n", "no cells in"), ("x,c,d,p\n\n\n", "no cells in")],
        ids=["short-header", "empty", "header-only", "blank-rows-only"],
    )
    def test_rejects_a_file_without_cells(self, tmp_path, body, message):
        path = tmp_path / "joint.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            read_joint(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("x,c,d,p\n\n0,a,D1,0.5\n\n1,b,D2,0.5\n\n")
        joint = read_joint(path)
        assert joint.p[0, 0, 0] == joint.p[1, 1, 1] == 0.5

    def test_unallocatable_table_names_its_line(self, tmp_path, monkeypatch):
        path = tmp_path / "joint.csv"
        path.write_text("x,c,d,p\n0,a,D1,0.5\n3000000000,b,D2,0.5\n")

        def no_memory(shape, *args, **kwargs):
            raise MemoryError(shape)

        # stands in for the failed 89 GiB allocation, which not every host refuses
        monkeypatch.setattr(np, "zeros", no_memory)
        with pytest.raises(ValueError, match="bin 3000000000 on line 3 .* too large"):
            read_joint(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, value):
        path = tmp_path / "joint.csv"
        path.write_text(f"x,c,d,p\n0,a,D1,0.5\n1,b,D2,{value}\n")
        with pytest.raises(ValueError, match=f"non-finite probability '{value}' on line 3"):
            read_joint(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("x,c,d,p\n0,a,D1,0.5\n1,b,D2,0.25\n0,a,D1,0.25\n")
        with pytest.raises(ValueError, match=r"duplicate cell \(x=0, c='a', d='D1'\)"):
            read_joint(path)

    def test_round_trip_quoted_labels(self, tmp_path):
        space = OutcomeSpace(2, ("e,1", 'p"2', "x\r", "q"), ("D1", "D\n2", "\r\r", "a\rb"))
        joint = JointDistribution(space, np.full(space.shape, 1.0 / 32))
        path = tmp_path / "joint.csv"
        write_joint(joint, path)
        back = read_joint(path)
        assert back.space == space
        assert np.array_equal(back.p, joint.p)

    @pytest.mark.parametrize(
        "x, value",
        [("1_0", None), ("+1", None), (" 1", None), ("1 ", None), ("007", 7), ("-0", 0),
         ("-1", None), ("99999999999999999999", None)],
    )
    def test_bin_spellings_read_as_in_event_logs(self, tmp_path, x, value):
        events, joint = tmp_path / "events.csv", tmp_path / "joint.csv"
        events.write_text(f"trial,x,c,d\n0,{x},a,D1\n1,1,b,D2\n")
        joint.write_text(f"x,c,d,p\n{x},a,D1,0.5\n1,b,D2,0.5\n")
        if value is None:
            with pytest.raises(ValueError, match="bin .* in event row 1 of"):
                read_event_log(events)
            with pytest.raises(ValueError, match="bin .* on line 2 of"):
                read_joint(joint)
        else:
            assert read_event_log(events).x[0] == value
            assert read_joint(joint).p[value, 0, 0] == 0.5

    def test_unencodable_label_leaves_no_file(self, tmp_path):
        space = OutcomeSpace(2, ("a", "\ud800"), ("D1", "D2"))
        joint = JointDistribution(space, np.full(space.shape, 0.125))
        path = tmp_path / "joint.csv"
        with pytest.raises(UnicodeEncodeError):
            write_joint(joint, path)
        assert not path.exists()


class TestDistributionFiles:
    def test_distribution_format(self, tmp_path):
        path = tmp_path / "dist.csv"
        write_column(np.array([0.5, 0.25, 0.0, 0.25]), "p", path)
        assert path.read_text() == "x,p\n0,0.5\n1,0.25\n2,0.0\n3,0.25\n"

    def test_histogram_format(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_column(np.array([10, 0, 32]), "count", path)
        assert path.read_text() == "x,count\n0,10\n1,0\n2,32\n"


class TestAuditReportFiles:
    def test_report_json_round_trips_floats(self, tmp_path):
        report = audit(small_joint())
        path = tmp_path / "report.json"
        write_audit_report(report, path, config={"note": "test"})
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["config"] == {"note": "test"}
        assert doc["lossless"]["loss_mass"] == report.lossless.statistic
        assert doc["violations"] == ["lossless"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_json_rejected_before_writing(self, tmp_path, value):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            write_json({"config": {"phase0": value}}, path)
        assert not path.exists()

    def test_dict_mirrors_report(self):
        report = audit(small_joint())
        doc = audit_report_dict(report)
        assert doc["independence"]["holds"] is True
        assert doc["no_go_consistent"] is True


#: Each writer, given a table and a log sampled from it.
WRITERS = {
    "json": lambda joint, log, path: write_json({"a": [1, 2.5], "b": "c"}, path),
    "event_log": lambda joint, log, path: write_event_log(log, path),
    "joint": lambda joint, log, path: write_joint(joint, path),
    "column": lambda joint, log, path: write_column(joint.p.sum(axis=(1, 2)), "p", path),
    "audit_report": lambda joint, log, path: write_audit_report(audit(joint), path, {"n": 1}),
}

UNENCODABLE = OutcomeSpace(2, ("a", "\ud800"), ("D1", "D2"))


class TestWritersCreateANewFile:
    """Every writer removes what is at its path and creates a new file there."""

    @pytest.fixture(params=list(WRITERS))
    def write(self, request):
        joint = small_joint()
        return partial(WRITERS[request.param], joint, sample_events(joint, 500, 1))

    @staticmethod
    def fresh_bytes(write, tmp_path):
        write(tmp_path / "fresh")
        return (tmp_path / "fresh").read_bytes()

    def test_a_longer_file_is_left_with_exactly_the_new_bytes(self, tmp_path, write):
        expected = self.fresh_bytes(write, tmp_path)
        path = tmp_path / "out"
        path.write_bytes(expected + b"left over\n" * 1000)
        write(path)
        assert path.read_bytes() == expected

    def test_a_symlink_is_replaced_and_its_target_kept(self, tmp_path, write):
        expected = self.fresh_bytes(write, tmp_path)
        target, path = tmp_path / "target", tmp_path / "out"
        target.write_bytes(b"kept\n")
        path.symlink_to(target)
        write(path)
        assert not path.is_symlink()
        assert path.read_bytes() == expected
        assert target.read_bytes() == b"kept\n"

    def test_a_hard_link_is_replaced_and_its_other_name_kept(self, tmp_path, write):
        other, path = tmp_path / "other", tmp_path / "out"
        other.write_bytes(b"kept\n")
        os.link(other, path)
        write(path)
        assert other.read_bytes() == b"kept\n"
        assert os.stat(path).st_nlink == 1

    def test_the_new_file_has_default_permissions(self, tmp_path, write):
        write(tmp_path / "fresh")
        path = tmp_path / "out"
        path.write_bytes(b"old\n")
        path.chmod(0o400)
        write(path)
        assert path.stat().st_mode == (tmp_path / "fresh").stat().st_mode

    def test_a_directory_at_the_path_is_refused(self, tmp_path, write):
        path = tmp_path / "out"
        path.mkdir()
        with pytest.raises(OSError):
            write(path)
        assert path.is_dir()

    # each fails as it encodes, before the path is touched
    @pytest.mark.parametrize("writer, error", [
        (lambda path: write_event_log(EventLog(UNENCODABLE, np.arange(8)), path),
         UnicodeEncodeError),
        (lambda path: write_joint(JointDistribution(UNENCODABLE, np.full((2, 2, 2), 0.125)), path),
         UnicodeEncodeError),
        (lambda path: write_column([0.5, 0.5], "\ud800", path), UnicodeEncodeError),
        (lambda path: write_json({"x": math.nan}, path), ValueError),
    ], ids=["event_log", "joint", "column", "json"])
    def test_an_encoding_error_leaves_an_existing_file(self, tmp_path, writer, error):
        path = tmp_path / "out"
        path.write_bytes(b"old\n")
        with pytest.raises(error):
            writer(path)
        assert path.read_bytes() == b"old\n"


class TestArchConfigFiles:
    def test_round_trip(self, tmp_path):
        spec = ArchitectureSpec(
            "mach_zehnder", FringeModel(8, 2.0, 0.1, 0.75), q=0.3
        )
        path = tmp_path / "config.json"
        write_json(arch_config_dict(spec), path)
        back = arch_spec_from_dict(read_json(path))
        assert back.kind == spec.kind
        assert back.q == spec.q
        assert back.fringe.n_x == 8
        assert back.fringe.cycles == 2.0
        assert back.fringe.phase0 == 0.1
        assert back.fringe.visibility == 0.75
        assert np.array_equal(
            build_mach_zehnder(back.fringe, 0.3).p, spec.build().p
        )

    @pytest.mark.parametrize(
        "key, value",
        [("n_x", None), ("visibility", [1]), ("fringe_cycles", {}), ("q", [0.5]),
         ("n_x", True), ("n_x", "4"), ("q", "0.5"), ("phase0", False)],
    )
    def test_wrong_type_names_the_key(self, key, value):
        with pytest.raises(ValueError, match=repr(key)):
            arch_spec_from_dict({"kind": "kim", key: value})

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"kim"'])
    def test_read_json_refuses_a_non_object(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="expected a JSON object"):
            read_json(path)

    @pytest.mark.parametrize("text, error", [
        ('{"kind": "kim"} x', "Extra data: line 1 column 17"),
        ('{"kind": "kim",}', "Expecting property name"),
        ("", "Expecting value: line 1 column 1"),
    ], ids=["extra_data", "trailing_comma", "empty"])
    def test_read_json_names_the_file_of_a_syntax_error(self, tmp_path, text, error):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path} is not valid JSON: {error}')}"):
            read_json(path)

    def test_defaults_fill_missing_keys(self):
        spec = arch_spec_from_dict({"kind": "kim"})
        assert spec.fringe.n_x == 64
        assert spec.fringe.cycles == 4.0
        assert spec.q is None

    def test_non_flat_envelope_not_serializable(self):
        m = FringeModel(4, 1.0, envelope=[0.4, 0.3, 0.2, 0.1])
        with pytest.raises(InvalidArgument):
            arch_config_dict(ArchitectureSpec("kim", m))

    def test_config_from_numpy_scalars_writes(self, tmp_path):
        # a float32 q was kept as given, and json could not serialize it
        model = FringeModel(np.int64(8), np.float32(2.0), np.float64(0.1), np.float32(0.75))
        spec = ArchitectureSpec("mach_zehnder", model, q=np.float32(0.5))
        path = tmp_path / "config.json"
        write_json(arch_config_dict(spec), path)
        plain = ArchitectureSpec("mach_zehnder", FringeModel(8, 2.0, 0.1, 0.75), q=0.5)
        assert read_json(path) == arch_config_dict(plain)
        assert arch_spec_from_dict(read_json(path)) == plain == spec

    def test_config_dict_keys(self):
        doc = arch_config_dict(ArchitectureSpec("polarization", FringeModel(4, 1.0), q=0.5))
        assert doc == {
            "schema_version": SCHEMA_VERSION,
            "kind": "polarization",
            "n_x": 4,
            "fringe_cycles": 1.0,
            "phase0": 0.0,
            "visibility": 1.0,
            "q": 0.5,
        }


class TestProblemFiles:
    def test_round_trip_with_targets(self, tmp_path):
        prob = LossFeasibilityProblem(
            q=0.5, n_x=4, p=0.3,
            erase_conditional=[0.5, 0.0, 0.5, 0.0],
            preserve_conditional=[0.25, 0.25, 0.25, 0.25],
        )
        path = tmp_path / "problem.json"
        doc = problem_dict(prob)
        path.write_text(json.dumps(doc))
        back = problem_from_dict(read_json(path))
        assert back.q == prob.q and back.p == prob.p and back.n_x == prob.n_x
        assert np.array_equal(back.resolved_erase(), prob.resolved_erase())

    def test_defaults_omitted(self):
        doc = problem_dict(LossFeasibilityProblem(q=0.5, n_x=4, p=0.25))
        assert "erase_conditional" not in doc
        assert "preserve_conditional" not in doc

    def test_missing_required_keys(self):
        with pytest.raises(ValueError):
            problem_from_dict({"q": 0.5, "p": 0.25})

    @pytest.mark.parametrize(
        "key, value",
        [("n_x", None), ("q", [0.5]), ("p", {}), ("erase_conditional", {"0": 1.0}),
         ("n_x", "4"), ("q", "0.5"), ("p", True), ("erase_conditional", ["0.5"]),
         ("preserve_conditional", [True]), ("erase_conditional", [[0.5]])],
    )
    def test_wrong_type_names_the_key(self, key, value):
        doc = dict({"q": 0.5, "p": 0.3, "n_x": 4}, **{key: value})
        with pytest.raises(ValueError, match=repr(key)):
            problem_from_dict(doc)

    def test_result_dict_embeds_witness(self):
        prob = LossFeasibilityProblem(q=0.5, n_x=4, p=0.25)
        result = construct_witness(prob)
        doc = feasibility_result_dict(result, problem=prob)
        assert doc["feasible"] is True
        assert doc["witness"]["n_x"] == 4
        table = np.array(doc["witness"]["p"])
        assert np.array_equal(table, result.witness.p)
        assert doc["problem"]["q"] == 0.5


class TestMaskFiles:
    def test_plain_text_row(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("0110\n")
        mask = read_mask(path)
        assert mask.shape == (4,)
        assert mask.tolist() == [0, 1, 1, 0]

    def test_spaced_text_row(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("0 1 1 0\n")
        assert read_mask(path).tolist() == [0, 1, 1, 0]

    def test_pbm_row_major(self, tmp_path):
        path = tmp_path / "mask.pbm"
        path.write_text("P1\n# a comment\n3 2\n0 1 0\n1 1 1\n")
        assert read_mask(path).tolist() == [0, 1, 0, 1, 1, 1]

    @pytest.mark.parametrize("raster", ["010\n111\n", "010111", "0 1\n0111"])
    def test_pbm_pixels_need_no_separator(self, tmp_path, raster):
        path = tmp_path / "mask.pbm"
        path.write_text("P1\n3 2\n" + raster)
        assert read_mask(path).tolist() == [0, 1, 0, 1, 1, 1]

    def test_pbm_size_mismatch(self, tmp_path):
        path = tmp_path / "mask.pbm"
        path.write_text("P1\n3 2\n0 1 0 1\n")
        with pytest.raises(ValueError):
            read_mask(path)

    def test_rejects_non_binary_text(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("0120\n")
        with pytest.raises(ValueError):
            read_mask(path)

    @pytest.mark.parametrize("dims", ["-1 -2", "0 3", "3 0"])
    def test_pbm_rejects_non_positive_dimensions(self, tmp_path, dims):
        # -1 x -2 has as many pixels as 1 x 2, so the pixel count alone misses it
        path = tmp_path / "mask.pbm"
        path.write_text(f"P1\n{dims}\n1 0\n")
        with pytest.raises(ValueError, match=f"{path}.*at least 1"):
            read_mask(path)

    @pytest.mark.parametrize(
        "body, token",
        [
            ("x 2\n1 0\n", "width 'x'"),
            ("2 2.0\n1 0\n1 0\n", "height '2.0'"),
            ("2 1\n1 z\n", "pixel 'z'"),
            # int() takes each of these: only bare ASCII digits are integers
            ("1_0 1\n1 0 1 0 1 0 1 0 1 0\n", "width '1_0'"),
            ("+2 1\n1 0\n", "width '+2'"),
            ("\u0662 1\n1 0\n", "width '\u0662'"),
            ("2 1\n\u0661\u0660\n", "pixel '\u0661'"),
            # past the digit count int() converts
            pytest.param("9" * 5000 + " 1\n1\n", "width '999", id="width-of-5000-digits"),
        ],
    )
    def test_pbm_names_a_non_integer_token(self, tmp_path, body, token):
        path = tmp_path / "mask.pbm"
        path.write_text("P1\n" + body, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_mask(path)
        assert str(path) in str(info.value) and token in str(info.value)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("P10 2\n1 0\n", "malformed PBM file"),
            ("P1\n3\n", "is missing dimensions"),
            ("P1\n2 1\n1 2\n", "has non-binary pixels"),
            ("P1\n2 1\n1 \udcff\n", "line 3 of .* is not UTF-8"),
        ],
        ids=["magic-P10", "no-height", "pixel-2", "non-utf8"],
    )
    def test_malformed_pbm_names_the_path(self, tmp_path, body, message):
        path = tmp_path / "mask.pbm"
        path.write_bytes(body.encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError, match=message) as info:
            read_mask(path)
        assert str(path) in str(info.value)
        assert not isinstance(info.value, InvalidArgument)


class TestEmpiricalRoundTrip:
    def test_estimate_written_and_audited(self, tmp_path):
        est = estimate_from_events(sample_events(small_joint(), 2000, 3))
        path = tmp_path / "joint.csv"
        write_joint(est, path)
        back = read_joint(path)
        # the CSV format carries no sample count, so the read-back table
        # audits at the analytic tolerance unless one is supplied
        assert back.n_samples is None
        report = audit(back, tol=0.1)
        assert report.violations == ("lossless",)
