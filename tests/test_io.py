import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcqe.io

from dcqe import (
    LOSS,
    ArchitectureSpec,
    EventLog,
    FringeModel,
    InvalidArgument,
    JointDistribution,
    LossFeasibilityProblem,
    OutcomeSpace,
    audit,
    build_mach_zehnder,
    build_polarization,
    construct_witness,
    estimate_from_events,
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
    read_arch_config,
    read_event_log,
    read_joint,
    read_mask,
    read_problem,
    write_arch_config,
    write_audit_report,
    write_distribution,
    write_event_log,
    write_histogram,
    write_joint,
    write_json,
)

from conftest import FOUR_BIN_PHASE0, no_memory_for_big_tables
from oracles import reference_read_events


def small_joint():
    return build_polarization(FringeModel(4, 1.0, FOUR_BIN_PHASE0), 0.5)


def reference_outcome(path):
    """What the row-by-row reader makes of a file: a ``(space, x, labels)``
    triple for a log, or the type of error that reading it raises."""
    try:
        xs, labels = reference_read_events(path)
    except ValueError:
        return ValueError
    if not xs:
        return ValueError
    try:
        space = OutcomeSpace(
            max(max(xs) + 1, 2),
            tuple(sorted({c for c, _ in labels})),
            tuple(sorted({d for _, d in labels})),
        )
    except InvalidArgument:
        return InvalidArgument
    if not all(-(2**63) <= x < 2**63 for x in xs):
        return ValueError
    if min(xs) < 0:
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


class TestEventLogFiles:
    def test_round_trip(self, tmp_path):
        log = sample_events(small_joint(), 500, 9)
        path = tmp_path / "events.csv"
        write_event_log(log, path)
        back = read_event_log(path, space=log.space)
        assert np.array_equal(back.x, log.x)
        assert np.array_equal(back.c_idx, log.c_idx)
        assert np.array_equal(back.d_idx, log.d_idx)

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
        path = tmp_path / "events.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_event_log(path)

    @pytest.mark.parametrize("x", [-1, -(2**62), 2**62])
    def test_rejects_out_of_range_bin(self, tmp_path, x):
        path = tmp_path / "events.csv"
        path.write_text(f"trial,x,c,d\n0,{x},a,D1\n1,1,b,D2\n")
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        with pytest.raises(InvalidArgument):
            read_event_log(path, space=space)
        if x < 0:
            with pytest.raises(InvalidArgument):
                read_event_log(path)

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
        back = read_event_log(path, space=space)
        assert np.array_equal(back.x, log.x)
        assert np.array_equal(back.c_idx, log.c_idx)
        assert np.array_equal(back.d_idx, log.d_idx)
        inferred = read_event_log(path)
        assert inferred.space.c_values == ("e,1", 'p"2', "x\r")
        assert len(inferred) == len(log)

    def test_write_is_deterministic(self, tmp_path):
        log = sample_events(small_joint(), 300, 4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_event_log(log, p1)
        write_event_log(log, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("body", ["trial,x,c,d\n", "trial,x,c,d\n\n\n", "trial,x,c,d"])
    def test_no_events_with_a_space(self, tmp_path, body):
        path = tmp_path / "events.csv"
        path.write_text(body)
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        assert len(read_event_log(path, space=space)) == 0

    def test_unallocatable_table_names_its_row(self, tmp_path, monkeypatch):
        path = tmp_path / "events.csv"
        path.write_text("trial,x,c,d\n0,1,a,D1\n1,3000000000,b,D2\n")
        no_memory_for_big_tables(monkeypatch)
        with pytest.raises(ValueError, match="bin 3000000000 in event row 2 .* too large"):
            read_event_log(path)

    def test_unshapeable_table_names_its_row(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("trial,x,c,d\n0,1,a,D1\n1,9223372036854775807,b,D2\n")
        with pytest.raises(ValueError, match="bin 9223372036854775807 in event row 2 .* too large"):
            read_event_log(path)


LABEL_TEXT = st.text(st.sampled_from(["a", "Z", " ", ",", '"', "\n", "\r", "é", "日"]), max_size=5)


@st.composite
def labelled_logs(draw):
    choice_text = LABEL_TEXT.filter(lambda s: s != LOSS)
    c_values = draw(st.lists(choice_text, min_size=2, max_size=3, unique=True))
    d_values = draw(st.lists(LABEL_TEXT, min_size=1, max_size=3, unique=True))
    space = OutcomeSpace(draw(st.integers(2, 5)), tuple(c_values), tuple(d_values))
    n_cells = math.prod(space.shape)
    cells = draw(st.lists(st.integers(0, n_cells - 1), min_size=1, max_size=30))
    return EventLog(space, np.array(cells))


class TestEventReaderMatchesReference:
    """The block reader against the row-by-row ``csv.reader`` loop."""

    @settings(max_examples=200, deadline=None)
    @given(log=labelled_logs())
    def test_written_logs(self, tmp_path_factory, log):
        path = tmp_path_factory.mktemp("logs") / "events.csv"
        write_event_log(log, path)
        assert_reads_like_reference(path)
        assert np.array_equal(read_event_log(path, space=log.space).cells, log.cells)

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

    def test_hash_collisions_fall_back_to_exact_lookup(self, tmp_path, monkeypatch):
        # with a zero multiplier a tail's key is its last word, so these collide;
        # one record per block makes the second one find the first one's key
        monkeypatch.setattr(dcqe.io, "_HASH_MULTIPLIER", np.uint64(0))
        monkeypatch.setattr(dcqe.io, "_BLOCK_BYTES", 16)
        path = tmp_path / "events.csv"
        path.write_bytes(b"trial,x,c,d\n0,1,erase---,tail-end\n1,0,keep----,tail-end\n")
        log = read_event_log(path)
        assert log.space.c_values == ("erase---", "keep----")
        assert log.c_idx.tolist() == [0, 1]
        assert_reads_like_reference(path)


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
        path.write_text("x,c,d,p\n0,a,D1,not_a_number\n")
        with pytest.raises(ValueError):
            read_joint(path)

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


class TestDistributionFiles:
    def test_distribution_format(self, tmp_path):
        path = tmp_path / "dist.csv"
        write_distribution(np.array([0.5, 0.25, 0.0, 0.25]), path)
        assert path.read_text() == "x,p\n0,0.5\n1,0.25\n2,0.0\n3,0.25\n"

    def test_histogram_format(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_histogram(np.array([10, 0, 32]), path)
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


class TestArchConfigFiles:
    def test_round_trip(self, tmp_path):
        spec = ArchitectureSpec(
            "mach_zehnder", FringeModel(8, 2.0, 0.1, 0.75), q=0.3
        )
        path = tmp_path / "config.json"
        write_arch_config(spec, path)
        back = read_arch_config(path)
        assert back.kind == spec.kind
        assert back.q == spec.q
        assert back.fringe.n_x == 8
        assert back.fringe.cycles == 2.0
        assert back.fringe.phase0 == 0.1
        assert back.fringe.visibility == 0.75
        assert np.array_equal(
            build_mach_zehnder(back.fringe, 0.3).p, spec.build().p
        )

    def test_defaults_fill_missing_keys(self):
        spec = arch_spec_from_dict({"kind": "kim"})
        assert spec.fringe.n_x == 64
        assert spec.fringe.cycles == 4.0
        assert spec.q is None

    def test_non_flat_envelope_not_serializable(self):
        m = FringeModel(4, 1.0, envelope=[0.4, 0.3, 0.2, 0.1])
        with pytest.raises(InvalidArgument):
            arch_config_dict(ArchitectureSpec("kim", m))

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
        back = read_problem(path)
        assert back.q == prob.q and back.p == prob.p and back.n_x == prob.n_x
        assert np.array_equal(back.resolved_erase(), prob.resolved_erase())

    def test_defaults_omitted(self):
        doc = problem_dict(LossFeasibilityProblem(q=0.5, n_x=4, p=0.25))
        assert "erase_conditional" not in doc
        assert "preserve_conditional" not in doc

    def test_missing_required_keys(self):
        with pytest.raises(ValueError):
            problem_from_dict({"q": 0.5, "p": 0.25})

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
        assert mask.inside_bins == (1, 2)

    def test_spaced_text_row(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("0 1 1 0\n")
        assert read_mask(path).inside_bins == (1, 2)

    def test_pbm_row_major(self, tmp_path):
        path = tmp_path / "mask.pbm"
        path.write_text("P1\n# a comment\n3 2\n0 1 0\n1 1 1\n")
        mask = read_mask(path)
        assert mask.n_x == 6
        assert mask.inside_bins == (1, 3, 4, 5)

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
