import hashlib
import json

import numpy as np
import pytest

from dcqe import build_kim, build_mach_zehnder, default_fringe_model
from dcqe.cli import main
from dcqe.io import read_joint

from conftest import no_memory_for_big_tables


# sha256 of feasible_result.json without "config", rewritten as write_json does
FEASIBLE_Q05_P03_NX8_SHA256 = (
    "fc564956b87e84eee8259a224dff6fbe139083d8c3ff40ca3ef7f8cee981a09f"
)


def run(args, capsys=None):
    code = main(args)
    return code


class TestBounds:
    def test_prints_interval(self, capsys):
        assert main(["bounds", "--q", "0.5"]) == 0
        assert capsys.readouterr().out == "0.25 0.5\n"

    def test_domain_error_exit_1(self, capsys):
        assert main(["bounds", "--q", "1.5"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidChoiceProbability"


class TestSimulate:
    def test_writes_joint_and_conditionals(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--arch", "kim", "--out-dir", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "simulate_joint.csv" in names
        assert "simulate_manifest.json" in names
        assert {"simulate_conditional_D1.csv", "simulate_conditional_D4.csv"} <= names
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["command"] == "simulate"
        assert "simulate_joint.csv" in manifest["artifacts"]

    def test_round_trip_matches_memory(self, tmp_path):
        assert main(["simulate", "--arch", "kim", "--out-dir", str(tmp_path)]) == 0
        back = read_joint(tmp_path / "simulate_joint.csv")
        expect = build_kim(default_fringe_model())
        assert np.max(np.abs(back.p - expect.p)) <= 1e-12

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--arch", "mach_zehnder", "--q", "0.4", "--n-x", "16"]
        assert main(argv + ["--out-dir", str(a)]) == 0
        assert main(argv + ["--out-dir", str(b)]) == 0
        for name in ("simulate_joint.csv", "simulate_conditional_D1.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_coarse_only_applies_to_kim(self, tmp_path, capsys):
        code = main(
            ["simulate", "--arch", "mach_zehnder", "--q", "0.5", "--coarse",
             "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"

    # the layout is refused before its table is built, so a table too large to
    # allocate (which exited 2 with MemoryError) is refused the same way
    @pytest.mark.parametrize("n_x", ["8", str(2**62)])
    def test_coarse_is_refused_before_the_table_is_built(self, tmp_path, capsys, n_x):
        argv = ["simulate", "--arch", "polarization", "--coarse", "--n-x", n_x]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InvalidArgument",
                       "message": "--coarse applies to the kim architecture only"}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("phase0", ["nan", "inf"])
    def test_non_finite_phase0_exit_1(self, tmp_path, capsys, phase0):
        argv = ["simulate", "--arch", "kim", "--phase0", phase0, "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("arch", [
        ["kim"], ["mach_zehnder", "--q", "0.5"], ["polarization", "--q", "0.5"], ["passive_choice"],
    ])
    def test_overflowed_phases_exit_1(self, tmp_path, capsys, arch):
        argv = ["simulate", "--arch", *arch, "--cycles", "1e308", "--n-x", "8"]
        with np.errstate(invalid="ignore"):
            assert main(argv + ["--out-dir", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] in ("InvalidArgument", "NotNormalized")
        assert list(tmp_path.iterdir()) == []

    def test_missing_architecture_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "--out-dir", str(tmp_path)]) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "arch.json"
        config.write_text(
            json.dumps({"kind": "mach_zehnder", "n_x": 8, "fringe_cycles": 1.0, "q": 0.3})
        )
        out = tmp_path / "out"
        assert main(
            ["simulate", "--config", str(config), "--q", "0.6", "--out-dir", str(out)]
        ) == 0
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["config"]["architecture"]["q"] == 0.6
        assert manifest["config"]["architecture"]["n_x"] == 8
        back = read_joint(out / "simulate_joint.csv")
        expect = build_mach_zehnder(
            default_fringe_model(n_x=8, cycles=1.0), 0.6
        )
        assert np.max(np.abs(back.p - expect.p)) <= 1e-12


    def test_fractional_n_x_in_config_exit_2(self, tmp_path, capsys):
        config = tmp_path / "arch.json"
        config.write_text(json.dumps({"kind": "kim", "n_x": 64.9}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 2
        assert "'n_x' must be an integer" in json.loads(capsys.readouterr().err)["message"]
        assert not (out / "simulate_manifest.json").exists()

    @pytest.mark.parametrize("doc, expected", [
        ([1, 2], "expected a JSON object"),
        ({"kind": "kim", "n_x": None}, "'n_x' must be an integer"),
        ({"kind": "kim", "visibility": [1]}, "'visibility' must be a number"),
        ({"kind": "kim", "n_x": True}, "'n_x' must be an integer"),
        ({"kind": "kim", "fringe_cycle": 2}, "unknown key 'fringe_cycle' in architecture config"),
        ({"kind": "mach_zehnder", "q": 10**400}, "'q' is too large for a float"),
        ({"kind": "kim", "n_x": 10**400}, "'n_x' does not fit a 64-bit integer"),
        (b'{"kind": "kim",\n "n_x": 8\xff}\n', "line 2 of {path} is not UTF-8"),
        # these were read: the last n_x won, any version ran, and 1e400 and NaN exited 1
        (b'{"kind": "kim", "n_x": 8, "n_x": 16}', "duplicate key 'n_x' in {path}"),
        ({"kind": "kim", "schema_version": 99}, "architecture config has schema_version 99"),
        (b'{"kind": "mach_zehnder", "q": 1e400}', "1e400 in {path} is not a finite JSON number"),
        (b'{"kind": "kim", "visibility": NaN}', "NaN in {path} is not a finite JSON number"),
        # this named no file
        (b'{"kind": "kim"} x',
         "{path} is not valid JSON: Extra data: line 1 column 17 (char 16)"),
    ], ids=["list", "null_n_x", "list_visibility", "bool_n_x", "unknown_key", "huge_q",
            "huge_n_x", "non_utf8", "duplicate_key", "schema_version_99", "float_literal_inf",
            "nan_literal", "extra_data"])
    def test_wrong_typed_config_exit_2(self, tmp_path, capsys, doc, expected):
        # a bytes doc is written as it is; any other is written as JSON
        config = tmp_path / "arch.json"
        config.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and expected.format(path=config) in err["message"]
        assert not (out / "simulate_manifest.json").exists()

    def test_unallocatable_n_x_exit_2(self, tmp_path, capsys, monkeypatch):
        # the builders' first allocation is refused; nothing of 2**37 bins is allocated
        no_memory_for_big_tables(monkeypatch)
        argv = ["simulate", "--arch", "kim", "--n-x", str(2**37), "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MemoryError"
        assert f"n_x = {2**37} bins are too many to allocate" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_unshapeable_n_x_exit_2(self, tmp_path, capsys):
        # numpy refuses 2**62 float bins before allocating anything
        argv = ["simulate", "--arch", "kim", "--n-x", str(2**62), "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert f"n_x = {2**62} bins are too many to allocate" in err["message"]
        assert list(tmp_path.iterdir()) == []


class TestSampleAndAudit:
    @pytest.mark.parametrize("seed", ["-1", "-9223372036854775808"])
    def test_negative_seed_exit_1(self, tmp_path, capsys, seed):
        argv = ["sample", "--arch", "kim", "--n", "10", "--seed", seed, "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidArgument"
        assert f"seed must be a non-negative integer, got {seed}" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_unshapeable_trial_count_exit_2(self, tmp_path, capsys):
        # numpy refuses 2**62 two-byte cells before allocating anything
        argv = ["sample", "--arch", "kim", "--n", str(2**62), "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MemoryError"
        assert f"n = {2**62} trials are too many to allocate" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_sample_then_audit_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(
            ["sample", "--arch", "polarization", "--q", "0.5", "--n", "50000",
             "--seed", "7", "--n-x", "8", "--cycles", "1.0", "--out-dir", str(out)]
        ) == 0
        events = out / "sample_events.csv"
        assert events.exists()
        assert main(["audit", "--in", str(events), "--out-dir", str(out)]) == 0
        report = json.loads((out / "audit_report.json").read_text())
        assert report["violations"] == ["lossless"]
        assert abs(report["lossless"]["loss_mass"] - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / 50000)
        assert report["n_samples"] == 50000

    def test_sample_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["sample", "--arch", "kim", "--n", "2000", "--seed", "3", "--n-x", "8"]
        assert main(argv + ["--out-dir", str(a)]) == 0
        assert main(argv + ["--out-dir", str(b)]) == 0
        assert (a / "sample_events.csv").read_bytes() == (b / "sample_events.csv").read_bytes()

    def test_audit_joint_csv(self, tmp_path):
        out = tmp_path / "run"
        assert main(
            ["simulate", "--arch", "kim", "--coarse", "--n-x", "8", "--out-dir", str(out)]
        ) == 0
        assert main(
            ["audit", "--in", str(out / "simulate_joint.csv"), "--out-dir", str(out)]
        ) == 0
        report = json.loads((out / "audit_report.json").read_text())
        assert report["violations"] == ["distinct_conditionals"]

    def test_audit_nan_joint_exit_2(self, tmp_path, capsys):
        path = tmp_path / "joint.csv"
        path.write_text("x,c,d,p\n0,a,D1,0.5\n1,b,D2,nan\n")
        assert main(["audit", "--in", str(path), "--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "non-finite probability 'nan' on line 3" in err["message"]

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_audit_bad_tolerance_exit_1(self, tmp_path, capsys, tol):
        joint = tmp_path / "joint.csv"
        joint.write_text("x,c,d,p\n0,a,D1,0.5\n1,b,D2,0.5\n")
        out = tmp_path / "out"
        assert main(["audit", "--in", str(joint), f"--tol={tol}", "--out-dir", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidArgument"
        assert "tolerance must be finite and positive" in err["message"]
        assert not (out / "audit_report.json").exists()

    def test_audit_alpha_runs_g_tests(self, tmp_path):
        out = tmp_path / "run"
        argv = ["sample", "--arch", "polarization", "--n", "20000", "--seed", "7"]
        assert main(argv + ["--out-dir", str(out)]) == 0
        events = out / "sample_events.csv"
        assert main(["audit", "--in", str(events), "--alpha", "1e-6", "--out-dir", str(out)]) == 0
        report = json.loads((out / "audit_report.json").read_text())
        assert report["violations"] == ["lossless"]
        assert report["alpha"] == 1e-6 and report["config"]["alpha"] == 1e-6
        independence = report["independence"]
        assert independence["tolerance"] == 1e-6 and independence["p_value"] >= 1e-6
        assert {"g_statistic", "df"} <= set(independence)

    @pytest.mark.parametrize(
        "flags, message",
        [(["--alpha", "0"], "alpha must be in (0, 1)"),
         (["--alpha", "nan"], "alpha must be in (0, 1)"),
         (["--alpha", "1e-6", "--tol", "0.05"], "not both")],
    )
    def test_audit_bad_alpha_exit_1(self, tmp_path, capsys, flags, message):
        assert main(["sample", "--arch", "kim", "--n", "100", "--out-dir", str(tmp_path)]) == 0
        out = tmp_path / "out"
        argv = ["audit", "--in", str(tmp_path / "sample_events.csv"), "--out-dir", str(out)]
        assert main(argv + flags) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidArgument" and message in err["message"]
        assert not (out / "audit_report.json").exists()

    def test_audit_alpha_on_an_exact_table_exit_1(self, tmp_path, capsys):
        joint = tmp_path / "joint.csv"
        joint.write_text("x,c,d,p\n0,a,D1,0.5\n1,b,D2,0.5\n")
        out = tmp_path / "out"
        assert main(["audit", "--in", str(joint), "--alpha", "1e-6", "--out-dir", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidArgument" and "not an exact one" in err["message"]
        assert not (out / "audit_report.json").exists()

    def test_audit_duplicate_joint_cell_exit_2(self, tmp_path, capsys):
        path = tmp_path / "joint.csv"
        path.write_text("x,c,d,p\n0,a,D1,0.5\n1,b,D2,0.5\n0,a,D1,0.5\n")
        assert main(["audit", "--in", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "duplicate cell" in json.loads(capsys.readouterr().err)["message"]

    def test_audit_event_bin_beyond_index_exit_2(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text("trial,x,c,d\n0,1,a,D1\n1,99999999999999999999,b,D2\n")
        assert main(["audit", "--in", str(path), "--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "bin 99999999999999999999 in event row 2" in err["message"]

    @pytest.mark.parametrize(
        "body, where",
        [("trial,x,c,d\n0,1,a,D1\n1,-1,b,D2\n", "in event row 2"),
         ("x,c,d,p\n0,a,D1,0.5\n-1,b,D2,0.5\n", "on line 3")],
        ids=["events", "joint"],
    )
    def test_audit_negative_bin_exit_2(self, tmp_path, capsys, body, where):
        path = tmp_path / "table.csv"
        path.write_text(body)
        assert main(["audit", "--in", str(path), "--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert f"bin -1 {where} of {path} is not a valid index" in err["message"]

    def test_audit_event_unallocatable_table_exit_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "events.csv"
        path.write_text("trial,x,c,d\n0,1,a,D1\n1,3000000000,b,D2\n")
        no_memory_for_big_tables(monkeypatch)
        assert main(["audit", "--in", str(path), "--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "bin 3000000000 in event row 2" in err["message"]
        assert not (tmp_path / "audit_report.json").exists()

    def test_audit_joint_bin_beyond_index_exit_2(self, tmp_path, capsys):
        path = tmp_path / "joint.csv"
        path.write_text("x,c,d,p\n0,a,D1,0.5\n99999999999999999999,b,D2,0.5\n")
        assert main(["audit", "--in", str(path), "--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "bin 99999999999999999999 on line 3" in err["message"]

    def test_audit_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["audit", "--in", str(tmp_path / "nope.csv")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize(
        "body",
        ["trial, x, c, d\n0,1,a,D1\n1,0,b,D2\n", " x , c , d , p\n0,a,D1,0.5\n1,b,D2,0.5\n",
         " x , c , d , p\r0,a,D1,0.5\r1,b,D2,0.5\r"],
        ids=["events", "joint", "joint-bare-cr"],
    )
    def test_audit_spaced_header(self, tmp_path, body):
        path = tmp_path / "spaced.csv"
        path.write_text(body)
        assert main(["audit", "--in", str(path), "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "audit_report.json").read_text())
        assert report["n_samples"] == (2 if body.startswith("trial") else None)

    def test_audit_unknown_header_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("alpha,beta\n1,2\n")
        assert main(["audit", "--in", str(bad), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "body, where",
        [(b"trial,x,c,d\n0,1,a,D1\n1,0,b\xff,D2\n", "event row 2 of {path}"),
         (b"tri\xffal,x,c,d\n0,1,a,D1\n",
          "unrecognized input header 'tri\ufffdal,x,c,d' in {path}"),
         (b"x,c,d,p\n0,a,D1,0.5\n1,b\xff,D2,0.5\n", "line 3 of {path} is not UTF-8")],
        ids=["event-row", "event-header", "joint-row"],
    )
    def test_audit_non_utf8_byte_names_where_exit_2(self, tmp_path, capsys, body, where):
        path = tmp_path / "table.csv"
        path.write_bytes(body)
        assert main(["audit", "--in", str(path), "--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert where.format(path=path) in err["message"]
        assert not (tmp_path / "audit_report.json").exists()

    def test_audit_header_past_csv_field_limit_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x" * 200_000 + "\n0,a,D1,1.0\n")
        assert main(["audit", "--in", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert "unrecognized input header" in json.loads(capsys.readouterr().err)["message"]

    def test_audit_joint_field_past_csv_field_limit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "joint.csv"
        path.write_text("x,c,d,p\n0,a,D1,0.5\n1," + "b" * 140_000 + ",D2,0.5\n")
        assert main(["audit", "--in", str(path), "--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and f"on line 3 of {path}" in err["message"]
        assert not (tmp_path / "audit_report.json").exists()


class TestFeasibilityCommands:
    def test_witness_writes_result(self, tmp_path):
        assert main(
            ["witness", "--q", "0.5", "--p", "0.25", "--out-dir", str(tmp_path)]
        ) == 0
        doc = json.loads((tmp_path / "witness_result.json").read_text())
        assert doc["feasible"] is True
        assert doc["problem"]["q"] == 0.5
        table = np.array(doc["witness"]["p"])
        assert table.shape == (4, 2, 3)

    def test_witness_infeasible_exit_1(self, tmp_path, capsys):
        assert main(
            ["witness", "--q", "0.5", "--p", "0.1", "--out-dir", str(tmp_path)]
        ) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InfeasibleLossRate"

    def test_feasible_reports_infeasible_with_exit_0(self, tmp_path):
        assert main(
            ["feasible", "--q", "0.5", "--p", "0.1", "--out-dir", str(tmp_path)]
        ) == 0
        doc = json.loads((tmp_path / "feasible_result.json").read_text())
        assert doc["feasible"] is False
        assert doc["witness"] is None

    def test_feasible_from_problem_file(self, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"q": 0.5, "p": 0.3, "n_x": 4}))
        assert main(
            ["feasible", "--problem", str(problem), "--out-dir", str(tmp_path)]
        ) == 0
        doc = json.loads((tmp_path / "feasible_result.json").read_text())
        assert doc["feasible"] is True

    @pytest.mark.parametrize("n_x", [4.7, float("inf")])
    def test_fractional_n_x_in_problem_exit_2(self, tmp_path, capsys, n_x):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"q": 0.5, "p": 0.3, "n_x": n_x}))
        assert main(["feasible", "--problem", str(problem), "--out-dir", str(tmp_path)]) == 2
        # json.dumps writes inf as Infinity, which is not JSON and is refused as it is parsed
        expected = "'n_x' must be an integer" if n_x == 4.7 else "Infinity in"
        assert expected in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "feasible_result.json").exists()

    @pytest.mark.parametrize("doc, expected", [
        ({"q": 0.5, "p": 0.3, "n_x": None}, "'n_x' must be an integer"),
        ({"q": 0.5, "p": 0.3, "n_x": 4, "erase_conditional": {"0": 1.0}},
         "'erase_conditional' must be a list of numbers"),
        ({"q": "0.5", "p": 0.3, "n_x": "4"}, "'q' must be a number"),
        ({"q": 0.5, "p": 0.3, "n_x": 4, "extra": 1}, "unknown key 'extra' in feasibility problem"),
        ({"q": 0.5, "p": 0.3, "n_x": 4, "erase_conditional": [10**400, 0, 0, 0]},
         "'erase_conditional' holds a number too large for a float"),
        ({"q": 0.5, "p": 0.3, "n_x": 10**400}, "'n_x' does not fit a 64-bit integer"),
        (b'{"q": 0.5, "p": 0.3,\n\n "n_x": 4} \xfe\n', "line 3 of {path} is not UTF-8"),
        # these were read: the last q won, -Infinity and 2e308 exited 1, any version ran
        (b'{"q": 0.5, "p": 0.3, "n_x": 4, "q": 0.7}', "duplicate key 'q' in {path}"),
        (b'{"q": 0.5, "p": -Infinity, "n_x": 4}', "-Infinity in {path} is not a finite JSON"),
        (b'{"q": 0.5, "p": 0.3, "n_x": 4, "erase_conditional": [2e308, 0, 0, 0]}',
         "2e308 in {path} is not a finite JSON number"),
        ({"q": 0.5, "p": 0.3, "n_x": 4, "schema_version": True},
         "feasibility problem has schema_version True"),
        # this named no file
        (b'{"q": 0.5, "p": 0.3\n "n_x": 4}',
         "{path} is not valid JSON: Expecting ',' delimiter: line 2 column 2 (char 21)"),
    ], ids=["null_n_x", "object_erase_conditional", "string_q", "unknown_key",
            "huge_erase_conditional", "huge_n_x", "non_utf8", "duplicate_key",
            "minus_infinity_literal", "float_literal_inf", "bool_schema_version",
            "missing_comma"])
    def test_wrong_typed_problem_exit_2(self, tmp_path, capsys, doc, expected):
        # a bytes doc is written as it is; any other is written as JSON
        problem = tmp_path / "problem.json"
        problem.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        assert main(["feasible", "--problem", str(problem), "--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and expected.format(path=problem) in err["message"]
        assert not (tmp_path / "feasible_result.json").exists()

    def test_integral_float_n_x_in_problem_runs(self, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"q": 0.5, "p": 0.3, "n_x": 4.0}))
        assert main(["feasible", "--problem", str(problem), "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "feasible_manifest.json").read_text())
        assert doc["config"]["problem"]["n_x"] == 4

    def test_problem_flags_override_file(self, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"q": 0.5, "p": 0.3, "n_x": 4}))
        assert main(
            ["feasible", "--problem", str(problem), "--p", "0.1",
             "--out-dir", str(tmp_path)]
        ) == 0
        doc = json.loads((tmp_path / "feasible_result.json").read_text())
        assert doc["feasible"] is False


    def test_feasible_result_is_pinned(self, tmp_path):
        assert main(
            ["feasible", "--q", "0.5", "--p", "0.3", "--n-x", "8",
             "--out-dir", str(tmp_path)]
        ) == 0
        doc = json.loads((tmp_path / "feasible_result.json").read_text())
        del doc["config"]  # echoes out_dir
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == FEASIBLE_Q05_P03_NX8_SHA256


class TestFigure:
    def test_analytic_masses(self, tmp_path):
        mask = tmp_path / "mask.txt"
        mask.write_text("0101\n")
        out = tmp_path / "fig"
        assert main(["figure", "--mask", str(mask), "--out-dir", str(out)]) == 0
        d1 = (out / "figure_D1.csv").read_text().splitlines()
        assert d1 == ["x,p", "0,0.0", "1,0.25", "2,0.0", "3,0.25"]
        d2 = (out / "figure_D2.csv").read_text().splitlines()
        assert d2 == ["x,p", "0,0.25", "1,0.0", "2,0.25", "3,0.0"]

    def test_sampled_counts(self, tmp_path):
        mask = tmp_path / "mask.txt"
        mask.write_text("0011\n")
        out = tmp_path / "fig"
        assert main(
            ["figure", "--mask", str(mask), "--n", "4000", "--seed", "5",
             "--out-dir", str(out)]
        ) == 0
        lines = (out / "figure_D1.csv").read_text().splitlines()
        assert lines[0] == "x,count"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts[0] == 0 and counts[1] == 0
        assert sum(counts) > 0

    def test_pbm_mask(self, tmp_path):
        mask = tmp_path / "mask.pbm"
        mask.write_text("P1\n2 2\n1 0\n0 1\n")
        out = tmp_path / "fig"
        assert main(["figure", "--mask", str(mask), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "figure_manifest.json").read_text())
        assert sorted(doc["artifacts"]) == ["figure_D1.csv", "figure_D2.csv"]

    def test_all_ones_mask_exit_1(self, tmp_path, capsys):
        mask = tmp_path / "mask.txt"
        mask.write_text("1111\n")
        out = tmp_path / "fig"
        assert main(["figure", "--mask", str(mask), "--out-dir", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "InvalidArgument",
            "message": "mask must contain at least one bin and exclude another",
        }
        assert not (out / "figure_manifest.json").exists()

    def test_pbm_negative_dimensions_exit_2(self, tmp_path, capsys):
        mask = tmp_path / "mask.pbm"
        mask.write_text("P1\n-1 -2\n1 0\n")
        out = tmp_path / "fig"
        assert main(["figure", "--mask", str(mask), "--out-dir", str(out)]) == 2
        assert "at least 1" in json.loads(capsys.readouterr().err)["message"]
        assert not (out / "figure_manifest.json").exists()

    @pytest.mark.parametrize("body", ["P1\nx 2\n1 0\n", "P1\n2 1\n1 z\n"])
    def test_pbm_non_integer_token_exit_2(self, tmp_path, capsys, body):
        mask = tmp_path / "mask.pbm"
        mask.write_text(body)
        out = tmp_path / "fig"
        assert main(["figure", "--mask", str(mask), "--out-dir", str(out)]) == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert str(mask) in message and "not an integer" in message
        assert not (out / "figure_manifest.json").exists()


class TestArtifactFiles:
    """Each artifact and manifest is a new file, whatever was at its path."""

    ARGV = ["simulate", "--arch", "mach_zehnder", "--q", "0.4", "--n-x", "8"]
    NAMES = ["simulate_joint.csv", "simulate_conditional_D1.csv",
             "simulate_conditional_D2.csv", "simulate_manifest.json"]

    def written_bytes(self, out):
        assert main(self.ARGV + ["--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(self.NAMES)
        return {name: (out / name).read_bytes() for name in self.NAMES}

    def test_a_rerun_over_longer_files_leaves_exactly_the_new_bytes(self, tmp_path):
        expected = self.written_bytes(tmp_path)
        for name in self.NAMES:
            (tmp_path / name).write_bytes(expected[name] + b"left over\n" * 1000)
        assert self.written_bytes(tmp_path) == expected

    def test_symlinks_are_replaced_and_their_targets_kept(self, tmp_path):
        out = tmp_path / "out"
        expected = self.written_bytes(out)
        for name in self.NAMES:
            (tmp_path / name).write_bytes(b"kept\n")
            (out / name).unlink()
            (out / name).symlink_to(tmp_path / name)
        assert self.written_bytes(out) == expected
        for name in self.NAMES:
            assert not (out / name).is_symlink()
            assert (tmp_path / name).read_bytes() == b"kept\n"

    @pytest.mark.parametrize("name", ["simulate_joint.csv", "simulate_manifest.json"])
    def test_a_directory_at_an_artifact_path_exit_2(self, tmp_path, capsys, name):
        (tmp_path / name).mkdir()
        assert main(self.ARGV + ["--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] in ("IsADirectoryError", "PermissionError")
        assert str(tmp_path / name) in err["message"]
        assert (tmp_path / name).is_dir()


class TestEnvironment:
    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("DCQE_OUT_DIR", str(target))
        assert main(["simulate", "--arch", "kim", "--n-x", "8", "--cycles", "1.0"]) == 0
        assert (target / "simulate_joint.csv").exists()

    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DCQE_OUT_DIR", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        assert main(
            ["simulate", "--arch", "kim", "--n-x", "8", "--cycles", "1.0",
             "--out-dir", str(chosen)]
        ) == 0
        assert (chosen / "simulate_joint.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2


# sha256 of the --help text, at 80 columns, of dcqe and of each subcommand
PINNED_HELP = {
    "dcqe": "23fd61f8a9b2d63dfd10aab0c809318c12205d82820a5d6cd6d9f47aa911a0de",
    "simulate": "45c4c71996936ef9f58de24a864e90f6c5e26a57fb8e3fa13e653f4a7dd4d899",
    "sample": "9868fbbf2b6ccacb369a9b126a86303029bbdcf573071575b31276e760872329",
    "audit": "e8883845cf81b8ddc2625c8b054035f85039a7bfe9ee34af1f2607e3d8cb8251",
    "bounds": "7474e15bc2a6a29c3b8329091bbdefcf4badde7b134130170127f2342369a0ea",
    "witness": "47d14b8e8a6c20d4fd2b46979b2bc333921ad99da3914ed8107702596f18a1f0",
    "feasible": "20c4a3a2eb47f5d3b7fd8e31bc9fdc8978a2f3932560a83c952597ece6e0e365",
    "figure": "b97540f5afd4fd70cb71cadcad7cc0cee2bda7856845dc4c5da3048922711e09",
}


@pytest.mark.parametrize("command", sorted(PINNED_HELP))
def test_help_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"] if command == "dcqe" else [command, "--help"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_HELP[command]


_MZ_ECHO = {"fringe_cycles": 1.0, "kind": "mach_zehnder", "n_x": 8, "phase0": 0.0,
            "q": 0.6, "visibility": 1.0}
_KIM_ECHO = {"fringe_cycles": 4.0, "kind": "kim", "n_x": 64, "phase0": 0.0, "q": None,
             "visibility": 1.0}
_POL_ECHO = {"fringe_cycles": 4.0, "kind": "polarization", "n_x": 64, "phase0": 0.0,
             "q": 0.5, "visibility": 1.0}
_SAMPLE_ARGV = ["sample", "--arch", "polarization", "--n", "100", "--seed", "3",
                "--out-dir", "smp"]

# Whole manifests under relative out dirs: the config echo is part of the CLI's output.
PINNED_MANIFESTS = {
    "simulate_config_override": (
        ["simulate", "--config", "arch.json", "--q", "0.6", "--out-dir", "sim"],
        {"artifacts": ["simulate_conditional_D1.csv", "simulate_conditional_D2.csv",
                       "simulate_joint.csv"],
         "command": "simulate",
         "config": {"architecture": _MZ_ECHO, "coarse": False, "command": "simulate",
                    "out_dir": "sim"},
         "schema_version": 1},
    ),
    "simulate_kim_coarse": (
        ["simulate", "--arch", "kim", "--coarse", "--out-dir", "kc"],
        {"artifacts": ["simulate_conditional_D_erase.csv",
                       "simulate_conditional_D_preserve.csv", "simulate_joint.csv"],
         "command": "simulate",
         "config": {"architecture": _KIM_ECHO, "coarse": True, "command": "simulate",
                    "out_dir": "kc"},
         "schema_version": 1},
    ),
    "sample": (
        _SAMPLE_ARGV,
        {"artifacts": ["sample_events.csv"],
         "command": "sample",
         "config": {"architecture": _POL_ECHO, "coarse": False, "command": "sample",
                    "n": 100, "out_dir": "smp", "seed": 3},
         "schema_version": 1},
    ),
    "audit": (
        ["audit", "--in", "smp/sample_events.csv", "--out-dir", "aud"],
        {"artifacts": ["audit_report.json"],
         "command": "audit",
         "config": {"command": "audit", "input": "smp/sample_events.csv", "out_dir": "aud"},
         "schema_version": 1},
    ),
    "audit_tol": (
        ["audit", "--in", "smp/sample_events.csv", "--tol", "0.05", "--out-dir", "aud"],
        {"artifacts": ["audit_report.json"],
         "command": "audit",
         "config": {"command": "audit", "input": "smp/sample_events.csv", "out_dir": "aud",
                    "tolerance": 0.05},
         "schema_version": 1},
    ),
    "audit_alpha": (
        ["audit", "--in", "smp/sample_events.csv", "--alpha", "1e-6", "--out-dir", "aud"],
        {"artifacts": ["audit_report.json"],
         "command": "audit",
         "config": {"alpha": 1e-6, "command": "audit", "input": "smp/sample_events.csv",
                    "out_dir": "aud"},
         "schema_version": 1},
    ),
    "witness": (
        ["witness", "--q", "0.5", "--p", "0.25", "--out-dir", "wit"],
        {"artifacts": ["witness_result.json"],
         "command": "witness",
         "config": {"command": "witness", "out_dir": "wit",
                    "problem": {"n_x": 4, "p": 0.25, "q": 0.5}},
         "schema_version": 1},
    ),
    "feasible_problem_override": (
        ["feasible", "--problem", "problem.json", "--p", "0.1", "--out-dir", "fea"],
        {"artifacts": ["feasible_result.json"],
         "command": "feasible",
         "config": {"command": "feasible", "out_dir": "fea",
                    "problem": {"n_x": 4, "p": 0.1, "q": 0.5}},
         "schema_version": 1},
    ),
    "figure": (
        ["figure", "--mask", "mask.txt", "--out-dir", "fig"],
        {"artifacts": ["figure_D1.csv", "figure_D2.csv"],
         "command": "figure",
         "config": {"command": "figure", "mask": "mask.txt", "out_dir": "fig"},
         "schema_version": 1},
    ),
    "figure_sampled": (
        ["figure", "--mask", "mask.txt", "--n", "1000", "--seed", "2", "--out-dir", "fig"],
        {"artifacts": ["figure_D1.csv", "figure_D2.csv"],
         "command": "figure",
         "config": {"command": "figure", "mask": "mask.txt", "n": 1000, "out_dir": "fig",
                    "seed": 2},
         "schema_version": 1},
    ),
}


class TestPinnedManifests:
    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "arch.json").write_text(
            json.dumps({"kind": "mach_zehnder", "n_x": 8, "fringe_cycles": 1.0, "q": 0.3})
        )
        (tmp_path / "problem.json").write_text(json.dumps({"q": 0.5, "p": 0.3, "n_x": 4}))
        (tmp_path / "mask.txt").write_text("0101\n")
        assert main(_SAMPLE_ARGV) == 0
        return tmp_path

    @pytest.mark.parametrize("case", sorted(PINNED_MANIFESTS))
    def test_manifest_is_pinned(self, inputs, case):
        argv, expected = PINNED_MANIFESTS[case]
        assert main(argv) == 0
        out = inputs / expected["config"]["out_dir"]
        assert json.loads((out / f"{argv[0]}_manifest.json").read_text()) == expected
        # the out dir holds what the manifest lists, and the manifest
        written = sorted(path.name for path in out.iterdir())
        assert written == sorted(expected["artifacts"] + [f"{argv[0]}_manifest.json"])
        if argv[0] == "audit":
            report = json.loads((out / "audit_report.json").read_text())
            assert report["config"] == expected["config"]

    def test_manifest_under_environment_out_dir(self, inputs, monkeypatch):
        monkeypatch.setenv("DCQE_OUT_DIR", "envout")
        assert main(["simulate", "--arch", "kim", "--n-x", "8", "--cycles", "1.0"]) == 0
        manifest = json.loads((inputs / "envout" / "simulate_manifest.json").read_text())
        assert manifest == {
            "artifacts": ["simulate_conditional_D1.csv", "simulate_conditional_D2.csv",
                          "simulate_conditional_D3.csv", "simulate_conditional_D4.csv",
                          "simulate_joint.csv"],
            "command": "simulate",
            "config": {"architecture": dict(_KIM_ECHO, n_x=8, fringe_cycles=1.0),
                       "coarse": False, "command": "simulate", "out_dir": "envout"},
            "schema_version": 1,
        }


# sha256 of every CSV a run writes, under relative out dirs; the mask is 0011010111001010.
_CONDITIONAL_FRINGE = "dfd24da4228d492b460518535fe02d8adc0bcdcc1ed9c515244973d714cb3e46"
_CONDITIONAL_ENVELOPE = "94d0ea41d5b5b2898be0992c7544e842fa20c66e3b6df9b53de4dc78cdc519bf"
PINNED_CSVS = {
    "kim": (
        ["simulate", "--arch", "kim"],
        {"simulate_conditional_D1.csv": _CONDITIONAL_FRINGE,
         "simulate_conditional_D2.csv":
             "6f37d092ddda0329ce24af7c49ac960a63c2d33899d28be15a7765edb73eef62",
         "simulate_conditional_D3.csv": _CONDITIONAL_ENVELOPE,
         "simulate_conditional_D4.csv": _CONDITIONAL_ENVELOPE,
         "simulate_joint.csv": "3902e6808d6ed5cc2c16b27cdb4971c3283b7aa17fe81caeaff68c0bf6270ca6"},
    ),
    "kim_coarse": (
        ["simulate", "--arch", "kim", "--coarse"],
        {"simulate_conditional_D_erase.csv":
             "232c0ea92c59f8a0f99a3a366a6a7ccd3fc8d9c3d821d383dd749c1fcc6ffa67",
         "simulate_conditional_D_preserve.csv": _CONDITIONAL_ENVELOPE,
         "simulate_joint.csv": "83d56a6ec841dd36c3e6619ddcda7df8a786dc62375d3fdc8ab2f2f8664f1219"},
    ),
    "mach_zehnder": (
        ["simulate", "--arch", "mach_zehnder"],
        {"simulate_conditional_D1.csv":
             "359a93d1ea060a255a91f69febf0bd5c7654cd1b34bff267fdf286e68f3a5df2",
         "simulate_conditional_D2.csv":
             "5719f368b8dfbc99e9a8a0e3b8ab56cbaf62580386e1648cb6b04d9643e09675",
         "simulate_joint.csv": "b60e75739c3367a21ef3c1bd881de97d724dcea1b644451535eb839fd45b011f"},
    ),
    "polarization": (
        ["simulate", "--arch", "polarization"],
        {"simulate_conditional_D_erase.csv": _CONDITIONAL_FRINGE,
         "simulate_conditional_D_preserve.csv": _CONDITIONAL_ENVELOPE,
         "simulate_joint.csv": "b3f169bf680c7129e285f4056aa0cfab0b40b65f08c6b358fdc8f891971e87a7"},
    ),
    "passive_choice": (
        ["simulate", "--arch", "passive_choice"],
        {"simulate_conditional_D1.csv": _CONDITIONAL_FRINGE,
         "simulate_conditional_D2.csv":
             "1d85f520af931f6d9322ab9fd243ba864e9b4f363fb9ea83402a7828aa1e2847",
         "simulate_joint.csv": "522c7dfa7686a676432e452ae1cfac9c56d469ca97454dc87275e44b58ac48c4"},
    ),
    "figure": (
        ["figure", "--mask", "mask.txt"],
        {"figure_D1.csv": "b81588cf2c207512cd5b06cdb1ea1ff9694cb6567cd4d2d46ffce2cb0487dd90",
         "figure_D2.csv": "171d1abbd008c4e141523fc4d09964b6cd00795808092a3dbfde0bec9e21a248"},
    ),
    # 1,000,001 trials: about 100 writer blocks, and trial digits from 1 to 7
    "sample_polarization_1000001": (
        ["sample", "--arch", "polarization", "--n", "1000001", "--seed", "1"],
        {"sample_events.csv": "b055d35d1496dfb9199fd6913a6cc01da2c62d404069dac2793c3e2459fbafa6"},
    ),
    "figure_sampled": (
        ["figure", "--mask", "mask.txt", "--n", "1000", "--seed", "3"],
        {"figure_D1.csv": "432b4ae520d2aad55ac3ac76a46037f72dac6ca8ec4dcb2ede0a6290a040c42e",
         "figure_D2.csv": "74311b9e153d49c96bc51499af0238510597f254e5272c9f3492e67cf622414c"},
    ),
}


class TestPinnedCsvs:
    @pytest.mark.parametrize("case", sorted(PINNED_CSVS))
    def test_csv_bytes_are_pinned(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mask.txt").write_text("0011010111001010\n")
        argv, expected = PINNED_CSVS[case]
        assert main(argv + ["--out-dir", "out"]) == 0
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / "out").glob("*.csv")
        }
        assert written == expected
