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


class TestSampleAndAudit:
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
        ["trial, x, c, d\n0,1,a,D1\n1,0,b,D2\n", " x , c , d , p\n0,a,D1,0.5\n1,b,D2,0.5\n"],
        ids=["events", "joint"],
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

    def test_audit_header_past_csv_field_limit_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x" * 200_000 + "\n0,a,D1,1.0\n")
        assert main(["audit", "--in", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert "unrecognized input header" in json.loads(capsys.readouterr().err)["message"]


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
        assert "'n_x' must be an integer" in json.loads(capsys.readouterr().err)["message"]
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

    def test_pbm_negative_dimensions_exit_2(self, tmp_path, capsys):
        mask = tmp_path / "mask.pbm"
        mask.write_text("P1\n-1 -2\n1 0\n")
        out = tmp_path / "fig"
        assert main(["figure", "--mask", str(mask), "--out-dir", str(out)]) == 2
        assert "at least 1" in json.loads(capsys.readouterr().err)["message"]
        assert not (out / "figure_manifest.json").exists()


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
