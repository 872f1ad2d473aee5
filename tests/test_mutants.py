"""The mutation-gate runner, on a throwaway package, and its mutant list."""

from pathlib import Path

import mutants
from mutants import MUTANTS, ROOT, Mutant


def test_runner_reports_killed_survived_and_stale(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("VALUE = 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pkg.py").write_text(
        "from pkg import VALUE\n\n\ndef test_value():\n    assert VALUE == 1\n")
    cases = {
        "survived": ("VALUE = 1", "VALUE = 1"),
        "killed": ("VALUE = 1", "VALUE = 2"),
        "stale": ("VALUE = 3", "VALUE = 2"),
    }
    for status, (old, new) in cases.items():
        mutant = Mutant(status, "pkg/__init__.py", old, new, ("tests/test_pkg.py",))
        assert mutants.run(mutant, tmp_path / "src", tmp_path) == status
    assert (package / "__init__.py").read_text() == "VALUE = 1\n"


def test_no_mutant_is_stale():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        text = (ROOT / "src" / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1 and mutant.new != mutant.old, mutant.name
        for test in mutant.tests:
            assert Path(ROOT, test.split("::")[0]).is_file(), (mutant.name, test)
