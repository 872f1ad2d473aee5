"""Mutation gates: named faults in ``src/`` that the tests must catch.

Run from anywhere, with pytest installed:

    python tests/mutants.py [name ...]

Each mutant names a file under ``src/``, a text that must occur in it
exactly once, the text that replaces it, and the tests that should then
fail: the fewest that do. The runner copies ``src/`` into a temporary
directory, applies one mutant at a time to the copy, and runs that mutant's
tests with the copy first on ``PYTHONPATH``. A mutant is "killed" when a test
fails, "survived" when they all pass, and "stale" when its text is not found
exactly once. The exit status is 1 unless every mutant run was killed. It
writes nothing in the repository: the copy, pytest's and hypothesis's files
and the bytecode all stay out of it.

pytest does not collect this file, as its name has no ``test_`` prefix;
``tests/test_mutants.py`` checks the runner and that no mutant is stale. A
change that makes a mutant stale updates its text, and deletes it only when
the code it mutates is gone.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    #: the mutated file, relative to ``src/``
    path: str
    old: str
    new: str
    #: pytest node ids, relative to the repository root
    tests: tuple[str, ...]


AUDIT, EVENTS = "dcqe/audit.py", "dcqe/events.py"
MATCHES = "tests/test_audit.py::TestMatchesReference"
SAMPLER = "tests/test_events.py::TestSamplerIsBitIdentical"
COUNTS = "tests/test_events.py::TestEventLog::test_counts_on_any_worker_count"

MUTANTS = (
    # the sampler's end rule and its proofs: without it a table whose cumsum
    # ends below 1.0 sends the top draws one past the last cell; set on the
    # last cell alone, they go to a trailing cell without mass; uncapped,
    # the steps of a cumsum that passes 1.0 are not sorted; and a search to
    # the left puts a flagged word at a step in the cell before it
    Mutant("cdf_end_not_one", EVENTS, "    steps[np.flatnonzero(p)[-1]:] = 2**53\n", "",
           (f"{SAMPLER}::test_extreme_words_give_cells_in_range",)),
    Mutant("end_rule_on_the_last_cell", EVENTS, "steps[np.flatnonzero(p)[-1]:]", "steps[-1:]",
           (f"{SAMPLER}::test_the_top_word_gives_the_last_cell_with_mass",)),
    Mutant("steps_uncapped", EVENTS, "np.minimum(np.ceil(np.cumsum(p) * _TWO53), _TWO53)",
           "np.ceil(np.cumsum(p) * _TWO53)",
           (f"{SAMPLER}::test_guide_bins_from_integer_steps[passes_one_before_mass]",)),
    Mutant("miss_search_left", EVENTS, 'raw[flagged] >> _LOW_BITS, side="right")',
           'raw[flagged] >> _LOW_BITS, side="left")',
           (f"{SAMPLER}::test_cdf_steps_on_both_sides_of_slice_edges",)),
    # purity tested against a bucket's start instead of its end flags no
    # bucket, so a draw past a step inside its bucket keeps the guess
    Mutant("pure_bucket_at_its_start", EVENTS, "impure = ends[steps < ends << drop] - 1",
           "impure = ends[steps < (ends - 1) << drop] - 1",
           (f"{SAMPLER}::test_inversion_at_cdf_values_and_bucket_edges",)),
    # the alpha path's structural zeros, read from mass instead of counts,
    # let 1e-12 * n events stray or be lost (ROADMAP item 2's large-n hole)
    Mutant("alpha_routing_by_mass", AUDIT, "holds = int(reached.max()) <= 1",
           "holds = max_stray <= tol",
           ("tests/test_audit.py::TestAlpha::test_stray_events_past_1e12_are_a_violation",)),
    Mutant("alpha_loss_by_mass", AUDIT,
           "holds = li is None or not m.counts_cd[:, li].any()",
           "holds = m.loss_mass <= LOSSLESS_TOL",
           ("tests/test_audit.py::TestAlpha::test_one_lost_event_among_1e13_is_a_violation",)),
    # the one-df rule (ROADMAP item 2): G_XD read at its own df; the one
    # X x C test both G-tests read, summed over choices instead of detectors;
    # and the record's C x D counts, summed over choices instead of bins
    Mutant("g_xd_at_its_own_df", AUDIT,
           "g_test(np.add.reduce(joint.counts, 1).take(observed, 1), m.xc_test[1])",
           "g_test(np.add.reduce(joint.counts, 1).take(observed, 1))",
           ("tests/test_audit.py::TestCountTables::test_nine_choices_and_eight_detectors",)),
    Mutant("xc_test_over_detectors", AUDIT, "g_test(np.add.reduce(joint.counts, 2))",
           "g_test(np.add.reduce(joint.counts, 1))",
           ("tests/test_audit.py::TestCountTables::test_nine_choices_and_eight_detectors",)),
    Mutant("record_cd_counts_over_choices", AUDIT,
           "self.counts_cd = np.add.reduce(joint.counts, 0)",
           "self.counts_cd = np.add.reduce(joint.counts, 1)",
           ("tests/test_audit.py::TestAlpha::test_one_lost_event_among_1e13_is_a_violation",)),
    # the leaner audit kernels
    Mutant("routing_rows_fancy_indexed", AUDIT, "mass_d = mass.take(detected, 1)",
           "mass_d = mass[:, detected]", (f"{MATCHES}::test_reports_and_checks[2]",)),
    Mutant("distinct_last_tied_pair", AUDIT, "k = int(tv.argmax())",
           "k = len(tv) - 1 - int(tv[::-1].argmax())", (f"{MATCHES}::test_reports_and_checks",)),
    Mutant("bin_set_at_or_above", AUDIT, "(diff[k] > 0)", "(diff[k] >= 0)",
           (f"{MATCHES}::test_paper_tables",)),
    Mutant("pair_difference_reversed", AUDIT,
           "diff = conditionals.take(first, 0) - conditionals.take(second, 0)",
           "diff = conditionals.take(second, 0) - conditionals.take(first, 0)",
           (f"{MATCHES}::test_paper_tables",)),
    Mutant("g_test_int_products", AUDIT, "np.multiply(rows[:, None], columns, dtype=float)",
           "np.multiply(rows[:, None], columns)",
           ("tests/test_audit.py::TestGTest::test_totals_past_two_to_the_32_do_not_wrap",)),
    # the pair indices _distinct keeps, keyed by the detectors a table
    # declares instead of those with mass
    Mutant("distinct_pairs_by_detected_count", AUDIT, "first, second = _pairs(len(observed))",
           "first, second = _pairs(len(space.detected_indices))",
           ("tests/test_audit.py::TestDistinctPairs::test_detector_counts_in_one_process",)),
    Mutant("audit_distinct_without_alpha", AUDIT,
           "distinct_conditionals=_distinct(m),",
           "distinct_conditionals=_distinct(_Margins(joint, m.routing_tol, None)),",
           (f"{MATCHES}::test_paper_tables",)),
    Mutant("validate_skips_every_table", "dcqe/joint.py",
           "    if joint.counts is not None:\n        return joint\n",
           "    if True:\n        return joint\n",
           ("tests/test_audit.py::TestAudit::test_invalid_joint_rejected",)),
    # counting on W workers: each starts at its first slice a second time,
    # steps one slice instead of W and so recounts the others' slices, or
    # the calling thread keeps its own tally alone
    Mutant("counts_first_slice_twice", EVENTS,
           "for start in range((w + workers) * step, n, workers * step):",
           "for start in range(w * step, n, workers * step):",
           ("tests/test_events.py::TestEventLog::test_counts_match_events",)),
    Mutant("counts_worker_stride", EVENTS, "n, workers * step):", "n, step):",
           (f"{COUNTS}[524289-2-3]",)),
    Mutant("counts_first_tally_only", EVENTS,
           "        for other in others:\n            counts += other\n", "",
           (f"{COUNTS}[524289-2-3]",)),
    # the feasibility row templates and the event reader's block fill
    Mutant("feasibility_detected_rows_swapped", "dcqe/feasibility.py",
           "        terms({(0, 0): 1, (1, 0): 1}),\n        terms({(0, 1): 1, (1, 1): 1}),\n",
           "        terms({(0, 1): 1, (1, 1): 1}),\n        terms({(0, 0): 1, (1, 0): 1}),\n",
           ("tests/test_feasibility.py::TestSameBits::test_pinned_system_matches_the_reference",)),
    Mutant("feasibility_empty_rows_kept", "dcqe/feasibility.py",
           "            if template or b:\n", "            if True:\n",
           ("tests/test_feasibility.py::TestSameBits::test_pinned_system_matches_the_reference",)),
    Mutant("reader_last_row_of_largest_bin", "dcqe/io.py", "if top > max_x:", "if top >= max_x:",
           ("tests/test_io.py::TestEventLogFiles::test_unallocatable_table_names_the_first_row_of_its_bin",)),
    # the label key's last word left out of its slot's top bits; and a
    # record that takes its slot's code without a check of its length
    Mutant("label_key_unmixed", "dcqe/io.py", "key = (key + column) * _HASH_MULTIPLIER",
           "key = key * _HASH_MULTIPLIER + column",
           ("tests/test_io.py::TestEventReaderBlocks::test_paper_layouts_take_distinct_slots",)),
    Mutant("slot_hit_ignores_length", "dcqe/io.py",
           "        hit &= lengths == lengths[stand_in]\n", "",
           ("tests/test_io.py::TestEventReaderBlocks::test_tails_apart_only_by_length",)),
)


def run(mutant: Mutant, src: Path, root: Path) -> str:
    """Apply ``mutant`` to a copy of ``src`` and run its tests, node ids
    under ``root``: "killed", "survived", "stale", or how pytest failed to
    run them."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "src")
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   *(str(root / test) for test in mutant.tests)]
        # run in the temporary directory, which takes hypothesis's database
        done = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True)
    return {0: "survived", 1: "killed"}.get(done.returncode, f"pytest exited {done.returncode}")


def main(names: list[str]) -> int:
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in [known[name] for name in names] or MUTANTS:
        start = time.perf_counter()
        status = run(mutant, ROOT / "src", ROOT)
        print(f"{mutant.name}: {status} ({time.perf_counter() - start:.1f} s)", flush=True)
        failed += status != "killed"
    print(f"{failed} of {len(names) or len(MUTANTS)} mutants not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
