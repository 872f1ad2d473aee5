"""Same-bits corpus: the audit's outcomes on a fixed set of tables, hashed.

Run from the repository root:

    PYTHONPATH=src python tests/same_bits.py

It prints the number of outcomes and the sha256 of their text, in order. An
outcome is a report or verdict as sorted JSON, or a refusal's class and
message (``test_audit.outcome``). The calls are ``audit(joint, tol)``,
``audit(joint)`` and the four public checks at tol on each table and
tolerance, and on a sampled table also ``audit``, ``check_independence`` and
``check_distinct_conditionals`` at its alpha. The tables are:

- ``test_audit.reference_tables(seed, 80)`` for seeds 0-39, each at the
  tolerances 1e-9, 0.02, 0.1 and 0.4, a sampled one at its own alpha;
- the five paper tables, exact and sampled at n = 1e3, 1e4 and 1e5 with
  seeds 0-29, at their default tolerance, a sampled one at alpha 1e-6.

A change that means to keep every verdict, statistic, witness and refusal
to the bit prints the same two lines before and after. The last bits of a
statistic may move with the numpy release, so compare two commits on one
installation. pytest does not collect this file, as its name has no
``test_`` prefix, and it writes nothing.
"""

import hashlib
import json
import sys

sys.dont_write_bytecode = True

from dcqe import (  # noqa: E402
    audit,
    check_deterministic_routing,
    check_distinct_conditionals,
    check_independence,
    check_lossless,
    default_tolerance,
)
from test_audit import (  # noqa: E402
    PAPER_TABLES, _paper_table, _sampled, outcome, reference_tables
)

TOLERANCES = (1e-9, 0.02, 0.1, 0.4)


def calls(joint, tol, alpha):
    """The corpus's calls on one table at one tolerance, and at alpha if any."""
    yield lambda: audit(joint, tol).as_dict()
    yield lambda: audit(joint).as_dict()
    yield lambda: check_independence(joint, tol).as_dict()
    yield lambda: check_lossless(joint).as_dict()
    yield lambda: check_deterministic_routing(joint, tol).as_dict()
    yield lambda: check_distinct_conditionals(joint, tol).as_dict()
    if alpha is not None:
        yield lambda: audit(joint, alpha=alpha).as_dict()
        yield lambda: check_independence(joint, alpha=alpha).as_dict()
        yield lambda: check_distinct_conditionals(joint, alpha=alpha).as_dict()


def cases():
    """(table, tolerance, alpha or None), in corpus order."""
    for seed in range(40):
        for joint, _, alpha in reference_tables(seed, 80):
            for tol in TOLERANCES:
                yield joint, tol, alpha
    for name in PAPER_TABLES:
        exact = _paper_table(name)
        yield exact, default_tolerance(exact), None
        for n in (10**3, 10**4, 10**5):
            for seed in range(30):
                joint = _sampled(exact, n, seed)
                yield joint, default_tolerance(joint), 1e-6


def main() -> None:
    digest, count = hashlib.sha256(), 0
    for case in cases():
        for call in calls(*case):
            digest.update(json.dumps(outcome(call)).encode() + b"\n")
            count += 1
    print(f"outcomes: {count:,}")
    print(f"sha256: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
