"""The four dcqe benchmark workloads.

Each workload is a closed loop with one caller: it issues an operation,
waits for it, checks its output, and only then issues the next. A round is
a fixed list of operations; ``run.py`` repeats rounds until its time is up.
Operation seeds and inputs come from the workload seed through the ``rng``
passed to ``round_ops``; the library only ever sees those derived values.

Why these four:

* ``cli_roundtrip``: ``dcqe sample`` then ``dcqe audit`` in process on a
  1e6-trial polarization log, the path users type. CSV write and parse are
  about 90% of it, so it is the ``io`` workload, and it sees a writer that
  gets faster at the reader's expense.
* ``sample_large``: ``sample_events -> estimate_from_events -> audit`` at
  1e7 trials on each of the five tables. ``events`` does nearly all the
  work and ``io`` none.
* ``audit_sweep``: many small operations, where per-call overhead in
  ``audit``/``validate`` and the fixed 65,536-draw chunk of ``events``
  dominate. It is also the empirical-audit calibration grid, so the known
  no-go defect of small samples shows here.
* ``feasibility_grid``: exact-rational ``check_feasible`` cross-checked
  against ``construct_witness`` and ``loss_bounds``; no sampling, no I/O.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from dcqe import (
    CHUNK_TRIALS,
    ArchitectureSpec,
    InfeasibleLossRate,
    LossFeasibilityProblem,
    audit,
    check_deterministic_routing,
    check_distinct_conditionals,
    check_feasible,
    check_independence,
    check_lossless,
    coarse_grain,
    construct_witness,
    default_fringe_model,
    default_tolerance,
    estimate_from_events,
    kim_coarse_graining,
    loss_bounds,
    sample_events,
    validate,
)
from dcqe.cli import main as cli_main
from dcqe.io import audit_report_dict, read_event_log, write_audit_report, write_event_log

#: Scratch directory for files the workloads write, relative to the repo root.
OUT_DIR = ".perfbench_out"

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: The five tables, as (architecture kind, choice probability); kim_coarse
#: is the kim table pooled into erase/preserve channels.
TABLES = {
    "kim": ("kim", None),
    "kim_coarse": ("kim", None),
    "mach_zehnder": ("mach_zehnder", 0.5),
    "polarization": ("polarization", 0.5),
    "passive_choice": ("passive_choice", None),
}

#: Violations the paper predicts for each exact table.
EXACT_VIOLATIONS = {
    "kim": ("deterministic_routing",),
    "kim_coarse": ("distinct_conditionals",),
    "mach_zehnder": ("deterministic_routing",),
    "polarization": ("lossless",),
    "passive_choice": ("independence",),
}

#: Failure kind of an empirical audit of a ``DEFECT_TABLES`` table that
#: reports all four properties holding. This is a known defect of the
#: audit's sample-size tolerance (ROADMAP open item 1); it is counted as a
#: failure but does not make the run incorrect, so the benchmark can record
#: it until it is fixed.
KNOWN_DEFECT = "no_go_empirical"

#: The tables the known defect hits. On any other table, or on an exact
#: table, an audit that finds no violation is an ordinary failure.
DEFECT_TABLES = ("kim_coarse", "passive_choice")

#: Seed of the fixed-input reference operations checked against golden.json.
REFERENCE_SEED = 7


@dataclass(frozen=True)
class Op:
    """One operation: what to run and with which derived inputs."""

    kind: str
    table: str | None = None
    n: int = 0
    seed: int = 0
    n_x: int = 0
    index: int = 0
    reference: bool = False


class Failure(Exception):
    """An operation's output failed a check; ``kind`` names the check."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def build_tables(tracer, names) -> dict:
    """Build and validate the named tables, with a span per layer call."""
    fringe = default_fringe_model()
    tables = {}
    for name in names:
        kind, q = TABLES[name]
        with tracer.span("architectures.build", kind=kind):
            joint = ArchitectureSpec(kind, fringe, q).build()
        if name == "kim_coarse":
            with tracer.span("joint.coarse_grain"):
                joint = coarse_grain(joint, kim_coarse_graining())
        validate(joint)
        tables[name] = joint
    return tables


def log_digest(log) -> str:
    """sha256 of the derived (x, c_idx, d_idx) arrays as int64.

    Hashing the derived arrays rather than the log's storage keeps the
    digest valid across changes of the event representation.
    """
    h = hashlib.sha256()
    for arr in (log.x, log.c_idx, log.d_idx):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_golden(workload: str) -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check_golden(golden: dict, key: str, actual: str) -> None:
    if golden.get(key) != actual:
        raise Failure("digest", f"{key}: expected {golden.get(key)}, got {actual}")


def check_no_go(no_go_consistent: bool, table: str, empirical: bool) -> None:
    if not no_go_consistent:
        kind = KNOWN_DEFECT if empirical and table in DEFECT_TABLES else "no_go"
        raise Failure(kind, f"audit of {table} reports all four properties holding")


def check_violations(violations: tuple, table: str) -> None:
    if tuple(violations) != EXACT_VIOLATIONS[table]:
        raise Failure("verdict", f"{table} violates {tuple(violations)}, not {EXACT_VIOLATIONS[table]}")


def replay_checks(joint, tracer) -> None:
    """Time validate and each public audit check on one table."""
    with tracer.span("joint.validate"):
        validate(joint)
    tol = default_tolerance(joint)
    with tracer.span("audit.check_independence"):
        check_independence(joint, tol)
    with tracer.span("audit.check_lossless"):
        check_lossless(joint)
    with tracer.span("audit.check_deterministic_routing"):
        check_deterministic_routing(joint, tol)
    with tracer.span("audit.check_distinct_conditionals"):
        check_distinct_conditionals(joint, tol)


class Workload:
    """A closed-loop workload: set-up, reference ops, rounds, checks."""

    name = ""

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def reference_ops(self) -> list[Op]:
        """Fixed-input operations whose outputs golden.json pins."""
        return []

    def round_ops(self, rng) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, tracer):
        raise NotImplementedError

    def check(self, op: Op, result) -> None:
        """Raise Failure if the operation's output is wrong."""
        raise NotImplementedError

    def replay(self, op: Op, result, tracer) -> None:
        """Extra calls made in traced rounds only, after the op is timed."""

    @staticmethod
    def events(op: Op) -> int:
        return op.n


class CliRoundtrip(Workload):
    name = "cli_roundtrip"
    N = 1_000_000
    N_SMOKE = 20_000
    N_REFERENCE = 200_000

    def setup(self, tracer):
        self.dir = os.path.join(OUT_DIR, "cli")
        os.makedirs(self.dir, exist_ok=True)
        self.events_path = os.path.join(self.dir, "sample_events.csv")
        self.report_path = os.path.join(self.dir, "audit_report.json")
        self.spec = ArchitectureSpec("polarization", default_fringe_model(), 0.5)
        self.joint = build_tables(tracer, ("polarization",))["polarization"]
        self.golden = load_golden(self.name)

    def _pair(self, n: int, seed: int, reference: bool = False) -> list[Op]:
        return [
            Op("sample", "polarization", n, seed, reference=reference),
            Op("audit", "polarization", n, seed, reference=reference),
        ]

    def reference_ops(self):
        return self._pair(self.N_REFERENCE, REFERENCE_SEED, reference=True)

    def round_ops(self, rng):
        return self._pair(self.N_SMOKE if self.smoke else self.N, rng.randrange(2**31))

    def run(self, op, tracer):
        if op.kind == "sample":
            argv = ["sample", "--arch", "polarization", "--n", str(op.n),
                    "--seed", str(op.seed), "--out-dir", self.dir]
        else:
            argv = ["audit", "--in", self.events_path, "--out-dir", self.dir]
        with tracer.span(f"cli.{op.kind}", n=op.n) as rec:
            status = cli_main(argv)
        return status, rec.get("id")

    def check(self, op, result):
        status, _ = result
        if status != 0:
            raise Failure("exit_code", f"dcqe {op.kind} exited with {status}")
        key = f"polarization/{op.n}/{op.seed}"
        if op.kind == "sample":
            if op.reference:
                check_golden(self.golden, f"{key}/sample_events.csv", file_digest(self.events_path))
            return
        if op.reference:
            check_golden(self.golden, f"{key}/audit_report.json", file_digest(self.report_path))
        with open(self.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("config", None)
        # The same log through the library must give the same report: this
        # catches a CSV round trip that loses or reorders events.
        expected = audit(estimate_from_events(sample_events(self.joint, op.n, op.seed)))
        if report != json.loads(json.dumps(audit_report_dict(expected))):
            raise Failure("mismatch", f"audit report of seed {op.seed} differs from the library's")
        check_no_go(report["no_go_consistent"], "polarization", empirical=True)
        check_violations(report["violations"], "polarization")

    def replay(self, op, result, tracer):
        """Repeat the layer calls the CLI made, so cli self time can be split off."""
        _, cli_span = result
        if op.kind == "sample":
            with tracer.span("architectures.build", kind="polarization", replay_of=cli_span):
                joint = self.spec.build()
            with tracer.span("events.sample_events", n=op.n, replay_of=cli_span):
                log = sample_events(joint, op.n, op.seed)
            path = os.path.join(self.dir, "replay_events.csv")
            with tracer.span("io.write_event_log", replay_of=cli_span) as rec:
                write_event_log(log, path)
            rec["bytes"] = os.path.getsize(path)
            return
        with tracer.span("io.read_event_log", replay_of=cli_span) as rec:
            log = read_event_log(self.events_path)
        rec["bytes"] = os.path.getsize(self.events_path)
        with tracer.span("events.estimate_from_events", n=len(log), replay_of=cli_span):
            joint = estimate_from_events(log)
        with tracer.span("audit.audit", replay_of=cli_span):
            report = audit(joint)
        with tracer.span("io.write_audit_report", replay_of=cli_span):
            write_audit_report(report, os.path.join(self.dir, "replay_report.json"), config={})
        replay_checks(joint, tracer)

    @staticmethod
    def events(op):
        return op.n if op.kind == "audit" else 0


class SampleLarge(Workload):
    name = "sample_large"
    N = 10_000_000
    N_SMOKE = 50_000
    N_REFERENCE = 300_001

    def setup(self, tracer):
        self.tables = build_tables(tracer, TABLES)
        self.golden = load_golden(self.name)

    def reference_ops(self):
        return [Op("sample", t, self.N_REFERENCE, REFERENCE_SEED, reference=True) for t in TABLES]

    def round_ops(self, rng):
        n = self.N_SMOKE if self.smoke else self.N
        return [Op("sample", t, n, rng.randrange(2**31)) for t in TABLES]

    def run(self, op, tracer):
        with tracer.span("events.sample_events", n=op.n):
            log = sample_events(self.tables[op.table], op.n, op.seed)
        with tracer.span("events.estimate_from_events", n=op.n):
            joint = estimate_from_events(log)
        with tracer.span("audit.audit"):
            report = audit(joint)
        return joint, report, log_digest(log) if op.reference else None

    def check(self, op, result):
        joint, report, digest = result
        if joint.n_samples != op.n:
            raise Failure("mismatch", f"estimate of {op.table} has {joint.n_samples} samples, not {op.n}")
        if op.reference:
            check_golden(self.golden, f"{op.table}/{op.n}/{op.seed}", digest)
        check_no_go(report.no_go_consistent, op.table, empirical=True)
        # At 1e7 trials the sampled verdict must be the paper's.
        check_violations(report.violations, op.table)

    def replay(self, op, result, tracer):
        replay_checks(result[0], tracer)


class AuditSweep(Workload):
    name = "audit_sweep"
    # Per table and block: one exact audit, then sample -> estimate -> audit
    # at n = 1e3 (five seeds), 1e4 (two) and 1e5 (two). These weights put
    # the round's median inside the n = 1e3 operations and its 90th
    # percentile inside the n = 1e5 ones, away from the edges between
    # operation sizes where an order statistic would jump.
    MIX = ((1_000, 5), (10_000, 2), (100_000, 2))
    BLOCKS = 4
    BLOCKS_SMOKE = 1

    def setup(self, tracer):
        self.tables = build_tables(tracer, TABLES)

    def round_ops(self, rng):
        ops = []
        for _ in range(self.BLOCKS_SMOKE if self.smoke else self.BLOCKS):
            for table in TABLES:
                ops.append(Op("exact", table))
                for n, count in self.MIX:
                    ops.extend(Op("sampled", table, n, rng.randrange(2**31)) for _ in range(count))
        return ops

    def run(self, op, tracer):
        joint = self.tables[op.table]
        if op.kind == "sampled":
            with tracer.span("events.sample_events", n=op.n):
                log = sample_events(joint, op.n, op.seed)
            with tracer.span("events.estimate_from_events", n=op.n):
                joint = estimate_from_events(log)
        with tracer.span("audit.audit"):
            report = audit(joint)
        return joint, report

    def check(self, op, result):
        _, report = result
        check_no_go(report.no_go_consistent, op.table, empirical=op.kind == "sampled")
        if op.kind == "exact":
            check_violations(report.violations, op.table)

    def replay(self, op, result, tracer):
        replay_checks(result[0], tracer)


class FeasibilityGrid(Workload):
    name = "feasibility_grid"
    Q = 0.5
    # Below q/2, at q/2, interior, at q. Binary fractions keep the exact
    # rationals small, so every seed sees the same arithmetic cost.
    P_VALUES = (0.1875, 0.25, 0.375, 0.5)
    P_LARGE = 0.375
    BINS, BINS_LARGE = (4, 8, 16, 32), 64
    BINS_SMOKE, BINS_LARGE_SMOKE = (4,), 8

    def setup(self, tracer):
        bins = self.BINS_SMOKE if self.smoke else self.BINS
        large = self.BINS_LARGE_SMOKE if self.smoke else self.BINS_LARGE
        self.problems = [
            LossFeasibilityProblem(q=self.Q, n_x=n_x, p=p) for n_x in bins for p in self.P_VALUES
        ]
        self.problems.append(LossFeasibilityProblem(q=self.Q, n_x=large, p=self.P_LARGE))

    def round_ops(self, rng):
        # The problems are fixed; the seed sets the order they are issued in.
        order = list(range(len(self.problems)))
        rng.shuffle(order)
        return [Op("feasible", n_x=self.problems[i].n_x, index=i) for i in order]

    def run(self, op, tracer):
        prob = self.problems[op.index]
        with tracer.span("feasibility.check_feasible", n_x=prob.n_x):
            result = check_feasible(prob)
        with tracer.span("feasibility.construct_witness", n_x=prob.n_x):
            try:
                witness = construct_witness(prob)
            except InfeasibleLossRate:
                witness = None
        with tracer.span("feasibility.loss_bounds"):
            bounds = loss_bounds(prob.q)
        return prob, result, witness, bounds

    def check(self, op, result):
        prob, exact, witness, (low, high) = result
        where = f"n_x={prob.n_x} p={prob.p}"
        if exact.feasible != (low <= prob.p <= high):
            raise Failure("verdict", f"check_feasible disagrees with loss_bounds at {where}")
        if exact.feasible != (witness is not None):
            raise Failure("verdict", f"construct_witness disagrees with check_feasible at {where}")
        if witness is None:
            return
        if witness.binding_constraint != exact.binding_constraint:
            raise Failure("verdict", f"binding constraints differ at {where}")
        if not np.allclose(witness.witness.p, exact.witness.p, rtol=0.0, atol=1e-12):
            raise Failure("mismatch", f"witness tables differ at {where}")


WORKLOADS = {w.name: w for w in (CliRoundtrip, SampleLarge, AuditSweep, FeasibilityGrid)}


def draws(n: int) -> int:
    """Uniforms sample_events draws for n trials: whole chunks only."""
    return -(-n // CHUNK_TRIALS) * CHUNK_TRIALS
