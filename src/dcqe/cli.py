"""Command-line entry point.

Subcommands wire the builders, sampler, auditor, feasibility solver, and
the region-routing demo to files:

* ``simulate``: exact joint table CSV plus per-detector conditional CSVs.
* ``sample``: Monte Carlo event-log CSV.
* ``audit``: read an event log or joint CSV, write an audit report JSON.
* ``bounds``: print the feasible loss-rate interval for a choice probability.
* ``witness`` / ``feasible``: run the loss-feasibility module, write JSON.
* ``figure``: region-routing demo, two per-detector histogram CSVs.

Every run echoes its resolved configuration into a manifest JSON (and into
the report, where there is one), with no timestamps: identical inputs give
byte-identical artifacts. Exit status is 0 on success, 1 on domain errors
(reported as a JSON object on stderr), 2 on I/O or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .architectures import (
    ARCHITECTURE_KINDS,
    DEFAULT_Q,
    Q_REQUIRED,
    ArchitectureSpec,
    kim_coarse_graining,
)
from .errors import DcqeError, InvalidArgument
from .events import estimate_from_events, sample_events
from .feasibility import (
    LossFeasibilityProblem,
    check_feasible,
    construct_witness,
    loss_bounds,
)
from .audit import audit
from .io import (
    EVENT_HEADER,
    JOINT_HEADER,
    SCHEMA_VERSION,
    arch_config_dict,
    arch_spec_from_dict,
    feasibility_result_dict,
    problem_dict,
    problem_from_dict,
    read_event_log,
    read_joint,
    read_json,
    read_mask,
    write_audit_report,
    write_distribution,
    write_event_log,
    write_histogram,
    write_joint,
    write_json,
)
from .joint import coarse_grain, conditional_x_given_d
from .regions import coincidence_image, route_by_region

#: Environment variable naming the default output directory.
ENV_OUT_DIR = "DCQE_OUT_DIR"

#: Default bin count for feasibility problems (worked bound analyses).
FEASIBILITY_N_X = 4


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved command invocation."""

    command: str
    out_dir: str = "."
    arch: ArchitectureSpec | None = None
    coarse: bool = False
    n: int | None = None
    seed: int = 0
    input_path: str | None = None
    tol: float | None = None
    q: float | None = None
    problem: LossFeasibilityProblem | None = None
    mask_path: str | None = None

    def resolved(self) -> dict:
        """JSON-serializable echo of everything that shaped the run."""
        doc: dict = {"command": self.command, "out_dir": self.out_dir}
        if self.arch is not None:
            arch = arch_config_dict(self.arch)
            arch.pop("schema_version", None)
            doc["architecture"] = arch
            doc["coarse"] = self.coarse
        if self.n is not None:
            doc["n"] = self.n
            doc["seed"] = self.seed
        if self.input_path is not None:
            doc["input"] = self.input_path
        if self.tol is not None:
            doc["tolerance"] = self.tol
        if self.q is not None:
            doc["q"] = self.q
        if self.problem is not None:
            prob = problem_dict(self.problem)
            prob.pop("schema_version", None)
            doc["problem"] = prob
        if self.mask_path is not None:
            doc["mask"] = self.mask_path
        return doc


def _add_arch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="architecture config JSON file")
    parser.add_argument("--arch", choices=ARCHITECTURE_KINDS, help="architecture kind")
    parser.add_argument("--n-x", type=int, dest="n_x", help="screen bin count")
    parser.add_argument("--cycles", type=float, help="fringe cycles across the screen")
    parser.add_argument("--phase0", type=float, help="global fringe phase, radians")
    parser.add_argument("--visibility", type=float, help="fringe visibility in [0, 1]")
    parser.add_argument("--q", type=float, help="choice probability P(C=erase)")
    parser.add_argument(
        "--coarse", action="store_true", help="pool the kim detector pairs into channels"
    )


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out-dir",
        help=f"output directory (default: ${ENV_OUT_DIR} or current directory)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcqe",
        description="Delayed-choice eraser statistics: simulate, sample, audit, bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write the exact joint table of an architecture")
    _add_arch_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("sample", help="write a Monte Carlo event log of an architecture")
    _add_arch_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of trials")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    _add_out_flag(p)

    p = sub.add_parser("audit", help="audit an event-log or joint CSV")
    p.add_argument("--in", dest="input_path", required=True, help="input CSV path")
    p.add_argument("--tol", type=float, help="override the audit tolerance")
    _add_out_flag(p)

    p = sub.add_parser("bounds", help="print the feasible loss-rate interval")
    p.add_argument("--q", type=float, required=True, help="choice probability")

    p = sub.add_parser("witness", help="construct an explicit feasibility witness")
    p.add_argument("--q", type=float, help="choice probability")
    p.add_argument("--p", type=float, help="loss rate")
    p.add_argument("--n-x", type=int, dest="n_x", help="bin count")
    p.add_argument("--problem", help="feasibility problem JSON file")
    _add_out_flag(p)

    p = sub.add_parser("feasible", help="decide loss-rate feasibility exactly")
    p.add_argument("--q", type=float, help="choice probability")
    p.add_argument("--p", type=float, help="loss rate")
    p.add_argument("--n-x", type=int, dest="n_x", help="bin count")
    p.add_argument("--problem", help="feasibility problem JSON file")
    _add_out_flag(p)

    p = sub.add_parser("figure", help="region-routing demo histograms")
    p.add_argument("--mask", dest="mask_path", required=True, help="mask file (0/1 row or PBM P1)")
    p.add_argument("--n", type=int, help="sample this many trials instead of exact masses")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    _add_out_flag(p)

    return parser


def _resolve_out_dir(args) -> str:
    out_dir = getattr(args, "out_dir", None) or os.environ.get(ENV_OUT_DIR) or "."
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _resolve_arch(args) -> ArchitectureSpec:
    doc: dict = {}
    if args.config:
        doc = dict(read_json(args.config))
    overrides = {
        "kind": args.arch,
        "n_x": args.n_x,
        "fringe_cycles": args.cycles,
        "phase0": args.phase0,
        "visibility": args.visibility,
        "q": args.q,
    }
    for key, value in overrides.items():
        if value is not None:
            doc[key] = value
    if "kind" not in doc:
        raise ValueError("an architecture is required: pass --arch or --config")
    if doc.get("q") is None and doc["kind"] in Q_REQUIRED:
        doc["q"] = DEFAULT_Q
    return arch_spec_from_dict(doc)


def _resolve_problem(args) -> LossFeasibilityProblem:
    doc: dict = {}
    if getattr(args, "problem", None):
        doc = dict(read_json(args.problem))
    for key in ("q", "p", "n_x"):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    doc.setdefault("n_x", FEASIBILITY_N_X)
    return problem_from_dict(doc)


def build_run_config(args) -> RunConfig:
    """Turn parsed flags (plus any config files) into a resolved RunConfig."""
    command = args.command
    if command in ("simulate", "sample"):
        return RunConfig(
            command=command,
            out_dir=_resolve_out_dir(args),
            arch=_resolve_arch(args),
            coarse=bool(getattr(args, "coarse", False)),
            n=getattr(args, "n", None),
            seed=getattr(args, "seed", 0),
        )
    if command == "audit":
        return RunConfig(
            command=command,
            out_dir=_resolve_out_dir(args),
            input_path=args.input_path,
            tol=args.tol,
        )
    if command == "bounds":
        return RunConfig(command=command, q=args.q)
    if command in ("witness", "feasible"):
        return RunConfig(
            command=command,
            out_dir=_resolve_out_dir(args),
            problem=_resolve_problem(args),
        )
    if command == "figure":
        return RunConfig(
            command=command,
            out_dir=_resolve_out_dir(args),
            mask_path=args.mask_path,
            n=args.n,
            seed=args.seed,
        )
    raise ValueError(f"unknown command {command!r}")


def _out_path(config: RunConfig, name: str) -> str:
    return os.path.join(config.out_dir, name)


def _write_manifest(config: RunConfig, artifacts: list[str], name: str) -> None:
    write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": config.command,
            "config": config.resolved(),
            "artifacts": sorted(artifacts),
        },
        _out_path(config, name),
    )


def _resolve_joint(config: RunConfig):
    joint = config.arch.build()
    if config.coarse:
        if config.arch.kind != "kim":
            raise InvalidArgument("--coarse applies to the kim architecture only")
        joint = coarse_grain(joint, kim_coarse_graining())
    return joint


def _cmd_simulate(config: RunConfig) -> None:
    joint = _resolve_joint(config)
    artifacts = ["simulate_joint.csv"]
    write_joint(joint, _out_path(config, "simulate_joint.csv"))
    for di in joint.space.detected_indices:
        d = joint.space.d_values[di]
        if float(joint.p[:, :, di].sum()) > 0.0:
            name = f"simulate_conditional_{d}.csv"
            write_distribution(conditional_x_given_d(joint, d), _out_path(config, name))
            artifacts.append(name)
    _write_manifest(config, artifacts, "simulate_manifest.json")


def _cmd_sample(config: RunConfig) -> None:
    joint = _resolve_joint(config)
    log = sample_events(joint, config.n, config.seed)
    write_event_log(log, _out_path(config, "sample_events.csv"))
    _write_manifest(config, ["sample_events.csv"], "sample_manifest.json")


def _sniff_input(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    if first == ",".join(EVENT_HEADER):
        return "events"
    if first == ",".join(JOINT_HEADER):
        return "joint"
    raise ValueError(f"unrecognized input header {first!r} in {path}")


def _cmd_audit(config: RunConfig) -> None:
    kind = _sniff_input(config.input_path)
    if kind == "events":
        joint = estimate_from_events(read_event_log(config.input_path))
    else:
        joint = read_joint(config.input_path)
    report = audit(joint, tol=config.tol)
    write_audit_report(report, _out_path(config, "audit_report.json"), config=config.resolved())
    _write_manifest(config, ["audit_report.json"], "audit_manifest.json")


def _cmd_bounds(config: RunConfig) -> None:
    low, high = loss_bounds(config.q)
    print(f"{low!r} {high!r}")


def _cmd_witness(config: RunConfig) -> None:
    result = construct_witness(config.problem)
    write_json(
        feasibility_result_dict(result, problem=config.problem, config=config.resolved()),
        _out_path(config, "witness_result.json"),
    )
    _write_manifest(config, ["witness_result.json"], "witness_manifest.json")


def _cmd_feasible(config: RunConfig) -> None:
    result = check_feasible(config.problem)
    write_json(
        feasibility_result_dict(result, problem=config.problem, config=config.resolved()),
        _out_path(config, "feasible_result.json"),
    )
    _write_manifest(config, ["feasible_result.json"], "feasible_manifest.json")


def _cmd_figure(config: RunConfig) -> None:
    mask = read_mask(config.mask_path)
    base = np.full(mask.n_x, 1.0 / mask.n_x)
    joint = route_by_region(mask, base)
    artifacts = []
    if config.n is not None:
        log = sample_events(joint, config.n, config.seed)
        hist_in, hist_out = coincidence_image(log)
        for d, hist in zip(("D1", "D2"), (hist_in, hist_out)):
            name = f"figure_{d}.csv"
            write_histogram(hist, _out_path(config, name))
            artifacts.append(name)
    else:
        for di, d in enumerate(("D1", "D2")):
            name = f"figure_{d}.csv"
            write_distribution(joint.p[:, :, di].sum(axis=1), _out_path(config, name))
            artifacts.append(name)
    _write_manifest(config, artifacts, "figure_manifest.json")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sample": _cmd_sample,
    "audit": _cmd_audit,
    "bounds": _cmd_bounds,
    "witness": _cmd_witness,
    "feasible": _cmd_feasible,
    "figure": _cmd_figure,
}


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n"
    )


def _exit_status(action) -> int:
    """Run ``action``; map domain errors to status 1, I/O and parse errors to 2."""
    try:
        action()
    except DcqeError as exc:
        _emit_error(exc)
        return 1
    except (OSError, ValueError) as exc:
        _emit_error(exc)
        return 2
    return 0


def _run(config: RunConfig) -> None:
    _COMMANDS[config.command](config)


def dispatch(config: RunConfig) -> int:
    """Execute a resolved run; return the process exit status."""
    return _exit_status(lambda: _run(config))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    return _exit_status(lambda: _run(build_run_config(args)))


if __name__ == "__main__":
    sys.exit(main())
