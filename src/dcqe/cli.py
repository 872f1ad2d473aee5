"""Command-line entry point.

Subcommands wire the builders, sampler, auditor, feasibility solver, and
the region-routing demo to files:

* ``simulate``: exact joint table CSV plus per-detector conditional CSVs.
* ``sample``: Monte Carlo event-log CSV.
* ``audit``: read an event log or joint CSV, write an audit report JSON.
* ``bounds``: print the feasible loss-rate interval for a choice probability.
* ``witness`` / ``feasible``: run the loss-feasibility module, write JSON.
* ``figure``: region-routing demo, two per-detector histogram CSVs.

Every subcommand but ``bounds`` only computes and returns its artifacts as
writers; ``_run`` writes them, then a ``<command>_manifest.json`` that lists
them and echoes the resolved configuration (as the report does), with no
timestamps: identical inputs give byte-identical artifacts. Exit status
is 0 on success, 1 on domain errors (reported as a JSON object on stderr),
2 on I/O, parse or out-of-memory errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

import numpy as np

from .architectures import (
    ARCHITECTURE_KINDS,
    DEFAULT_Q,
    Q_REQUIRED,
    ArchitectureSpec,
    kim_coarse_graining,
    route_by_region,
)
from .errors import DcqeError, InvalidArgument
from .events import sample_events
from .feasibility import (
    LossFeasibilityProblem,
    check_feasible,
    construct_witness,
    loss_bounds,
)
from .audit import audit
from .io import (
    SCHEMA_VERSION,
    arch_config_dict,
    arch_spec_from_dict,
    feasibility_result_dict,
    problem_dict,
    problem_from_dict,
    read_json,
    read_mask,
    read_table,
    write_audit_report,
    write_column,
    write_event_log,
    write_joint,
    write_json,
)
from .joint import coarse_grain, conditional_x_given_d

#: Environment variable naming the default output directory.
ENV_OUT_DIR = "DCQE_OUT_DIR"

#: Default bin count for feasibility problems (worked bound analyses).
FEASIBILITY_N_X = 4


def _add_arch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="architecture config JSON file")
    parser.add_argument(
        "--arch", dest="kind", choices=ARCHITECTURE_KINDS, help="architecture kind"
    )
    parser.add_argument("--n-x", type=int, dest="n_x", help="screen bin count")
    parser.add_argument(
        "--cycles",
        type=float,
        dest="fringe_cycles",
        metavar="CYCLES",
        help="fringe cycles across the screen",
    )
    parser.add_argument("--phase0", type=float, help="global fringe phase, radians")
    parser.add_argument("--visibility", type=float, help="fringe visibility in [0, 1]")
    parser.add_argument("--q", type=float, help="choice probability P(C=erase)")
    parser.add_argument(
        "--coarse", action="store_true", help="pool the kim detector pairs into channels"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcqe",
        description="Delayed-choice eraser statistics: simulate, sample, audit, bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write the exact joint table of an architecture")
    _add_arch_flags(p)
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("sample", help="write a Monte Carlo event log of an architecture")
    _add_arch_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of trials")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("audit", help="audit an event-log or joint CSV")
    p.add_argument("--in", dest="input_path", required=True, help="input CSV path")
    p.add_argument("--tol", type=float, help="override the audit tolerance")
    p.add_argument(
        "--alpha", type=float, help="audit a sampled table by G-tests at this level, in (0, 1)"
    )
    p.set_defaults(run=_cmd_audit)

    p = sub.add_parser("bounds", help="print the feasible loss-rate interval")
    p.add_argument("--q", type=float, required=True, help="choice probability")

    for name, solve, help_text in (
        ("witness", construct_witness, "construct an explicit feasibility witness"),
        ("feasible", check_feasible, "decide loss-rate feasibility exactly"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--q", type=float, help="choice probability")
        p.add_argument("--p", type=float, help="loss rate")
        p.add_argument("--n-x", type=int, dest="n_x", help="bin count")
        p.add_argument("--problem", help="feasibility problem JSON file")
        p.set_defaults(run=_cmd_solve, solve=solve)

    p = sub.add_parser("figure", help="region-routing demo histograms")
    p.add_argument("--mask", dest="mask_path", required=True, help="mask file (0/1 row or PBM P1)")
    p.add_argument("--n", type=int, help="sample this many trials instead of exact masses")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(run=_cmd_figure)

    for name, p in sub.choices.items():
        if name != "bounds":
            p.add_argument(
                "--out-dir",
                help=f"output directory (default: ${ENV_OUT_DIR} or current directory)",
            )
    return parser


def _overlay(path: str | None, args, *keys: str) -> dict:
    """The JSON object in ``path`` (or ``{}``), each given flag among ``keys`` set over it."""
    doc = read_json(path) if path else {}
    doc.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    return doc


def _resolve_arch(args) -> ArchitectureSpec:
    doc = _overlay(args.config, args, "kind", "n_x", "fringe_cycles", "phase0", "visibility", "q")
    if "kind" not in doc:
        raise ValueError("an architecture is required: pass --arch or --config")
    if doc.get("q") is None and doc["kind"] in Q_REQUIRED:
        doc["q"] = DEFAULT_Q
    return arch_spec_from_dict(doc)


def _resolve_problem(args) -> LossFeasibilityProblem:
    doc = _overlay(args.problem, args, "q", "p", "n_x")
    doc.setdefault("n_x", FEASIBILITY_N_X)
    return problem_from_dict(doc)


def _echo(doc: dict) -> dict:
    """A serialized config as echoed in a manifest: without its schema version."""
    del doc["schema_version"]
    return doc


def _arch_joint(args, config: dict):
    """The joint table of a ``simulate`` or ``sample`` run, its echo added to ``config``."""
    spec = _resolve_arch(args)
    if args.coarse and spec.kind != "kim":
        raise InvalidArgument("--coarse applies to the kim architecture only")
    config.update(architecture=_echo(arch_config_dict(spec)), coarse=args.coarse)
    try:
        joint = spec.build()
    except DcqeError:
        raise
    except (MemoryError, ValueError):
        # numpy raises ValueError for an array too big to even shape
        raise MemoryError(f"n_x = {spec.fringe.n_x} bins are too many to allocate") from None
    if args.coarse:
        joint = coarse_grain(joint, kim_coarse_graining())
    return joint


def _cmd_simulate(args, config: dict) -> dict:
    joint = _arch_joint(args, config)
    artifacts = {"simulate_joint.csv": partial(write_joint, joint)}
    for di in joint.space.detected_indices:
        d = joint.space.d_values[di]
        if float(joint.p[:, :, di].sum()) > 0.0:
            artifacts[f"simulate_conditional_{d}.csv"] = partial(
                write_column, conditional_x_given_d(joint, d), "p"
            )
    return artifacts


def _cmd_sample(args, config: dict) -> dict:
    joint = _arch_joint(args, config)
    config.update(n=args.n, seed=args.seed)
    return {"sample_events.csv": partial(write_event_log, sample_events(joint, args.n, args.seed))}


def _cmd_audit(args, config: dict) -> dict:
    config["input"] = args.input_path
    if args.tol is not None:
        config["tolerance"] = args.tol
    if args.alpha is not None:
        config["alpha"] = args.alpha
    report = audit(read_table(args.input_path), tol=args.tol, alpha=args.alpha)
    return {"audit_report.json": partial(write_audit_report, report, config=config)}


def _cmd_solve(args, config: dict) -> dict:
    """``witness`` or ``feasible``: run ``args.solve`` on the resolved problem."""
    problem = _resolve_problem(args)
    config["problem"] = _echo(problem_dict(problem))
    result = feasibility_result_dict(args.solve(problem), problem=problem, config=config)
    return {f"{args.command}_result.json": partial(write_json, result)}


def _cmd_figure(args, config: dict) -> dict:
    config["mask"] = args.mask_path
    mask = read_mask(args.mask_path)
    joint = route_by_region(mask, np.full(mask.size, 1.0 / mask.size))
    if args.n is None:
        name, table = "p", joint.p
    else:
        config.update(n=args.n, seed=args.seed)
        name, table = "count", sample_events(joint, args.n, args.seed).counts()
    return {
        artifact: partial(write_column, column, name)
        for artifact, column in zip(("figure_D1.csv", "figure_D2.csv"), table.sum(axis=1).T)
    }


def _run(args) -> None:
    """Create the output directory before any input is read, run the subcommand,
    write each artifact it returns, then the manifest that lists them."""
    out_dir = args.out_dir or os.environ.get(ENV_OUT_DIR) or "."
    os.makedirs(out_dir, exist_ok=True)
    config = {"command": args.command, "out_dir": out_dir}
    artifacts = args.run(args, config)
    for name, write in artifacts.items():
        write(os.path.join(out_dir, name))
    manifest = {"schema_version": SCHEMA_VERSION, "command": args.command, "config": config}
    manifest["artifacts"] = sorted(artifacts)
    write_json(manifest, os.path.join(out_dir, f"{args.command}_manifest.json"))


def main(argv=None) -> int:
    """Run one subcommand; return 0, 1 on domain errors, 2 on I/O, parse or memory errors."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.command == "bounds":
            low, high = loss_bounds(args.q)
            print(f"{low!r} {high!r}")
        else:
            _run(args)
    except (DcqeError, MemoryError, OSError, ValueError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 1 if isinstance(exc, DcqeError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
