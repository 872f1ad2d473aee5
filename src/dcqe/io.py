"""File formats: event logs, joint tables, distributions, reports, configs.

All writers are deterministic: fixed header order, ``\\n`` line endings,
shortest round-trip float repr (full precision), and sorted keys in JSON.
JSON documents carry a ``schema_version`` field.
"""

from __future__ import annotations

import csv
import itertools
import json
from io import StringIO
from typing import Mapping

import numpy as np

from .architectures import (
    DEFAULT_CYCLES,
    DEFAULT_N_X,
    DEFAULT_VISIBILITY,
    ArchitectureSpec,
)
from .audit import AuditReport
from .errors import InvalidArgument
from .events import EventLog
from .feasibility import FeasibilityResult, LossFeasibilityProblem
from .fringes import FringeModel
from .joint import JointDistribution, OutcomeSpace
from .regions import RegionMask

SCHEMA_VERSION = 1

EVENT_HEADER = ["trial", "x", "c", "d"]
JOINT_HEADER = ["x", "c", "d", "p"]
DISTRIBUTION_HEADER = ["x", "p"]

_INTP = np.iinfo(np.intp)


def _float_repr(value: float) -> str:
    return repr(float(value))


def write_json(obj, path: str) -> None:
    """Write a JSON document deterministically (sorted keys, full precision)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- event logs


def _cell_fields(space: OutcomeSpace) -> list[str]:
    """CSV text of each cell's ``x,c,d`` fields, indexed by flat cell.

    Each cell is rendered once by a ``csv.writer`` in this module's dialect,
    so every label is quoted exactly as it would be within a whole row.
    """
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = []
    for cell in itertools.product(range(space.n_x), space.c_values, space.d_values):
        buf.seek(0)
        buf.truncate()
        writer.writerow(cell)
        fields.append(buf.getvalue()[:-1])
    return fields


def write_event_log(log: EventLog, path: str) -> None:
    """CSV with header ``trial,x,c,d``; the loss outcome is spelled LOSS."""
    fields = _cell_fields(log.space)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(EVENT_HEADER) + "\n")
        fh.writelines(f"{t},{fields[cell]}\n" for t, cell in enumerate(log.cells.tolist()))


def read_event_log(path: str, space: OutcomeSpace | None = None) -> EventLog:
    """Parse an event CSV back into a log.

    Without an explicit space, one is inferred: bins 0..max(x), and the
    observed choice and detection labels in sorted order. Trial indices
    must be strictly increasing; they are normalized to 0..n-1 on ingest.
    """
    xs: list[int] = []
    pairs: dict[tuple[str, str], int] = {}
    pair_codes: list[int] = []
    last_trial = -1
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != EVENT_HEADER:
            raise ValueError(f"expected header {','.join(EVENT_HEADER)!r} in {path}")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"malformed event row {row!r} in {path}")
            trial = int(row[0])
            if trial <= last_trial:
                raise ValueError(f"trial indices must be strictly increasing in {path}")
            last_trial = trial
            xs.append(int(row[1]))
            pair_codes.append(pairs.setdefault((row[2], row[3]), len(pairs)))
    if space is None:
        if not xs:
            raise ValueError(f"no events in {path}; cannot infer an outcome space")
        c_values, d_values = (tuple(sorted(set(labels))) for labels in zip(*pairs))
        space = OutcomeSpace(max(max(xs) + 1, 2), c_values, d_values)
    try:
        x = np.array(xs, dtype=np.intp)
    except OverflowError:
        row, big = next((i, v) for i, v in enumerate(xs, 1) if not _INTP.min <= v <= _INTP.max)
        raise ValueError(f"bin {big} in event row {row} of {path} does not fit an index") from None
    # Checked before encoding: a huge bin would wrap around into a valid cell.
    if x.size and (x.min() < 0 or x.max() >= space.n_x):
        raise InvalidArgument(f"bin index out of range for {space.n_x} bins in {path}")
    offsets = [space.c_index(c) * space.n_d + space.d_index(d) for c, d in pairs]
    return EventLog(space, x * (space.n_c * space.n_d) + np.take(offsets, pair_codes))


# -------------------------------------------------------------- joint tables


def write_joint(joint: JointDistribution, path: str) -> None:
    """CSV of every cell, ``x,c,d,p``, in canonical (x, c, d) order."""
    fields = _cell_fields(joint.space)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(JOINT_HEADER) + "\n")
        for cell_fields, p in zip(fields, joint.p.reshape(-1)):
            fh.write(f"{cell_fields},{_float_repr(p)}\n")


def read_joint(path: str) -> JointDistribution:
    """Parse a joint CSV; label order follows first appearance in the file."""
    cells: dict[tuple[int, str, str], float] = {}
    c_values: list[str] = []
    d_values: list[str] = []
    max_x = -1
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != JOINT_HEADER:
            raise ValueError(f"expected header {','.join(JOINT_HEADER)!r} in {path}")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"malformed joint row {row!r} in {path}")
            x, c, d, p = int(row[0]), row[1], row[2], float(row[3])
            if not 0 <= x <= _INTP.max:
                raise ValueError(f"bin {x} on line {reader.line_num} of {path} is not a valid index")
            if (x, c, d) in cells:
                raise ValueError(f"duplicate cell (x={x}, c={c!r}, d={d!r}) in {path}")
            if x > max_x:
                max_x, max_line = x, reader.line_num
            if c not in c_values:
                c_values.append(c)
            if d not in d_values:
                d_values.append(d)
            cells[x, c, d] = p
    if max_x < 0:
        raise ValueError(f"no cells in {path}")
    space = OutcomeSpace(max(max_x + 1, 2), tuple(c_values), tuple(d_values))
    try:
        table = np.zeros(space.shape)
    except MemoryError:
        raise ValueError(
            f"bin {max_x} on line {max_line} of {path} needs a table of shape "
            f"{space.shape}, too large to allocate"
        ) from None
    for (x, c, d), p in cells.items():
        table[x, space.c_index(c), space.d_index(d)] = p
    return JointDistribution(space, table)


# ------------------------------------------------------------- distributions


def write_distribution(dist, path: str) -> None:
    """CSV ``x,p`` for a single bin distribution (fringe profiles etc.)."""
    arr = np.asarray(dist, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DISTRIBUTION_HEADER)
        for x, p in enumerate(arr):
            writer.writerow([x, _float_repr(p)])


def write_histogram(counts, path: str) -> None:
    """CSV ``x,count`` for integer per-bin event counts."""
    arr = np.asarray(counts)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "count"])
        for x, n in enumerate(arr):
            writer.writerow([x, int(n)])


# ------------------------------------------------------------- audit reports


def audit_report_dict(report: AuditReport, config: Mapping | None = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(report.as_dict())
    if config is not None:
        doc["config"] = dict(config)
    return doc


def write_audit_report(report: AuditReport, path: str, config: Mapping | None = None) -> None:
    write_json(audit_report_dict(report, config), path)


# ------------------------------------------------------- architecture configs


def arch_config_dict(spec: ArchitectureSpec) -> dict:
    if spec.fringe.envelope is not None:
        raise InvalidArgument("only flat-envelope models are serializable as configs")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": spec.kind,
        "n_x": spec.fringe.n_x,
        "fringe_cycles": spec.fringe.cycles,
        "phase0": spec.fringe.phase0,
        "visibility": spec.fringe.visibility,
        "q": spec.q,
    }


def write_arch_config(spec: ArchitectureSpec, path: str) -> None:
    write_json(arch_config_dict(spec), path)


def arch_spec_from_dict(doc: Mapping) -> ArchitectureSpec:
    if "kind" not in doc:
        raise ValueError("architecture config is missing 'kind'")
    model = FringeModel(
        n_x=int(doc.get("n_x", DEFAULT_N_X)),
        cycles=float(doc.get("fringe_cycles", DEFAULT_CYCLES)),
        phase0=float(doc.get("phase0", 0.0)),
        visibility=float(doc.get("visibility", DEFAULT_VISIBILITY)),
    )
    q = doc.get("q")
    return ArchitectureSpec(kind=str(doc["kind"]), fringe=model, q=None if q is None else float(q))


def read_arch_config(path: str) -> ArchitectureSpec:
    return arch_spec_from_dict(read_json(path))


# -------------------------------------------------------- feasibility I/O


def problem_dict(prob: LossFeasibilityProblem) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "q": prob.q,
        "p": prob.p,
        "n_x": prob.n_x,
    }
    if prob.erase_conditional is not None:
        doc["erase_conditional"] = [float(v) for v in prob.erase_conditional]
    if prob.preserve_conditional is not None:
        doc["preserve_conditional"] = [float(v) for v in prob.preserve_conditional]
    return doc


def problem_from_dict(doc: Mapping) -> LossFeasibilityProblem:
    for key in ("q", "p", "n_x"):
        if key not in doc:
            raise ValueError(f"feasibility problem is missing {key!r}")
    erase = doc.get("erase_conditional")
    preserve = doc.get("preserve_conditional")
    return LossFeasibilityProblem(
        q=float(doc["q"]),
        n_x=int(doc["n_x"]),
        p=float(doc["p"]),
        erase_conditional=None if erase is None else np.asarray(erase, dtype=float),
        preserve_conditional=None if preserve is None else np.asarray(preserve, dtype=float),
    )


def read_problem(path: str) -> LossFeasibilityProblem:
    return problem_from_dict(read_json(path))


def joint_table_dict(joint: JointDistribution) -> dict:
    return {
        "n_x": joint.space.n_x,
        "c_values": list(joint.space.c_values),
        "d_values": list(joint.space.d_values),
        "p": [[[float(v) for v in row] for row in plane] for plane in joint.p],
    }


def feasibility_result_dict(
    result: FeasibilityResult,
    problem: LossFeasibilityProblem | None = None,
    config: Mapping | None = None,
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "feasible": result.feasible,
        "binding_constraint": result.binding_constraint,
        "witness": None if result.witness is None else joint_table_dict(result.witness),
    }
    if problem is not None:
        doc["problem"] = problem_dict(problem)
    if config is not None:
        doc["config"] = dict(config)
    return doc


# --------------------------------------------------------------- mask files


def read_mask(path: str) -> RegionMask:
    """Read a region mask: one row of 0/1 text, or a PBM (P1) bitmap.

    PBM pixels are flattened row-major into bins, value 1 meaning inside.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("P1"):
        tokens: list[str] = []
        for line in stripped.splitlines():
            body = line.split("#", 1)[0]
            tokens.extend(body.split())
        if not tokens or tokens[0] != "P1":
            raise ValueError(f"malformed PBM file {path}")
        if len(tokens) < 3:
            raise ValueError(f"PBM file {path} is missing dimensions")
        width, height = int(tokens[1]), int(tokens[2])
        bits = [int(t) for t in tokens[3:]]
        if len(bits) != width * height:
            raise ValueError(
                f"PBM file {path} has {len(bits)} pixels, expected {width * height}"
            )
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"PBM file {path} has non-binary pixels")
        return RegionMask.from_bits(bits)
    row = "".join(text.split())
    if not row or any(ch not in "01" for ch in row):
        raise ValueError(f"mask file {path} must contain only 0 and 1 characters")
    return RegionMask.from_bits(int(ch) for ch in row)
