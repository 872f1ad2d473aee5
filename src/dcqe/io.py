"""File formats: event logs, joint tables, distributions, reports, configs.

All writers are deterministic: fixed header order, ``\\n`` line endings,
shortest round-trip float repr (full precision), and sorted keys in JSON.
JSON documents carry a ``schema_version`` field.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
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
    """Write a JSON document deterministically (sorted keys, full precision).

    A non-finite float raises ``ValueError`` before the file is opened: bare
    ``NaN`` is not JSON.
    """
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- event logs


def _cell_fields(space: OutcomeSpace) -> list[str]:
    """CSV text of each cell's ``x,c,d`` fields, indexed by flat cell.

    Each cell is rendered once by a ``csv.writer``, so every label is quoted
    exactly as it would be within a whole row. The writer ends rows with
    ``\\r\\n``, which makes it quote a label holding either character; the
    terminator is cut off, and the files end rows with ``\\n``.
    """
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    fields = []
    for cell in itertools.product(range(space.n_x), space.c_values, space.d_values):
        buf.seek(0)
        buf.truncate()
        writer.writerow(cell)
        fields.append(buf.getvalue()[:-2])
    return fields


def write_event_log(log: EventLog, path: str) -> None:
    """CSV with header ``trial,x,c,d``; the loss outcome is spelled LOSS."""
    fields = _cell_fields(log.space)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(EVENT_HEADER) + "\n")
        fh.writelines(f"{t},{fields[cell]}\n" for t, cell in enumerate(log.cells.tolist()))


#: Bytes read per block by ``read_event_log``. Its working memory is a small
#: multiple of this (plus the longest record), whatever the file size.
_BLOCK_BYTES = 1 << 18

#: Label tails up to this many 8-byte words are coded in array passes;
#: longer ones are looked up one record at a time.
_TAIL_WORDS = 8

_PAD = bytes(8)
_DIGITS = np.uint64(0x3030303030303030)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)
_LOW_BYTES = np.array([(1 << (8 * i)) - 1 for i in range(9)], dtype=np.uint64)
_POW10 = [np.uint64(10**k) for k in (0, 8, 16)]
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

_BARE_INT = re.compile(rb"-?[0-9]+")
_LABEL = rb'(?:[^",\r\n]*|"(?:[^"]|"")*")'
_LABEL_PAIR = re.compile(_LABEL + b"," + _LABEL)


def _csv_rows(record: bytes) -> list[list[str]]:
    """The rows ``csv.reader`` makes of ``record``, read as from the file."""
    return list(csv.reader(StringIO(record.decode("utf-8"), newline="")))


def _label_pair(tail: bytes) -> tuple[str, str] | None:
    """The ``(c, d)`` labels in a record's tail, or None if malformed.

    The tail must be two RFC 4180 fields: unquoted ones hold no quote, CR
    or LF. Then quote parity and ``csv.reader`` agree on where fields and
    records end, and ``csv.reader`` unquotes the labels as it always has.
    """
    if not _LABEL_PAIR.fullmatch(tail):
        return None
    try:
        ((c, d),) = _csv_rows(tail)
    except (ValueError, csv.Error):
        return None
    return c, d


def _record_blocks(fh):
    """Yield ``(buf, words, starts, ends)`` for each run of whole records.

    ``buf`` is 8 zero bytes, a carried-over partial record, the next block
    of the file, and 8 zero bytes; ``words[i]`` is the little-endian
    uint64 of ``buf[i:i + 8]``. A record ends at a ``\\n`` outside quotes,
    which a running parity of ``"`` bytes tells apart; its span
    ``buf[start:end]`` leaves out the ``\\n`` and one ``\\r`` before it.
    The last record of the file needs no terminator.
    """
    carry = b""
    while True:
        data = fh.read(max(_BLOCK_BYTES, len(carry)))
        if not data and not carry:
            return
        buf = b"".join((_PAD, carry, data, _PAD))
        arr = np.frombuffer(buf, dtype=np.uint8)
        if data:
            ends = np.flatnonzero(arr == ord("\n"))
            quotes = np.flatnonzero(arr == ord('"'))
            if quotes.size:
                ends = ends[np.searchsorted(quotes, ends) % 2 == 0]
            if not ends.size:
                carry = buf[len(_PAD):-len(_PAD)]
                continue
            carry = buf[ends[-1] + 1:-len(_PAD)]
        else:
            ends = np.array([len(buf) - len(_PAD)])
        starts = np.concatenate(([len(_PAD)], ends[:-1] + 1))
        ends = ends - ((arr[ends - 1] == ord("\r")) & (ends > starts))
        words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
        yield buf, words, starts, ends
        if not data:
            return


def _decode_ints(buf, words, starts, stops):
    """Decode fields ``buf[start:stop]`` of the form ``-?[0-9]+``.

    Digits are read 8 at a time from the right: each 8-byte word is
    left-filled with ``0`` characters, checked to hold only digits, and
    turned into its value by three multiply-shift-mask steps. Fields of 19
    digits or more are parsed by ``int``. Returns the int64 values, a mask
    of well-formed fields, and ``{index: value}`` for well-formed fields
    beyond int64 (stored as 0 in the values).
    """
    neg = (words[starts] & 0xFF) == ord("-")
    first = starts + neg
    n_digits = stops - first
    ok = n_digits > 0
    value = np.zeros(starts.size, dtype=np.uint64)
    for lane in range(min(-(-int(n_digits.max(initial=0)) // 8), 3)):
        top = stops - 8 * lane
        keep = ~_LOW_BYTES[8 - np.minimum(np.maximum(top - first, 0), 8)]
        w = (words[np.maximum(top - 8, 0)] & keep) | (_DIGITS & ~keep)
        # each byte is 0x30..0x39: its high nibble is 3, and still 3 after adding 6
        ok &= ((w & _HIGH_NIBBLES) == _DIGITS) & (((w + _SIXES) & _HIGH_NIBBLES) == _DIGITS)
        w -= _DIGITS
        w = (w * np.uint64(10 * 256 + 1) >> np.uint64(8)) & np.uint64(0x00FF00FF00FF00FF)
        w = (w * np.uint64(100 * 65536 + 1) >> np.uint64(16)) & np.uint64(0x0000FFFF0000FFFF)
        w = w * np.uint64(10000 * 2**32 + 1) >> np.uint64(32)
        value += w * _POW10[lane]
    signed = value.astype(np.int64)
    np.negative(signed, out=signed, where=neg)
    big = {}
    for i in np.flatnonzero(ok & (n_digits > 18)).tolist():
        field = buf[starts[i]:stops[i]]
        ok[i] = bool(_BARE_INT.fullmatch(field))
        if ok[i]:
            v = int(field)
            if _INTP.min <= v <= _INTP.max:
                signed[i] = v
            else:
                signed[i] = 0
                big[i] = v
    return signed, ok, big


class _LabelCodes:
    """Pair codes for ``c,d`` tails, each distinct tail decoded once.

    Tails of up to ``_TAIL_WORDS`` words are matched in array passes: a
    tail's key is a multiplicative hash of its length and its words, looked
    up in a sorted table and confirmed by comparing length and words, so a
    hash collision falls back to the exact per-record lookup.
    """

    def __init__(self):
        self.pairs: dict[tuple[str, str], int] = {}
        self._by_tail: dict[bytes, int] = {}
        self._keys = np.zeros(1, dtype=np.uint64)
        self._lengths = np.full(1, -1)
        self._words = np.zeros((_TAIL_WORDS, 1), dtype=np.uint64)
        self._codes = np.full(1, -1, dtype=np.int32)

    def code(self, tail: bytes) -> int:
        """The pair code of one tail; -1 if it is not two labels."""
        code = self._by_tail.get(tail)
        if code is None:
            pair = _label_pair(tail)
            code = -1 if pair is None else self.pairs.setdefault(pair, len(self.pairs))
            self._by_tail[tail] = code
        return code

    def codes(self, buf, words, starts, stops) -> np.ndarray:
        """Pair codes of the tails ``buf[start:stop]``; -1 marks malformed ones."""
        lengths = stops - starts
        key = lengths.astype(np.uint64)
        columns = []
        for j in range(min(-(-int(lengths.max(initial=0)) // 8), _TAIL_WORDS)):
            left = np.minimum(np.maximum(lengths - 8 * j, 0), 8)
            columns.append(words[np.minimum(starts + 8 * j, stops)] & _LOW_BYTES[left])
            key = key * _HASH_MULTIPLIER + columns[j]
        slot = np.minimum(np.searchsorted(self._keys, key), self._keys.size - 1)
        known = self._keys[slot] == key
        hit = known & (self._lengths[slot] == lengths)
        for j, column in enumerate(columns):
            hit &= self._words[j][slot] == column
        codes = self._codes[slot]
        new = {}
        for i in np.flatnonzero(~hit).tolist():
            codes[i] = self.code(buf[starts[i]:stops[i]])
            if not known[i] and lengths[i] <= 8 * _TAIL_WORDS:
                new.setdefault(int(key[i]), i)
        if new:
            rows = list(new.values())
            entry_words = np.zeros((_TAIL_WORDS, len(rows)), dtype=np.uint64)
            for j, column in enumerate(columns):
                entry_words[j] = column[rows]
            keys = np.concatenate((self._keys, key[rows]))
            order = np.argsort(keys, kind="stable")
            self._keys = keys[order]
            self._lengths = np.concatenate((self._lengths, lengths[rows]))[order]
            self._words = np.concatenate((self._words, entry_words), axis=1)[:, order]
            self._codes = np.concatenate((self._codes, codes[rows]))[order]
        return codes


def _is_event_header(record: bytes) -> bool:
    try:
        rows = _csv_rows(record)
    except csv.Error:
        return False
    return len(rows) == 1 and [h.strip() for h in rows[0]] == EVENT_HEADER


def _row_error(record: bytes, row: int, last_trial: int, path) -> ValueError:
    """The error for a malformed event record, checked as the fields are read."""
    where = f"event row {row} of {path}"
    try:
        rows = _csv_rows(record)
    except (ValueError, csv.Error) as exc:
        return ValueError(f"{where}: {exc}")
    if len(rows) != 1:
        return ValueError(f"{where} is not one CSV record: {record!r}")
    if len(rows[0]) != 4:
        return ValueError(f"malformed event row {rows[0]!r} in {path}")
    trial, x, tail = record.split(b",", 2)
    if not _BARE_INT.fullmatch(trial):
        return ValueError(f"trial {trial!r} in {where} is not a bare decimal integer")
    if not _INTP.min <= int(trial) <= _INTP.max:
        return ValueError(f"trial {int(trial)} in {where} does not fit an index")
    if int(trial) <= last_trial:
        return ValueError(f"trial indices must be strictly increasing in {path}")
    if not _BARE_INT.fullmatch(x):
        return ValueError(f"bin {x!r} in {where} is not a bare decimal integer")
    return ValueError(f"labels {tail!r} in {where} are not two RFC 4180 fields")


def read_event_log(path: str, space: OutcomeSpace | None = None) -> EventLog:
    """Parse an event CSV back into a log.

    Without an explicit space, one is inferred: bins 0..max(x), and the
    observed choice and detection labels in sorted order. Trial indices
    must be strictly increasing; they are normalized to 0..n-1 on ingest.

    The file is parsed in blocks of ``_BLOCK_BYTES`` by array operations
    (records in ``_record_blocks``, integers in ``_decode_ints``, labels
    in ``_LabelCodes``); the first malformed record is named in the error.
    """
    label_codes = _LabelCodes()
    xs: list[np.ndarray] = []
    pair_codes: list[np.ndarray] = []
    header_ok = None
    last_trial = -1
    n_rows = 0
    beyond_index = None
    with open(path, "rb") as fh:
        for buf, words, starts, ends in _record_blocks(fh):
            if header_ok is None:
                header_ok = _is_event_header(buf[starts[0]:ends[0]])
                if not header_ok:
                    break
                starts, ends = starts[1:], ends[1:]
            filled = ends > starts
            starts, ends = starts[filled], ends[filled]
            commas = np.flatnonzero(np.frombuffer(buf, dtype=np.uint8) == ord(","))
            first = np.searchsorted(commas, starts)
            commas = np.append(commas, [len(buf), len(buf)])
            second = np.minimum(commas[first + 1], ends)
            first = np.minimum(commas[first], second)
            trial, trial_ok, trial_beyond = _decode_ints(buf, words, starts, first)
            x, x_ok, x_beyond = _decode_ints(buf, words, np.minimum(first + 1, second), second)
            codes = label_codes.codes(buf, words, np.minimum(second + 1, ends), ends)
            bad = ~trial_ok | ~x_ok | (codes < 0) | (second == ends)
            bad[list(trial_beyond)] = True
            bad |= trial <= np.concatenate(([last_trial], trial[:-1]))
            if bad.any():
                i = int(np.argmax(bad))
                prev = int(trial[i - 1]) if i else last_trial
                raise _row_error(buf[starts[i]:ends[i]], n_rows + i + 1, prev, path)
            if x_beyond and beyond_index is None:
                i = min(x_beyond)
                beyond_index = (n_rows + i + 1, x_beyond[i])
            if trial.size:
                last_trial = int(trial[-1])
            n_rows += trial.size
            xs.append(x)
            pair_codes.append(codes)
    if not header_ok:
        raise ValueError(f"expected header {','.join(EVENT_HEADER)!r} in {path}")
    x = np.concatenate(xs) if xs else np.zeros(0, dtype=np.int64)
    del xs
    inferred = space is None
    if inferred:
        if not x.size:
            raise ValueError(f"no events in {path}; cannot infer an outcome space")
        c_values, d_values = (tuple(sorted(set(axis))) for axis in zip(*label_codes.pairs))
        space = OutcomeSpace(max(int(x.max()) + 1, 2), c_values, d_values)
    if beyond_index is not None:
        row, big = beyond_index
        raise ValueError(f"bin {big} in event row {row} of {path} does not fit an index")
    if inferred:
        try:
            # the count table that ``EventLog.counts`` will fill
            np.zeros(space.shape, dtype=np.intp)
        except (MemoryError, ValueError):
            raise ValueError(
                f"bin {int(x.max())} in event row {int(x.argmax()) + 1} of {path} needs a "
                f"table of shape {space.shape}, too large to allocate"
            ) from None
    # Checked before encoding: a huge bin would wrap around into a valid cell.
    if x.size and (x.min() < 0 or x.max() >= space.n_x):
        raise InvalidArgument(f"bin index out of range for {space.n_x} bins in {path}")
    offsets = np.array(
        [space.c_index(c) * space.n_d + space.d_index(d) for c, d in label_codes.pairs],
        dtype=np.intp,
    )
    x *= space.n_c * space.n_d
    if pair_codes:
        x += offsets[np.concatenate(pair_codes)]
    return EventLog(space, x)


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
            if not math.isfinite(p):
                raise ValueError(f"non-finite probability {row[3]!r} on line {reader.line_num} of {path}")
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
    except (MemoryError, ValueError):
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


def _integer(doc: Mapping, key: str, default=None) -> int:
    """``doc[key]`` as an int; a number with a fractional part is refused."""
    value = doc.get(key, default)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def arch_spec_from_dict(doc: Mapping) -> ArchitectureSpec:
    if "kind" not in doc:
        raise ValueError("architecture config is missing 'kind'")
    model = FringeModel(
        n_x=_integer(doc, "n_x", DEFAULT_N_X),
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
        n_x=_integer(doc, "n_x"),
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
        if width < 1 or height < 1:
            raise ValueError(
                f"PBM file {path} has dimensions {width} x {height}; both must be at least 1"
            )
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
