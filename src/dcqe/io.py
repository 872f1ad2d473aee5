"""File formats: event logs, joint tables, distributions, reports, configs.

All writers are deterministic: fixed header order, ``\\n`` line endings,
shortest round-trip float repr (full precision), and sorted keys in JSON.
JSON documents carry a ``schema_version`` field.

Every writer encodes what can fail to encode (its labels, a non-finite JSON
number) before it touches the path, so an encoding error leaves an existing
file as it was. Then it removes any file at the path and creates a new one
(``_new_file``) instead of truncating the old one: on ext4, closing a
truncated and rewritten file flushes it to disk, and the next write waits
for that flush. So a symlink or hard link at the path is replaced, not
written through; the new file gets default permissions, not the old
file's; and writing needs write permission on the directory.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from io import StringIO
from typing import Mapping

import numpy as np

from .architectures import (
    DEFAULT_CYCLES,
    DEFAULT_N_X,
    DEFAULT_VISIBILITY,
    ArchitectureSpec,
    FringeModel,
)
from .audit import AuditReport
from .errors import InvalidArgument
from .events import EventLog, cell_dtype, estimate_from_events
from .feasibility import FeasibilityResult, LossFeasibilityProblem
from .joint import JointDistribution, OutcomeSpace

SCHEMA_VERSION = 1

EVENT_HEADER = ["trial", "x", "c", "d"]
JOINT_HEADER = ["x", "c", "d", "p"]

_INTP = np.iinfo(np.intp)


def _new_file(path: str):
    """``path`` opened for binary writing as a new file, once any file there is removed.

    ``"xb"`` refuses a file that appears at the path in between, rather than
    write through it.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "xb")


def write_json(obj, path: str) -> None:
    """Write a JSON document deterministically (sorted keys, full precision).

    A non-finite float raises ``ValueError`` before any file is touched: bare
    ``NaN`` is not JSON.
    """
    data = (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")
    with _new_file(path) as fh:
        fh.write(data)


def _text(path: str) -> str:
    """The file's text, decoded from UTF-8; a byte that will not decode names its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line} of {path} is not UTF-8: {exc}") from None


def read_json(path: str) -> dict:
    """Read a JSON object; a syntax error, anything but an object, a duplicate key, or a
    ``NaN``, ``Infinity`` or overflowing float literal is refused, naming the file."""

    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ValueError(f"duplicate key {key!r} in {path}")
            doc[key] = value
        return doc

    def real(literal):
        if not math.isfinite(value := float(literal)):
            raise ValueError(f"{literal} in {path} is not a finite JSON number")
        return value

    text = _text(path)
    try:
        doc = json.loads(text, object_pairs_hook=unique, parse_constant=real, parse_float=real)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object in {path}, got {type(doc).__name__}")
    return doc


# ---------------------------------------------------------------- event logs


def _cell_fields(space: OutcomeSpace, cells) -> list[str]:
    """CSV text of the ``x,c,d`` fields of each flat cell in ``cells``.

    Each cell is rendered once by a ``csv.writer``, so every label is quoted
    exactly as it would be within a whole row. The writer ends rows with
    ``\\r\\n``, which makes it quote a label holding either character; the
    terminator is cut off, and the files end rows with ``\\n``.
    """
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    per_x = space.n_c * space.n_d
    fields = []
    for cell in cells:
        x, rest = divmod(cell, per_x)
        buf.seek(0)
        buf.truncate()
        writer.writerow((x, space.c_values[rest // space.n_d], space.d_values[rest % space.n_d]))
        fields.append(buf.getvalue()[:-2])
    return fields


#: ``write_event_log`` renders blocks of ``10 ** _LOW_DIGITS`` trials that
#: start at multiples of that size, so a block's trials differ only in their
#: last ``_LOW_DIGITS`` digits.
_LOW_DIGITS = 4

#: Filler between the fields of a rendered row; UTF-8 never holds this byte.
_GAP = 0xFF


def write_event_log(log: EventLog, path: str) -> None:
    """CSV with header ``trial,x,c,d``; the loss outcome is spelled LOSS.

    Rows are rendered an aligned block at a time into one structured array
    whose rows hold three byte fields: the leading trial digits, the same on
    every row of the block; the last ``_LOW_DIGITS`` digits, from a table;
    and the cell's ``,x,c,d\\n`` bytes, from a per-cell table padded with
    ``_GAP``. Leading zeros of the first block are ``_GAP`` too, and every
    ``_GAP`` is dropped before the block is written. A log with fewer events
    than its space has cells renders only the cells it holds.
    """
    cells = log.cells
    table_cells = range(math.prod(log.space.shape))
    if 0 < cells.size < len(table_cells):
        table_cells, cells = np.unique(cells, return_inverse=True)
        table_cells = table_cells.tolist()
    encoded = [f",{field}\n".encode("utf-8") for field in _cell_fields(log.space, table_cells)]
    width = max(map(len, encoded))
    tails = np.array([b.ljust(width, bytes([_GAP])) for b in encoded], dtype=f"S{width}")
    size = 10**_LOW_DIGITS
    trials = np.arange(size)[:, None]
    low = (trials // 10 ** np.arange(_LOW_DIGITS - 1, -1, -1) % 10 + ord("0")).astype(np.uint8)
    first_low = low.copy()
    # the last digit is always shown, so 0 prints as "0"
    first_low[:, :-1][trials < 10 ** np.arange(_LOW_DIGITS - 1, 0, -1)] = _GAP
    low, first_low = (table.view(f"S{_LOW_DIGITS}").reshape(-1) for table in (low, first_low))
    n = len(log)
    with _new_file(path) as fh:
        fh.write(",".join(EVENT_HEADER).encode() + b"\n")
        for start in range(0, n, size):
            lead = str(start // size).encode() if start else bytes([_GAP])
            block = np.empty(
                min(size, n - start),
                dtype=[("lead", f"S{len(lead)}"), ("low", low.dtype), ("tail", tails.dtype)],
            )
            block["lead"] = lead
            block["low"] = (low if start else first_low)[:block.size]
            block["tail"] = tails[cells[start:start + block.size]]
            flat = block.view(np.uint8)
            fh.write(flat[flat != _GAP])


#: Bytes read per block by ``read_event_log``. Apart from the log it returns
#: and about 2 bytes per event of compact bins and pair codes, its working
#: memory is a small multiple of this (plus the longest record).
_BLOCK_BYTES = 1 << 18

#: Label tails up to this many 8-byte words are coded in array passes;
#: longer ones are looked up one record at a time.
_TAIL_WORDS = 8
#: A label tail's slot is the top this many bits of its key.
_SLOT_BITS = 12

_PAD = bytes(8)
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

#: The separators of a record that is three commas and a newline, read as
#: one little-endian uint32.
_PLAIN_RECORD = np.frombuffer(b",,,\n", dtype="<u4")[0]

#: ``_LOW_BYTES[n]`` keeps the low ``n`` bytes of a word, ``_HIGH_BYTES[n]``
#: its high ``n`` bytes, and ``_ZERO_FILL[n]`` is "0" in the bytes below those.
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_HIGH_BYTES = ~_LOW_BYTES[::-1]
_ZERO_FILL = np.array([0x3030303030303030 >> 8 * n for n in range(9)], dtype=np.uint64)
#: A word at an offset ``r`` bytes past alignment joins two aligned words by
#: a shift by ``8 * r`` and a product by ``2 ** (64 - 8 * r)`` modulo 2**64,
#: as a shift by 64 is not defined for every numpy.
_SHIFTS = np.array([8 * r for r in range(8)], dtype=np.uint64)
_SCALES = np.array([0] + [1 << (64 - 8 * r) for r in range(1, 8)], dtype=np.uint64)
#: Eight digits, one per byte and the first lowest, become a number in three
#: steps; step m puts ``10**m * high + low`` in the low half of each lane of
#: ``2 * m`` bytes and clears the high half.
_COMBINE = [
    (np.uint64(10**m << 8 * m | 1), np.uint64(8 * m), np.uint64(mask))
    for m, mask in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF))
]

_BARE_INT = re.compile(rb"-?[0-9]+")
_DECIMAL = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")
_LABEL = rb'(?:[^",\r\n\x00]*|"(?:[^"\x00]|"")*")'
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


def _words_at(words, at, count: int) -> list[np.ndarray]:
    """The little-endian uint64 of the 8 bytes at ``at + 8 * j`` for each
    ``j < count``, from ``words``, the aligned words of a block.

    Each is the high bytes of one aligned word and the low bytes of the
    next; an unaligned gather costs several times as much. An offset below
    0 reads bytes from the block's far end, which the caller masks off.
    """
    index, r = at >> 3, at & 7
    shift, scale = _SHIFTS[r], _SCALES[r]
    low = words[index]
    out = []
    for j in range(1, count + 1):
        high = words[j:][index]
        out.append((low >> shift) | (high * scale))
        low = high
    return out


def _records(arr, last: bool, zeros: int):
    """``(starts, ends, first, second, rest)`` of the records in ``arr``, a padded block.

    One scan for bytes up to ``,`` finds every newline, quote and comma. A
    newline outside quotes, which a running parity of ``"`` bytes tells
    apart, ends a record; so does the first of the ``zeros`` trailing zero
    bytes of the ``last`` block. A record's span ``arr[start:end]`` leaves
    out its ``\\n`` and one ``\\r`` before it; ``first`` and ``second`` are
    its first and second comma, or its end. The records end where the bytes
    ``arr[rest:]`` that are carried over begin. None if no record ends.

    When the scan's first ``4 * n`` hits, ``n`` > 0 being its newlines, are
    three commas and a newline each, as ``write_event_log`` writes records,
    no record before the last newline holds a quote, CR, blank line or other
    byte up to ``,``, and the records are read off the scan as it stands.
    Every other block takes the parity path; so does the ``last``, which
    holds no newline outside quotes.
    """
    hits = np.flatnonzero(arr <= ord(","))[len(_PAD):]  # less the leading zero bytes
    kind = arr[hits]
    is_end = kind == ord("\n")
    n = int(np.count_nonzero(is_end))
    if 0 < 4 * n <= kind.size and (kind[:4 * n].view("<u4") == _PLAIN_RECORD).all():
        first, second, _, ends = hits[:4 * n].reshape(n, 4).T
        return np.concatenate(([len(_PAD)], ends[:-1] + 1)), ends, first, second, ends[-1] + 1
    quotes = kind == ord('"')
    if quotes.any():
        is_end &= ~np.logical_xor.accumulate(quotes)
    if last:
        is_end[-zeros] = True
    # every record's commas, then its terminator; the trailing zeros close the list
    is_sep = is_end | (kind == ord(","))
    is_sep[-zeros:] = True
    seps = hits[is_sep]
    terminators = np.flatnonzero(is_end[is_sep])
    if not terminators.size:
        return None
    ends = seps[terminators]
    rest = ends[-1] + 1
    after = np.concatenate(([0], terminators[:-1] + 1))
    starts = np.concatenate(([len(_PAD)], ends[:-1] + 1))
    ends = ends - ((arr[ends - 1] == ord("\r")) & (ends > starts))
    second = np.minimum(seps[after + 1], ends)
    return starts, ends, np.minimum(seps[after], second), second, rest


def _record_blocks(fh):
    """Yield ``(buf, words, starts, ends, first, second)`` for each run of whole records.

    ``buf`` is 8 zero bytes, a carried-over partial record, the next block
    of the file, and enough zero bytes that ``words``, its little-endian
    uint64 view, covers it and ``_TAIL_WORDS`` words past any record. The
    records are as ``_records`` finds them; the last record of the file
    needs no terminator.
    """
    carry = b""
    while True:
        data = fh.read(max(_BLOCK_BYTES, len(carry)))
        if not data and not carry:
            return
        zeros = len(_PAD) * (_TAIL_WORDS + 1) + (-(len(carry) + len(data))) % 8
        buf = b"".join((_PAD, carry, data, bytes(zeros)))
        found = _records(np.frombuffer(buf, dtype=np.uint8), not data, zeros)
        if found is None:
            carry = buf[len(_PAD):-zeros]
            continue
        *records, rest = found
        carry = buf[rest:-zeros]
        yield (buf, np.frombuffer(buf, dtype="<u8"), *records)
        if not data:
            return


def _int64(field: bytes) -> int | None:
    """A ``-?[0-9]+`` field as an int, or None outside int64: told by its digit
    count, leading zeros aside, as ``int`` refuses fields past Python's limit."""
    digits = field.lstrip(b"-").lstrip(b"0")
    if len(digits) > 19:
        return None
    value = -int(digits or b"0") if field.startswith(b"-") else int(digits or b"0")
    return value if _INTP.min <= value <= _INTP.max else None


def _decode_ints(buf, words, starts, stops):
    """Decode fields ``buf[start:stop]`` of the form ``-?[0-9]+``.

    Fields are right-aligned and read eight digits at a time, with
    ``words`` the aligned words of ``buf``: pass k takes the word that ends
    ``8 * k`` bytes before each field's end, sets its bytes before the
    field's digits to ``"0"``, checks that every byte is a digit, and adds
    it as an eight-digit number, combined from its digits in three
    multiplies (``_COMBINE``). Fields of 19 digits or more are parsed by
    ``_int64``. Returns the int64 values and a mask of the fields that are
    well formed and fit int64.
    """
    neg = np.frombuffer(buf, dtype=np.uint8)[starts] == ord("-")
    n_digits = stops - starts - neg
    ok = n_digits > 0
    signed = np.zeros(starts.size, dtype=np.uint64)
    longest = int(n_digits.max(initial=0))
    for k in range(-(-min(longest, 18) // 8)):
        (word,) = _words_at(words, stops - 8 * (k + 1), 1)
        # a field has min(max(digits, 0), 8) digits in this word
        digits = n_digits - 8 * k if k else n_digits
        word &= np.take(_HIGH_BYTES, digits, mode="clip")
        word |= np.take(_ZERO_FILL, digits, mode="clip")
        # every byte less "0" is a digit exactly when it is below 10: when
        # neither it nor it plus 0x76 has its high bit set
        word -= _ZERO_FILL[0]
        ok &= ((word + np.uint64(0x7676767676767676)) | word) & np.uint64(0x8080808080808080) == 0
        for multiplier, shift, mask in _COMBINE:
            word *= multiplier
            word >>= shift
            word &= mask
        if k:
            word *= np.uint64(10 ** (8 * k))
        signed += word
    signed = signed.view(np.int64)
    np.negative(signed, out=signed, where=neg)
    if longest > 18:
        for i in np.flatnonzero(ok & (n_digits > 18)).tolist():
            field = buf[starts[i]:stops[i]]
            value = _int64(field) if _BARE_INT.fullmatch(field) else None
            ok[i] = value is not None
            if ok[i]:
                signed[i] = value
    return signed, ok


class _LabelCodes:
    """Pair codes for ``c,d`` tails, each distinct tail decoded once.

    A block's tails are coded in array passes: a tail's key is a
    multiplicative hash of its length and its first ``_TAIL_WORDS`` words,
    and a record stands for each of the ``2 ** _SLOT_BITS`` slots, one per
    top ``_SLOT_BITS`` bits of the key. A record whose length and words are
    its slot's record's takes that record's code. Any other, in a slot
    shared with another tail or too long for its words, is looked up one
    record at a time by ``code``.
    """

    def __init__(self):
        self.pairs: dict[tuple[str, str], int] = {}
        self._by_tail: dict[bytes, int] = {}

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
        longest = int(lengths.max(initial=0))
        columns = _words_at(words, starts, min(-(-longest // 8), _TAIL_WORDS))
        shortest = int(lengths.min(initial=0))
        key = lengths.astype(np.uint64)
        for j, column in enumerate(columns):
            # word j holds up to 8 of the tail's bytes and none past it
            if 8 * (j + 1) > shortest:
                column &= np.take(_LOW_BYTES, lengths - 8 * j, mode="clip")
            # each word, the last too, is multiplied up into the slot's top bits
            key = (key + column) * _HASH_MULTIPLIER
        slot = (key >> np.uint64(64 - _SLOT_BITS)).astype(np.intp)
        stand_in = np.full(1 << _SLOT_BITS, -1, dtype=np.intp)
        # any one record stands for its slot
        stand_in[slot] = np.arange(slot.size)
        used = np.flatnonzero(stand_in >= 0)
        table = np.zeros(1 << _SLOT_BITS, dtype=np.int32)
        table[used] = [self.code(buf[starts[i]:stops[i]]) for i in stand_in[used].tolist()]
        codes = table[slot]
        stand_in = stand_in[slot]
        # a tail too long for its words is looked up on its own, below
        hit = lengths <= 8 * _TAIL_WORDS
        hit &= lengths == lengths[stand_in]
        for column in columns:
            hit &= column == column[stand_in]
        # what misses shares its slot with another tail or is too long for its words
        for i in np.flatnonzero(~hit).tolist():
            codes[i] = self.code(buf[starts[i]:stops[i]])
        return codes


def _header(record: bytes) -> list[str] | None:
    """A header record's stripped fields; None if it will not decode or is not one record."""
    try:
        rows = _csv_rows(record)
    except (ValueError, csv.Error):
        return None
    return [h.strip() for h in rows[0]] if len(rows) == 1 else None


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
    index = _int64(trial)
    if index is None:
        return ValueError(f"trial {trial.decode()} in {where} does not fit an index")
    if index <= last_trial:
        return ValueError(f"trial indices must be strictly increasing in {path}")
    if not _BARE_INT.fullmatch(x):
        return ValueError(f"bin {x!r} in {where} is not a bare decimal integer")
    x_index = _int64(x)
    if x_index is None or x_index < 0:
        return ValueError(f"bin {x.decode()} in {where} is not a valid index")
    return ValueError(f"labels {tail!r} in {where} are not two RFC 4180 fields")


def _zero_table(max_x: int, where: str, c_values, d_values) -> tuple[OutcomeSpace, np.ndarray]:
    """The space of bins 0..max_x with these labels, and a zero table over it;
    a table too large to allocate names the bin and ``where`` it was read."""
    space = OutcomeSpace(max(max_x + 1, 2), tuple(c_values), tuple(d_values))
    try:
        return space, np.zeros(space.shape)
    except (MemoryError, ValueError):
        raise ValueError(
            f"bin {max_x} {where} needs a table of shape {space.shape}, too large to allocate"
        ) from None


def read_event_log(path: str) -> EventLog:
    """Parse an event CSV back into a log.

    The outcome space comes from the events: bins 0..max(x), and the
    observed choice and detection labels in sorted order. Trial indices must
    be strictly increasing; they are normalized to 0..n-1 on ingest.

    The file is parsed in blocks of ``_BLOCK_BYTES`` by array operations
    (records in ``_record_blocks``, integers in ``_decode_ints``, labels
    in ``_LabelCodes``); the first malformed record is named in the error.
    Each block's bins and pair codes are kept in the least unsigned dtype
    that holds them, and the cells are filled block by block from them in
    the log's own dtype.
    """
    label_codes = _LabelCodes()
    xs: list[np.ndarray] = []
    pair_codes: list[np.ndarray] = []
    header_ok = None
    last_trial = -1
    n_rows = 0
    # the largest bin and the first row that holds it
    max_x, max_row = -1, 0
    with open(path, "rb") as fh:
        for buf, words, starts, ends, first, second in _record_blocks(fh):
            if header_ok is None:
                header_ok = _header(buf[starts[0]:ends[0]]) == EVENT_HEADER
                if not header_ok:
                    break
                starts, ends, first, second = starts[1:], ends[1:], first[1:], second[1:]
            filled = ends > starts
            if not filled.all():
                starts, ends, first, second = (a[filled] for a in (starts, ends, first, second))
            trial, trial_ok = _decode_ints(buf, words, starts, first)
            x, x_ok = _decode_ints(buf, words, np.minimum(first + 1, second), second)
            codes = label_codes.codes(buf, words, np.minimum(second + 1, ends), ends)
            bad = ~trial_ok | ~x_ok | (x < 0) | (codes < 0) | (second == ends)
            bad |= trial <= np.concatenate(([last_trial], trial[:-1]))
            if bad.any():
                i = int(np.argmax(bad))
                prev = int(trial[i - 1]) if i else last_trial
                raise _row_error(buf[starts[i]:ends[i]], n_rows + i + 1, prev, path)
            if trial.size:
                last_trial = int(trial[-1])
            top = int(x.max(initial=-1))
            if top > max_x:
                max_x, max_row = top, n_rows + int(x.argmax())
            n_rows += trial.size
            # kept compact: every bin is >= 0 and every code < len(pairs)
            xs.append(x.astype(np.min_scalar_type(max(top, 0))))
            pair_codes.append(codes.astype(np.min_scalar_type(max(len(label_codes.pairs) - 1, 0))))
    if not header_ok:
        raise ValueError(f"expected header {','.join(EVENT_HEADER)!r} in {path}")
    if not n_rows:
        raise ValueError(f"no events in {path}; cannot infer an outcome space")
    c_values, d_values = (sorted(set(axis)) for axis in zip(*label_codes.pairs))
    # probes the table ``EventLog.counts`` fills; that it fits means every
    # cell, and each step toward it below, fits the cell dtype
    space, _ = _zero_table(max_x, f"in event row {max_row + 1} of {path}", c_values, d_values)
    dtype = cell_dtype(math.prod(space.shape))
    offsets = np.array(
        [space.c_index(c) * space.n_d + space.d_index(d) for c, d in label_codes.pairs],
        dtype=dtype,
    )
    stride = dtype.type(space.n_c * space.n_d)
    cells = np.empty(n_rows, dtype)
    start = 0
    for x, codes in zip(xs, pair_codes):
        block = cells[start:start + x.size]
        np.multiply(x, stride, out=block, dtype=dtype, casting="unsafe")
        block += offsets.take(codes)
        start += x.size
    cells.setflags(write=False)
    return EventLog(space, cells)


# -------------------------------------------------------------- joint tables


def write_joint(joint: JointDistribution, path: str) -> None:
    """CSV of every cell, ``x,c,d,p``, in canonical (x, c, d) order.

    The whole table is encoded first, so a label that UTF-8 cannot encode
    raises ``UnicodeEncodeError`` and leaves the path as it was.
    """
    cells = zip(_cell_fields(joint.space, range(joint.p.size)), joint.p.reshape(-1).tolist())
    rows = [",".join(JOINT_HEADER)] + [f"{fields},{p!r}" for fields, p in cells]
    data = "\n".join(rows + [""]).encode("utf-8")
    with _new_file(path) as fh:
        fh.write(data)


def _csv_lines(text: str, path):
    """``(line, row)`` for each record ``csv.reader`` reads from ``text``;
    a record it cannot read, such as a field past ``csv.field_size_limit()``,
    raises ValueError naming its line."""
    reader = csv.reader(StringIO(text, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        where = f"on line {reader.line_num} of {path}"
        raise ValueError(f"unreadable CSV record {where}: {exc}") from None


def read_joint(path: str) -> JointDistribution:
    """Parse a joint CSV; label order follows first appearance in the file."""
    cells: dict[tuple[int, str, str], float] = {}
    c_values: list[str] = []
    d_values: list[str] = []
    max_x = -1
    lines = _csv_lines(_text(path), path)
    _, header = next(lines, (1, []))
    if [h.strip() for h in header] != JOINT_HEADER:
        raise ValueError(f"expected header {','.join(JOINT_HEADER)!r} in {path}")
    for line, row in lines:
        if not row:
            continue
        where = f"on line {line} of {path}"
        if len(row) != 4:
            raise ValueError(f"malformed joint row {row!r} {where}")
        if not _BARE_INT.fullmatch(row[0].encode()):
            raise ValueError(f"bin {row[0]!r} {where} is not a bare decimal integer")
        x, c, d = _int64(row[0].encode()), row[1], row[2]
        if "\x00" in c + d:
            raise ValueError(f"a label {where} holds NUL")
        try:
            p = float(row[3])
        except ValueError:
            p = None
        # float() also takes "5_0" and padding; nan and inf are named below
        if p is None or math.isfinite(p) and not _DECIMAL.fullmatch(row[3]):
            raise ValueError(f"probability {row[3]!r} {where} is not a number")
        if x is None or x < 0:
            raise ValueError(f"bin {row[0]} {where} is not a valid index")
        if not math.isfinite(p):
            raise ValueError(f"non-finite probability {row[3]!r} {where}")
        if (x, c, d) in cells:
            raise ValueError(f"duplicate cell (x={x}, c={c!r}, d={d!r}) in {path}")
        if x > max_x:
            max_x, max_where = x, where
        if c not in c_values:
            c_values.append(c)
        if d not in d_values:
            d_values.append(d)
        cells[x, c, d] = p
    if max_x < 0:
        raise ValueError(f"no cells in {path}")
    space, table = _zero_table(max_x, max_where, c_values, d_values)
    for (x, c, d), p in cells.items():
        table[x, space.c_index(c), space.d_index(d)] = p
    return JointDistribution(space, table)


def read_table(path: str) -> JointDistribution:
    """The (empirical) table of a joint or event-log CSV, told apart by its first line."""
    with open(path, "rb") as fh:
        # a line may end at a bare CR too, as csv.reader reads a joint CSV
        first = next(iter(fh.readline().splitlines()), b"")
    header = _header(first)
    if header == EVENT_HEADER:
        return estimate_from_events(read_event_log(path))
    if header == JOINT_HEADER:
        return read_joint(path)
    raise ValueError(f"unrecognized input header {first.decode(errors='replace')!r} in {path}")


# ------------------------------------------------------------- distributions


def write_column(values, name: str, path: str) -> None:
    """CSV ``x,<name>`` of one value per bin: a fringe profile's floats in
    shortest round-trip repr, or a histogram's integer counts."""
    rows = [f"x,{name}"] + [f"{x},{v!r}" for x, v in enumerate(np.asarray(values).tolist())]
    data = ("\n".join(rows) + "\n").encode("utf-8")
    with _new_file(path) as fh:
        fh.write(data)


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


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(doc: Mapping, key: str, default=None) -> int:
    """``doc[key]`` as an int; a fraction, a non-number or a non-int64 names the key."""
    value = doc.get(key, default)
    if not _is_number(value) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    if not _INTP.min <= value <= _INTP.max:
        raise ValueError(f"{key!r} does not fit a 64-bit integer")
    return int(value)


def _float(doc: Mapping, key: str, default=None) -> float:
    """``doc[key]`` as a float; a non-number names the key."""
    value = doc.get(key, default)
    if not _is_number(value):
        raise ValueError(f"{key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key!r} is too large for a float") from None


def _floats(doc: Mapping, key: str) -> np.ndarray | None:
    """``doc[key]`` as a float array, or None if absent; a non-list names the key."""
    value = doc.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not all(map(_is_number, value)):
        raise ValueError(f"{key!r} must be a list of numbers")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{key!r} holds a number too large for a float") from None


def _check_keys(doc: Mapping, required: tuple, optional: tuple, what: str) -> None:
    """Name a missing required key, then an unknown key, then a schema_version but 1."""
    for key in required:
        if key not in doc:
            raise ValueError(f"{what} is missing {key!r}")
    for key in doc:
        if key not in required + optional + ("schema_version",):
            raise ValueError(f"unknown key {key!r} in {what}")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"{what} has schema_version {version!r}; only {SCHEMA_VERSION} is read")


def arch_spec_from_dict(doc: Mapping) -> ArchitectureSpec:
    optional = ("n_x", "fringe_cycles", "phase0", "visibility", "q")
    _check_keys(doc, ("kind",), optional, "architecture config")
    model = FringeModel(
        n_x=_integer(doc, "n_x", DEFAULT_N_X),
        cycles=_float(doc, "fringe_cycles", DEFAULT_CYCLES),
        phase0=_float(doc, "phase0", 0.0),
        visibility=_float(doc, "visibility", DEFAULT_VISIBILITY),
    )
    q = None if doc.get("q") is None else _float(doc, "q")
    return ArchitectureSpec(kind=str(doc["kind"]), fringe=model, q=q)


# -------------------------------------------------------- feasibility I/O


def problem_dict(prob: LossFeasibilityProblem) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "q": prob.q,
        "p": prob.p,
        "n_x": prob.n_x,
    }
    for key in ("erase_conditional", "preserve_conditional"):
        if getattr(prob, key) is not None:
            doc[key] = [float(v) for v in getattr(prob, key)]
    return doc


def problem_from_dict(doc: Mapping) -> LossFeasibilityProblem:
    optional = ("erase_conditional", "preserve_conditional")
    _check_keys(doc, ("q", "p", "n_x"), optional, "feasibility problem")
    return LossFeasibilityProblem(
        q=_float(doc, "q"),
        n_x=_integer(doc, "n_x"),
        p=_float(doc, "p"),
        erase_conditional=_floats(doc, "erase_conditional"),
        preserve_conditional=_floats(doc, "preserve_conditional"),
    )


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


def _pbm_int(path: str, token: str, what: str) -> int:
    """``token`` as an int when it is a bare ASCII integer, ``-?[0-9]+``, as
    in the CSV files; ``int`` alone also takes ``1_0``, ``+2`` and non-ASCII
    digits."""
    try:
        if _BARE_INT.fullmatch(token.encode()):
            return int(token)
    except ValueError:  # more digits than int() converts
        pass
    raise ValueError(f"PBM file {path} has {what} {token!r}, not an integer")


def read_mask(path: str) -> np.ndarray:
    """Read a region mask, one 0/1 bit per bin: a row of 0/1 text, or a PBM
    (P1) bitmap.

    PBM pixels are flattened row-major into bins, value 1 meaning inside.
    Each raster character is one pixel; whitespace between them is optional.
    """
    text = _text(path)
    stripped = text.lstrip()
    if stripped.startswith("P1"):
        body = "\n".join(line.split("#", 1)[0] for line in stripped.splitlines())
        tokens = body.split(maxsplit=3)
        if tokens[0] != "P1":
            raise ValueError(f"malformed PBM file {path}")
        if len(tokens) < 3:
            raise ValueError(f"PBM file {path} is missing dimensions")
        width = _pbm_int(path, tokens[1], "width")
        height = _pbm_int(path, tokens[2], "height")
        if width < 1 or height < 1:
            raise ValueError(
                f"PBM file {path} has dimensions {width} x {height}; both must be at least 1"
            )
        raster = "".join(tokens[3].split()) if len(tokens) > 3 else ""
        bits = [_pbm_int(path, ch, "pixel") for ch in raster]
        if len(bits) != width * height:
            raise ValueError(
                f"PBM file {path} has {len(bits)} pixels, expected {width * height}"
            )
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"PBM file {path} has non-binary pixels")
        return np.array(bits)
    row = "".join(text.split())
    if not row or any(ch not in "01" for ch in row):
        raise ValueError(f"mask file {path} must contain only 0 and 1 characters")
    return np.array([int(ch) for ch in row])
