"""Every file format padland writes or reads back: trajectory CSVs,
detection logs (written, and read for replay), the replay CSV, summary
JSON (written, and read back for `padland report`) and the comparison
table.

Floats are written as `repr`'s bytes, so every file is a pure function
of its inputs: the summary JSON sorts its keys, and trajectory paths
inside it are relative to the output directory. Each CSV file is opened
once and written WRITE_BLOCK rows at a time. Every cell of a block is
spelled once, by its column's name, into one byte buffer (a trial's
trajectory CSV and detection log share it): a float's shortest
round-trip digits come from Schubfach's integer arithmetic on the whole
block, in numpy, and are laid out by repr's rules, the rare float repr
writes in scientific notation is left to repr, and each file's text for
the block is one gather of the cells' bytes and the constants between
them. So a trial of any length holds one block of text at a time, and
the writers add no byte that depends on the CPU numpy runs on. The cells
no record stores (harness.DERIVED_COLUMNS) are derived for each block
from the cells it does (_derive). A
detection log is streamed back, its records in any order, WRITE_BLOCK
frames at a time, column by column, into one array; only a log that
breaks a rule is read again as one text and walked line by line, to name
its error.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
from collections.abc import Iterator
from contextlib import ExitStack
from dataclasses import asdict, fields
from functools import cache
from itertools import chain, islice, product, repeat
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

import numpy as np

from .config import ConfigError, _object, _Repeated, read_text
from .experts import ExpertId
from .geometry import BoundingBox
from .harness import (
    BOX_COLUMNS,
    DERIVED_COLUMNS,
    LOG_FIELDS,
    LOG_STRIDE,
    RECORD_COLUMNS,
    REPLAY_COLUMNS,
    REPLAY_HEADER,
    SELECTION_LABELS,
    TRAJECTORY_HEADER,
    CampaignResult,
    DetectionLogError,
    Mode,
    Scenario,
    TerminationReason,
    TrialResult,
    _HOLD,
)
from .servo import ErrorSignals, compute_command, compute_errors
from .stats import ModeComparison, PairedComparison, compare_modes, format_comparison_table

# how a column of a CSV is spelled, by name: every other column is a float
# written as `repr`'s bytes, and a blankable float's NaN is an empty cell
_FLOAT, _BLANK, _INT, _LABEL = range(4)
_KINDS = {
    **dict.fromkeys(("far_present", "near_present", "tracking_lost"), _INT),
    **dict.fromkeys(("u_hat", "v_hat", "w_hat", "h_hat", "e_x", "e_y", "A", "e_z"), _BLANK),
    "selected": _LABEL,
}
WRITE_BLOCK = 256  # rows formatted and written at a time
# glibc's malloc (mallopt(3)) maps each allocation at or above its mmap
# threshold (128 KiB at start) afresh and trims the heap's top once twice
# that is free, so a block's arrays (about 1.1 MB traced at their peak)
# went back to the kernel after every block and were faulted in again,
# zero-filled, by the next. Freeing a mapped chunk raises both thresholds
# to its size and twice that: one untouched array of this size, freed
# before the first block, lets every block reuse the heap's pages. It must
# exceed half a block's arrays, and stay under their traced peak so as not
# to raise a write's: tracemalloc counts it, untouched as it is.
_SCRATCH_BYTES = 1 << 20

# A block's cells are spelled into one uint8 buffer, and a file's text for
# the block is one gather of segments of it. A float's cell is three
# segments (sign and integer digits, the point, fraction digits), any
# other cell one, and the buffer holds a "," after each cell's text, so a
# row needs no segment for the "," after a cell. Every other constant is a
# slice of _TEXT, which the buffer holds after the cells' rows: a number's
# row is _ROW bytes of "0"s with the 17 digits of the significand f of its
# value f * 10**k, zero padded, in columns 7 to 23, so that the digit of
# 10**p is in column 23 + k - p.
_TEXT = ",FAR,NEAR,0,0,0,0,0,0\n."
_CONSTANTS = ("\n", ",FAR,", ",NEAR,", "0,0,0,0,0,0")  # the first segment columns of a row
_LABEL_AT = np.array([_TEXT.index(label) for label in SELECTION_LABELS])
_LABEL_LEN = np.array([len(label) for label in SELECTION_LABELS])
_ROW = 28
_POW10 = 10 ** np.arange(1, 17, dtype=np.uint64)


@cache
def _tables() -> SimpleNamespace:
    """Schubfach's constants (R. Giulietti, "The Schubfach way to render
    doubles", 2020): k, and the shift and the offsets of the ends of the
    rounding interval, for a double's biased exponent, + 2048 when its
    significand bits are all zero and the gap below it is half the gap
    above; and by k + 324, the 617 multipliers g = floor(10**-k / 2**r) + 1
    of 126 bits, built as exact Python ints on first use, in 32-bit pieces.
    Also each 4-digit group's text and trailing zero count. Read-only, as
    the cache hands them to every caller."""
    exponent = np.tile(np.arange(2048), 2)
    q = np.maximum(exponent, 1) - 1075
    irregular = (np.arange(4096) >= 2048) & (exponent > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10) of 2**q, or of 3/4 of it
    h = q + ((-k * 913124641741) >> 38) + 2  # (e * 913124641741) >> 38 is floor(log2(10**e))
    g = []
    for e in range(324, -293, -1):  # e = -k
        r = ((e * 913124641741) >> 38) - 125
        g.append((10 ** max(e, 0) << max(-r, 0)) // (10 ** max(-e, 0) << max(r, 0)) + 1)
    g1 = np.array([x >> 63 for x in g], np.uint64)  # g's high and low 63 bits, as Java splits it
    g0 = np.array([x & (1 << 63) - 1 for x in g], np.uint64)
    group = np.arange(10000, dtype=np.uint32)
    digits = (group // 1000, group // 100 % 10, group // 10 % 10, group % 10)
    t = SimpleNamespace(
        k=k.astype(np.int16),
        shift=(h + 2).astype(np.uint8),
        lower=((2 - irregular) << h).astype(np.uint8),
        upper=(2 << h).astype(np.uint8),
        g=np.array([g0 & 0xFFFFFFFF, g0 >> 32, g1 & 0xFFFFFFFF, g1 >> 32, g1]),
        text=sum((48 + d) << 8 * i for i, d in enumerate(digits)).astype("<u4"),
        zeros=sum(group % 10**i == 0 for i in range(1, 5)).astype(np.int8),
    )
    for array in vars(t).values():
        array.flags.writeable = False
    return t


def _multiply_high(a_low, a_high, b_low, b_high):
    """floor(a * b / 2**64) from the 32-bit halves of a < 2**63 and b < 2**60."""
    product = a_low * b_low
    product >>= 32
    product += a_high * b_low
    product += a_low * b_high  # < 2**64: a_high < 2**31 and b_high < 2**28
    product >>= 32
    product += a_high * b_high
    return product


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimal f * 10**k that reads back as each double, the
    one nearest it if there are several (even f on a tie), given the bits
    of finite, normal doubles: f has 16 or 17 digits, trailing zeros kept.
    The 64 x 126-bit products are built from 32-bit halves, in arrays, so
    they wrap without a warning."""
    t = _tables()
    c = bits.view(np.uint64) & (1 << 52) - 1
    at = ((bits >> 52) & 0x7FF) + (c == 0) * 2048
    k, shift, lower, upper = t.k[at], t.shift[at], t.lower[at], t.upper[at]
    del at
    g0_low, g0_high, g1_low, g1_high, g1 = t.g.take(k + 324, axis=1)
    c |= 1 << 52

    def rop(cp):  # about g * cp / 2**127, its last bit set if inexact (round to odd)
        low, high = cp.astype(np.uint32), (cp >> 32).astype(np.uint32)
        z = _multiply_high(g0_low, g0_high, low, high)
        cp = cp * g1  # its low 64 bits
        cp >>= 1
        z += cp
        v = _multiply_high(g1_low, g1_high, low, high)
        v += z >> 63
        v |= (z & (1 << 63) - 1) != 0
        return v

    cb = c << shift  # 4c * 2**h
    vb = rop(cb)
    vbl = rop(cb - lower)  # its interval's ends: 4c - 2 (or 1) and 4c + 2, times 2**h
    vbr = rop(cb + upper)
    del cb, g0_low, g0_high, g1_low, g1_high, g1
    vbl += c & 1  # an odd c's interval leaves out its ends
    vbr -= c & 1
    s = vb >> 2  # vb is 4x the value in units of 10**k, to two fraction bits
    # one digit fewer: the multiple of 10 below or above s, if one of them
    # is in the interval (both never are); else s or s + 1, the one in it
    # or, if both are, the nearer (the even one on a tie)
    s10 = s // 10 * 10
    up, wp = vbl <= s10 << 2, (s10 << 2) + 40 <= vbr
    u, w = vbl <= s << 2, (s << 2) + 4 <= vbr
    half = vb & 3
    nearer = np.where(u != w, u, (half < 2) | (half == 2) & (s & 1 == 0))
    return np.where(up != wp, np.where(up, s10, s10 + 10), s + ~nearer), k


def _spell(kind: int, x: float) -> str:
    """A cell the block formatter leaves to Python: a float in scientific
    notation, subnormal or not finite, or an odd integer or label."""
    if kind == _INT:
        return str(int(x))
    if kind == _LABEL:
        return SELECTION_LABELS[int(x)]
    return repr(x)


def _digits(words: np.ndarray, f: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Write each f, zero padded to 17 digits, in columns 7 to 23 of its
    _ROW-byte row of words, "0" in the others, and return its trailing
    zeros: all of them where exact is true, elsewhere up to 4."""
    t = _tables()
    high = f // 10**8
    lead = high // 10**8
    groups = np.empty((4, len(f)), np.uint32)  # the 4-digit groups after the first digit
    groups[1] = high - lead * 10**8
    groups[3] = f - high * 10**8
    groups[0::2] = groups[1::2] // 10000
    groups[1::2] -= groups[0::2] * 10000
    words[:, 0] = words[:, 6] = 0x30303030  # "0000"
    words[:, 1] = 0x00303030 | (lead + 48) << 24
    words[:, 2:6] = t.text.take(groups).T
    zeros = t.zeros.take(groups[3])
    at = np.flatnonzero(exact & (groups[3] == 0))
    run = np.ones(len(at), bool)
    for i in (2, 1, 0):
        zeros[at] += run * t.zeros.take(groups[i, at])
        run &= groups[i, at] == 0
    return zeros


class _Cells:
    """Every cell of a block of rows spelled into one uint8 buffer, given
    each column's kind: cell (i, j)'s text is the segments
    len(_CONSTANTS) + 3j to 3j + 2 of row i, and src and lens hold each
    segment's start in buf and its length."""

    def __init__(self, values: np.ndarray, kinds: tuple[int, ...]):
        n, m = values.shape
        kind = np.tile(np.array(kinds, np.int8), n)
        x = values.ravel()
        bits = x.view(np.int64)
        exponent = (bits >> 52) & 0x7FF
        real = kind <= _BLANK
        zero = real & (bits << 1 == 0)
        normal = real & (exponent > 0) & (exponent < 0x7FF)
        del exponent
        f = np.zeros(x.size, np.uint64)
        k = np.zeros(x.size, np.int32)
        at = np.flatnonzero(normal)
        f[at], k[at] = _shortest(bits[at])
        point = k + 15 + (f >= 10**16)  # the exponent of the first digit
        point *= ~zero
        dot = zero | normal & (point >= -4) & (point < 16)  # repr's positional notation
        whole = np.flatnonzero(kind == _INT)
        whole = whole[np.abs(x[whole]) < 1e16]
        f[whole] = np.abs(x[whole])  # truncated, as int() does
        point[whole] = np.searchsorted(_POW10, f[whole], "right")
        number, minus = dot.copy(), dot & (bits < 0)
        number[whole], minus[whole] = True, x[whole] <= -1
        label = np.flatnonzero(kind == _LABEL)
        code = x[label]
        valid = (code == 0) | (code == 1) | (code == 2)
        label, code = label[valid], code[valid].astype(np.intp)
        known = number | (kind == _BLANK) & np.isnan(x)
        known[label] = True
        other = np.flatnonzero(~known)
        spelled = list(map(_spell, kind[other].tolist(), x[other].tolist()))

        cells = x.size * _ROW
        extra = "".join(s + "," for s in spelled).encode()
        self.buf = np.empty(cells + len(_TEXT) + len(extra), np.uint8)
        self.buf[cells:] = np.frombuffer(_TEXT.encode() + extra, np.uint8)
        zeros = _digits(self.buf[:cells].view("<u4").reshape(x.size, _ROW // 4), f, normal)
        row = np.arange(0, cells, _ROW, dtype=np.int32)
        a_src = row + 23 + k - np.maximum(point, 0) - minus
        a_len = (row + 24 + k - a_src) * number
        a_src[label] = cells + _LABEL_AT[code]
        a_len[label] = _LABEL_LEN[code]
        a_len[other] = list(map(len, spelled))
        a_src[other] = cells + len(_TEXT) + np.cumsum(a_len[other] + 1) - a_len[other] - 1
        b_src = a_src + a_len  # a blank cell's own row holds its ","
        b_len = np.maximum(-k - zeros, 1) * dot
        self.buf[b_src + b_len] = ord(",")
        self.buf[a_src.take(np.flatnonzero(minus))] = ord("-")

        first = len(_CONSTANTS)
        self.src = np.empty((n, first + 3 * m), np.int32)
        self.lens = np.empty((n, first + 3 * m), np.int32)
        self.src[:, :first] = [cells + _TEXT.index(c) for c in _CONSTANTS]
        self.lens[:, :first] = [len(c) for c in _CONSTANTS]
        self.src[:, first::3] = a_src.reshape(n, m)
        self.lens[:, first::3] = a_len.reshape(n, m)
        self.src[:, first + 1 :: 3] = cells + _TEXT.index(".")
        self.lens[:, first + 1 :: 3] = dot.reshape(n, m)
        self.src[:, first + 2 :: 3] = b_src.reshape(n, m)
        self.lens[:, first + 2 :: 3] = b_len.reshape(n, m)
        self.values = values

    def text(self, layout: tuple[np.ndarray, np.ndarray], keep: np.ndarray | None = None) -> list:
        """The bytes of the block's rows, each layout's segment columns in
        order, each with its extra length (the "," after a cell), less
        those where keep, if given, is false: in two parts of half the rows
        each, so that half the block's byte index is held at a time."""
        segments, extra = layout
        lens = self.lens[:, segments]
        lens += extra
        if keep is not None:
            lens *= keep
        shift = self.src[:, segments]
        shift += lens
        shift -= np.cumsum(lens, dtype=np.int32).reshape(lens.shape)  # start in buf less start in text
        parts, start = [], 0
        for rows in (slice(None, len(lens) // 2), slice(len(lens) // 2, None)):
            index = np.repeat(shift[rows].ravel(), lens[rows].ravel())
            index += np.arange(start, start + len(index), dtype=np.int32)
            start += len(index)
            parts.append(self.buf.take(index))
            del index
        return parts


def _kinds(names: tuple[str, ...]) -> tuple[int, ...]:
    """The kind of each named column's cells, then the row number's."""
    return (*(_KINDS.get(name, _FLOAT) for name in names), _INT)


def _layout(items: list, kinds: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The segment columns, and their extra lengths, of a row of items: a
    column's cell, by index, or a constant; a "," after a cell is the
    byte after its text."""
    segments, extra = [], []
    for item, after in zip(items, items[1:] + [None]):
        if isinstance(item, str):
            if item != ",":
                segments.append(_CONSTANTS.index(item))
                extra.append(0)
            continue
        first = len(_CONSTANTS) + 3 * item
        own = [first] if kinds[item] in (_INT, _LABEL) else [first, first + 1, first + 2]
        segments += own
        extra += [0] * (len(own) - 1) + [after == ","]
    return np.array(segments, np.intp), np.array(extra, np.int32)


def _table(names: tuple[str, ...], header: str):
    """The block writer of a CSV with header, of a block whose columns are
    names: a line per row, its number, then the header's other columns."""
    items = [x for name in header.split(",")[1:] for x in (",", names.index(name))]
    layout = _layout([len(names), *items, "\n"], _kinds(names))
    return lambda cells: cells.text(layout)


# Detection log: LOG_HEADER, then a record per expert per frame (present
# 0 or 1, "0" in every other field of an absent detection). The writer
# puts frame k's FAR record, then its NEAR record, for k = 0, 1, ...

LOG_HEADER = "frame,expert,u,v,w,h,confidence,present"
_EXPERTS = {expert.value: e for e, expert in enumerate(ExpertId)}  # its index, by its spelling


class _Flags(dict):
    """A present flag by its spelling: "0" and "1" looked up (int() is slower)."""
    __missing__ = staticmethod(int)


_FLAGS = _Flags({"0": 0, "1": 1})


def _log(names: tuple[str, ...]):
    """The block writer of a detection log of a block whose columns are
    names, the log's fields first, and the row number: a record holds its
    fields if its present cell is "1", and zeros otherwise."""
    kinds = _kinds(names)
    segments, extra, when = [], [], []  # when: 0 always, 1 + e if expert e is present, 3 + e if not
    for e, expert in enumerate(ExpertId):
        fields = [x for j in range(e * LOG_FIELDS, (e + 1) * LOG_FIELDS) for x in (j, ",")]
        for items, case in (
            ([len(names), f",{expert.value},"], 0),
            (fields[:-1], 1 + e),
            (["0,0,0,0,0,0"], 3 + e),
            (["\n"], 0),
        ):
            cols, more = _layout(items, kinds)
            segments.append(cols)
            extra.append(more)
            when += [case] * len(cols)
    layout, when = (np.concatenate(segments), np.concatenate(extra)), np.array(when)

    def block(cells: _Cells) -> list:
        flags = cells.values[:, LOG_FIELDS - 1 : LOG_STRIDE : LOG_FIELDS]
        present = (flags >= 1) & (flags < 2)  # str(int(flag)) == "1"
        keep = np.hstack([np.ones((len(flags), 1), bool), present, ~present])
        return cells.text(layout, keep[:, when])

    return block


def _derive(rows: np.ndarray, columns: tuple[str, ...], numbers: np.ndarray,
            scenario: Scenario, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The cells no layout stores, by their names in DERIVED_COLUMNS, of a
    block of rows whose columns are columns and whose row numbers are
    numbers: `t`, each number times dynamics.dt; the servo errors,
    servo.compute_errors of the smoothed box's columns as arrays (NaN, a
    blank cell, where a row has no box); and, only if names, the columns
    written, hold it, the command: servo.compute_command of each row's
    errors, or harness._HOLD, as perceive returns it, where a row has no
    box. An overflow to inf is silent, as it is in the scalar
    compute_errors and compute_command."""
    box = BoundingBox(*(rows[:, columns.index(name)] for name in BOX_COLUMNS))
    with np.errstate(over="ignore", invalid="ignore"):
        errors = compute_errors(box, scenario.camera, scenario.gains)
    derived = [numbers * scenario.dynamics.dt, *errors]
    if "vx_cmd" in names:
        per_row = map(ErrorSignals._make, zip(*(e.tolist() for e in errors)))
        commands = map(compute_command, per_row, repeat(scenario.gains))
        command = np.fromiter(chain.from_iterable(commands), float, 3 * len(rows)).reshape(-1, 3)
        held = np.isnan(box.u)[:, None]  # no box: all its cells are blank
        derived.extend(np.where(held, _HOLD, command).T)
    return dict(zip(DERIVED_COLUMNS, derived))


def _write_rows(array: np.ndarray, columns: tuple[str, ...], names: tuple[str, ...], files,
                scenario: Scenario | None = None) -> None:
    """Write each of files, a (path, header, block writer) triple, from
    array, whose columns are columns: open each file once and write its
    header, then spell WRITE_BLOCK rows at a time, each cell once by its
    column's name in names, plus each row's number (every file's first
    column) last, and write each file's text for them, which its block
    writer returns. A name that is not one of columns is derived for each
    block from its rows and scenario (_derive)."""
    kinds = _kinds(names)
    stored = [j for j, name in enumerate(names) if name in columns]
    taken = [columns.index(names[j]) for j in stored]
    derived = [j for j, name in enumerate(names) if name not in columns]
    with ExitStack() as stack:
        outs = []
        for path, header, block in files:
            out = stack.enter_context(open(path, "wb"))
            out.write(f"{header}\n".encode())
            outs.append((out, block))
        np.empty(_SCRATCH_BYTES, np.uint8)  # freed at once: see _SCRATCH_BYTES
        for start in range(0, len(array), WRITE_BLOCK):
            rows = array[start : start + WRITE_BLOCK]
            numbers = np.arange(start, start + len(rows))
            values = np.empty((len(rows), len(names) + 1))
            values[:, stored] = rows[:, taken]
            if derived:
                found = _derive(rows, columns, numbers, scenario, names)
                for j in derived:
                    values[:, j] = found[names[j]]
            values[:, -1] = numbers
            cells = _Cells(values, kinds)
            for out, block in outs:
                out.writelines(block(cells))
            del cells  # before the next block's


def write_detection_log(frames: np.ndarray, path: str | Path) -> None:
    """Write the first LOG_STRIDE columns of a (frames, columns) record
    array as a detection log (floats as `repr`'s bytes, so a write/read
    round trip is value-exact)."""
    names = RECORD_COLUMNS[:LOG_STRIDE]
    _write_rows(frames, RECORD_COLUMNS, names, [(path, LOG_HEADER, _log(names))])


def read_detection_log(path: str | Path) -> np.ndarray:
    """Parse a detection log file into a (frames, LOG_STRIDE) float64 array:
    records in any order, blank lines skipped, one of each expert for every
    frame from 0 to the last. Raises DetectionLogError naming the file.

    A regular file is streamed, its lines split exactly as str.splitlines
    splits its whole text. A log that cannot be read so, for any reason, is
    read a second time as one text, which raises its error in the order the
    checks have always run: an unreadable or undecodable file, the header,
    then its records. Any other file, a pipe say, can be read only once and
    has no size to bound its records by, and is read as one text at once."""
    try:
        if stat.S_ISREG((info := os.stat(path)).st_mode):
            with open(path, encoding="utf-8") as f:
                lines = _lines(f)
                if next(lines, "").strip() == LOG_HEADER:
                    log = _read_columns(filter(str.strip, lines), info.st_size)
                    if log is not None:
                        return log
    except (OSError, UnicodeDecodeError):
        pass
    lines = read_text(path, "detection log", DetectionLogError).splitlines()
    try:
        if not lines or lines[0].strip() != LOG_HEADER:
            raise DetectionLogError("line 1: missing or malformed header")
        # as streamed, unless the file changed
        log = _read_columns(filter(str.strip, lines[1:]), sum(map(len, lines)))
        return _refuse(lines[1:]) if log is None else log
    except DetectionLogError as exc:
        raise DetectionLogError(f"{path}: {exc}") from None


def _lines(f):
    r"""The lines of f, a text file opened with universal newlines, without
    their ends, split exactly as str.splitlines splits its whole text: f
    yields lines ending at "\n" (its "\r\n" and "\r" read as "\n"), and
    splitlines splits each at any other line boundary ("\v", "\f",
    "\x1c" to "\x1e", "\x85", "\u2028", "\u2029")."""
    return chain.from_iterable(map(str.splitlines, f))


def _read_columns(records: Iterator[str], size: int) -> np.ndarray | None:
    """The log of records in any order, read WRITE_BLOCK frames at a time, column by column,
    into rows by (frame, expert); None if a rule fails or a row is filled twice or never.
    Each block is scattered into the log as it comes, and the log grown in place to the last
    frame seen. size, the characters in the records or more, bounds that growth: a record
    takes at least 17 (8 fields of one or more, 3 for its expert, and 7 commas)."""
    log, filled, count = np.empty((0, LOG_STRIDE)), np.zeros(0, bool), 0
    while block := list(islice(records, 2 * WRITE_BLOCK)):
        if set(map(str.count, block, repeat(","))) != {7}:
            return None
        fields = ",".join(block).split(",")
        try:  # an int past int64 raises OverflowError
            frame = np.fromiter(map(int, fields[0::8]), int)
            expert = np.fromiter(map(_EXPERTS.__getitem__, map(str.strip, fields[1::8])), int)
            text = fields[2::8] + fields[3::8] + fields[4::8] + fields[5::8] + fields[6::8]
            values = np.fromiter(map(float, text), float).reshape(5, -1)
            flag = np.fromiter(map(_FLAGS.__getitem__, fields[7::8]), int)
        except (ValueError, KeyError, OverflowError):
            return None
        present = flag == 1
        _, _, w, h, conf = values
        out_of_range = (w <= 0) | (h <= 0) | (conf < 0) | (conf > 1)
        bad = (frame < 0) | (flag != 0) & ~present | present & out_of_range
        if bad.any() or not np.isfinite(values).all():
            return None
        # record (frame, expert)'s row is 2 * frame + expert; past 2**62 that
        # wraps negative, where no row is
        key = frame * 2 + expert
        if key.min() < 0 or key.max() >= size // 17:
            return None
        if key.max() >= len(filled):  # no view of either outlives its statement
            frames = key.max() // 2 + 1
            log.resize((frames, LOG_STRIDE), refcheck=False)
            filled.resize(2 * frames, refcheck=False)
        rows = np.where(present, [*values, present], 0.0).T  # not * flag: -5.0 * 0 is -0.0
        log.reshape(-1, LOG_FIELDS)[key] = rows
        filled[key] = True
        count += len(key)
    # count records, each in one of len(filled) rows: every row once iff all are filled
    return log if count == len(filled) and filled.all() else None


def _parse_record(line: str, lineno: int) -> tuple[int, ExpertId]:
    """One record's frame and expert; raises DetectionLogError at its first broken rule."""
    parts = line.split(",")
    if len(parts) != 8:
        raise DetectionLogError(f"line {lineno}: expected 8 fields, got {len(parts)}")
    try:
        frame, expert = int(parts[0]), ExpertId(parts[1].strip())
        u, v, w, h, conf, present = *map(float, parts[2:7]), int(parts[7])
    except ValueError as exc:
        raise DetectionLogError(f"line {lineno}: {exc}") from None
    if not all(map(math.isfinite, (u, v, w, h, conf))):
        raise DetectionLogError(f"line {lineno}: u, v, w, h and confidence must be finite")
    if present not in (0, 1):
        raise DetectionLogError(f"line {lineno}: present flag must be 0 or 1")
    if present and (w <= 0 or h <= 0):
        raise DetectionLogError(f"line {lineno}: present detection with non-positive size")
    if present and not 0.0 <= conf <= 1.0:
        raise DetectionLogError(f"line {lineno}: confidence {conf} outside [0, 1]")
    return frame, expert


def _refuse(records: list[str]) -> NoReturn:
    """Raise the error of a log _read_columns refused, from its lines after the header: the
    first line that breaks a rule or repeats a record, else the first frame lacking one."""
    seen = set()
    for lineno, line in enumerate(records, start=2):
        if line.strip():
            frame, expert = key = _parse_record(line, lineno)
            if key in seen:
                raise DetectionLogError(
                    f"line {lineno}: duplicate {expert.value} record for frame {frame}"
                )
            seen.add(key)
    frames = {frame for frame, _ in seen}
    frame, expert = next(key for key in product(range(len(frames)), ExpertId) if key not in seen)
    if frame not in frames:
        raise DetectionLogError(f"frame {frame} missing (frames must be contiguous from 0)")
    raise DetectionLogError(f"frame {frame}: no {expert.value} record")


# the columns of a block of a trial's two CSVs: the detection log's fields,
# then the trajectory's own columns but `step`
_TRIAL_BLOCK = RECORD_COLUMNS[:LOG_STRIDE] + tuple(
    c for c in TRAJECTORY_HEADER.split(",")[1:] if c not in RECORD_COLUMNS[:LOG_STRIDE]
)


def write_trial_csvs(frames: np.ndarray, scenario: Scenario, trajectory_path: str | Path,
                     log_path: str | Path) -> None:
    """Write one trial's trajectory CSV and detection log from its
    (frames, RECORD_COLUMNS) array and the scenario it ran, WRITE_BLOCK
    rows at a time, spelling each cell of a block once for both files
    (floats as `repr`'s bytes: round-trippable and byte-stable across
    identical runs; NaN blanks as empty cells; `selected` as its label).
    `t` is the row number times dynamics.dt, so it starts at 0 in any
    array, as `step` does, e_x, e_y, A and e_z are servo.compute_errors of
    the row's smoothed box, and vx_cmd, vy_cmd and vz_cmd compute_command
    of those, or 0.0 without a box."""
    _write_rows(frames, RECORD_COLUMNS, _TRIAL_BLOCK, [
        (trajectory_path, TRAJECTORY_HEADER, _table(_TRIAL_BLOCK, TRAJECTORY_HEADER)),
        (log_path, LOG_HEADER, _log(_TRIAL_BLOCK)),
    ], scenario)


def write_replay_csv(records: np.ndarray, scenario: Scenario, path: str | Path) -> None:
    """Write a (frames, REPLAY_COLUMNS) float array, replayed with scenario,
    as the replay CSV: `frame`, the row number, and `tracking_lost` as
    integers, `selected` as its label in SELECTION_LABELS, NaN as an empty
    cell, every other float as `repr`'s bytes; e_x, e_y, A and e_z are
    servo.compute_errors of the row's smoothed box."""
    names = tuple(REPLAY_HEADER.split(",")[1:])
    table = _table(names, REPLAY_HEADER)
    _write_rows(records, REPLAY_COLUMNS, names, [(path, REPLAY_HEADER, table)], scenario)


def _log_name(trial_id: int, mode: Mode) -> str:
    """File name of one trial's trajectory and detection CSVs."""
    return f"trial_{trial_id:03d}_{mode.value}.csv"


_TRIAL_FILE = re.compile(rf"trial_[0-9]+_({'|'.join(mode.value for mode in Mode)})\.csv")


def trial_result_dict(result: TrialResult, mode: Mode) -> dict:
    """The fields of result as JSON values, plus the trial's trajectory path."""
    return {
        **asdict(result),
        "initial_position": list(result.initial_position),
        "touchdown_xy": list(result.touchdown_xy),
        "termination_reason": result.termination_reason.value,
        "trajectory_log_path": f"trajectories/{_log_name(result.trial_id, mode)}",
    }


def _comparison_dict(comparison: PairedComparison) -> dict:
    """The fields of comparison with its test's fields flattened in."""
    doc = asdict(comparison)
    doc.update(doc.pop("test"))
    return doc


def campaign_summary(campaign: CampaignResult, comparison: ModeComparison) -> dict:
    modes_block = {
        mode.value: {
            "trials": [trial_result_dict(r.result, mode) for r in runs],
            "summary": asdict(comparison.summaries[mode.value]),
        }
        for mode, runs in campaign.runs.items()
    }
    return {
        "seed": campaign.seed,
        "n_trials": campaign.n_trials,
        "initial_states": [[s.x, s.y, s.z] for s in campaign.initial_states],
        "modes": modes_block,
        "comparisons": [_comparison_dict(c) for c in comparison.comparisons],
    }


def write_campaign_outputs(campaign: CampaignResult, out_dir: str | Path) -> dict:
    """Write all campaign artifacts under out_dir; returns the summary dict.

    Layout: trajectories/trial_###_<mode>.csv, detections/trial_###_<mode>.csv,
    summary.json, comparison.txt. Before any trial is written, the files
    summary.json and comparison.txt are removed, if they exist, and so is
    every trial file of that layout in those two directories that this
    campaign does not write: a failed write leaves no summary of another
    campaign, and the directories hold the trials summary.json names and no
    others. No other file is touched. Each trial's two CSVs are written by
    write_trial_csvs through campaign.map, shared between the campaign's
    worker processes, if it has any, and this one. Every trial's write
    runs; the first error among them is raised before summary.json and
    comparison.txt are written.
    """
    out = Path(out_dir)
    traj_dir = out / "trajectories"
    det_dir = out / "detections"
    traj_dir.mkdir(parents=True, exist_ok=True)
    det_dir.mkdir(parents=True, exist_ok=True)

    runs = [(run.frames, _log_name(run.result.trial_id, mode))
            for mode, mode_runs in campaign.runs.items() for run in mode_runs]
    names = {name for _, name in runs}
    stale = [p for p in [*traj_dir.iterdir(), *det_dir.iterdir()]
             if _TRIAL_FILE.fullmatch(p.name) and p.name not in names]
    for path in [out / "summary.json", out / "comparison.txt", *stale]:
        if path.is_file():
            path.unlink()
    campaign.map(
        write_trial_csvs,
        [frames for frames, _ in runs],
        repeat(campaign.scenario),
        [traj_dir / name for _, name in runs],
        [det_dir / name for _, name in runs],
    )

    comparison = compare_modes({m: campaign.results(m) for m in campaign.runs})
    summary = campaign_summary(campaign, comparison)
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (out / "comparison.txt").write_text(
        format_comparison_table(comparison) + "\n", encoding="utf-8"
    )
    return summary


def _trial_result(doc: dict) -> TrialResult:
    values = {f.name: doc[f.name] for f in fields(TrialResult)}
    values["initial_position"] = tuple(values["initial_position"])
    values["touchdown_xy"] = tuple(values["touchdown_xy"])
    values["termination_reason"] = TerminationReason(values["termination_reason"])
    return TrialResult(**values)


def rebuild_results(summary: dict) -> dict[Mode, list[TrialResult]]:
    """Reconstruct per-mode TrialResult lists from a summary document."""
    return {
        Mode(mode_name): [_trial_result(t) for t in block["trials"]]
        for mode_name, block in summary["modes"].items()
    }


def read_comparison(path: str | Path) -> ModeComparison:
    """Compare the modes of a summary.json read back; raises ConfigError
    naming the file if it is missing, a directory, not text, not JSON (or
    nested too deeply to parse), repeats a key (naming its path, as
    load_config does) or is not a padland summary."""
    path = Path(path)
    text = read_text(path, "summary file")
    try:
        summary = json.loads(text, object_pairs_hook=_object)
        if not isinstance(summary, _Repeated):
            return compare_modes(rebuild_results(summary))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise ConfigError(f"{path}: not a padland summary ({type(exc).__name__}: {exc})") from None
    raise ConfigError(f"{path}: repeated key: {summary.key}")
