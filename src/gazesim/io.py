"""Read and write recordings, quality tables, corpus manifests and JSON
documents: every file gazesim writes is encoded here.

The canonical recording format is a UTF-8 CSV with header
``t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva``. Missing gaze is written
as ``nan`` and read from it, any NaN literal or an empty cell; target cells
must always parse. Adapters map two external export layouts onto the
canonical fields, converting units; every layout's time column is required.
Files are read as UTF-8 after an optional byte order mark. Floats are
written with shortest round-trip formatting, so a write followed by a read
reproduces every value exactly.

Recordings and quality tables stream through one block reader: 1024 lines
at a time through numpy's C loadtxt parser, with a quality table's ids cut
from each line's text, and a block that parser might read differently
through csv.reader, float() and int(). Values and errors are those of
float() and int() either way.
"""
from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .types import QUALITY_FEATURES, GazeRecording, QualityTable, QualityVector

RECORDING_HEADER = ("t_ms", "gaze_x_dva", "gaze_y_dva", "tgt_x_dva", "tgt_y_dva")
QUALITY_HEADER = ("recording_id", *QUALITY_FEATURES, "n_fixations_used")
MANIFEST_HEADER = ("recording_id", "path", "format_tag", "rate_hz")

# column names and time unit per supported layout
_LAYOUTS = {
    "canonical": dict(time="t_ms", gx="gaze_x_dva", gy="gaze_y_dva",
                      tx="tgt_x_dva", ty="tgt_y_dva", time_scale=1.0),
    "eyelink-export": dict(time="n", gx="x", gy="y", tx="xT", ty="yT",
                           time_scale=1.0),
    "vr-export": dict(time="time_s", gx="gaze_x_deg", gy="gaze_y_deg",
                      tx="target_x_deg", ty="target_y_deg", time_scale=1000.0),
}
FORMAT_TAGS = tuple(_LAYOUTS)


def format_float(value: float) -> str:
    """Shortest decimal text that parses back to the exact same float."""
    return repr(float(value))


def atomic_write_text(path, text) -> None:
    """Write the full text, a str or an iterable of str chunks, to `path` via
    a temp file in the same directory. The file gets the mode the umask
    gives a new file (mkstemp's is 0600). An OSError names `path`."""
    path = os.fspath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp.",
                                   suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        # reading the umask sets it, so set it back at once (no gazesim
        # thread is alive here to create a file in between: ordered_map
        # starts none, tests/test_pool.py test_starts_no_thread, and assess's
        # KD-tree query joins its threads before it returns,
        # tests/test_assess.py TestThreadedQuery)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            # the error would name the random temp file: name the output instead
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def write_csv(header, rows, path) -> None:
    """Write a header row, then rows of cells, as CSV (atomic replace)."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_json(payload, path) -> None:
    """Write a JSON document with sorted keys, a 2-space indent and a final
    newline (atomic replace)."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json_object(path, kind: str) -> dict:
    """The JSON object a `kind` file holds. Text that is not UTF-8 JSON (a
    leading byte order mark is skipped), or a payload that is not an object,
    raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: {kind} file is not a JSON object")
    return payload


@contextmanager
def _open_csv(path):
    """Open a UTF-8 CSV file for reading; a leading byte order mark is
    skipped, so the first header name reads as written. A byte that is not
    UTF-8, or a csv.Error (not a ValueError, such as a cell over csv's field
    size limit), met anywhere in the with-block raises ValueError naming
    the path, so a corpus loop can skip the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None


# rows formatted or lines parsed per step: the per-cell and per-line str
# objects live for one block, not the whole recording. Larger blocks bought no
# speed and raised peak memory (csv.reader parse, reading four 17k-row files:
# +4.6 MB at 1024, +8.3 MB at 4096).
_BLOCK_ROWS = 1024

# float() already parses "nan" in any case; only blank gaze cells need mapping
_NAN_IF_BLANK = {"": "nan"}.get

# numpy's parser strips these four ASCII separators around a cell as
# whitespace; float() and int() reject them
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"

# the kinds of a column spec's fields: a float cell (float()), a gaze cell
# (float() after str.strip(), blank is NaN), an int cell (int()) and a str
# id cell (cell 0 only, kept as written)
_FLOAT, _GAZE, _INT, _ID = "float", "gaze", "int", "id"


@dataclass(frozen=True)
class _Columns:
    """A column spec: the block reader parses each data row of `width`
    cells into one output column per (kind, cells) field. `cells` is a
    tuple of adjacent cell indices: one cell gives a 1-D column, more an
    (n, len(cells)) matrix. A float or gaze field reads as a float64 array,
    an int or id field as a list."""

    width: int
    fields: tuple

    @property
    def has_id(self) -> bool:
        return self.fields[0][0] == _ID

    @cached_property
    def dtype(self) -> np.dtype:
        """loadtxt's dtype for the cells after an id: per field, a float64
        or int64 item named by its first cell and shaped as its matrix, and
        a float64 item for each cell no field reads (the C path parses every
        cell it sees, so such a cell must still be a number)."""
        starts = {cells[0]: (kind, len(cells)) for kind, cells in self.fields}
        items, cell = [], int(self.has_id)
        while cell < self.width:
            kind, n = starts.get(cell, (_FLOAT, 1))
            items.append((str(cell), np.int64 if kind == _INT else np.float64,
                          (n,) if n > 1 else ()))
            cell += n
        return np.dtype(items)


def _parse_rows(rows, spec: _Columns) -> list:
    """Parse CSV rows into spec's output columns.

    Blank rows are skipped. Raises ValueError for a row whose cell count is
    not spec.width or for a cell float() or int() rejects; a blank gaze
    cell is NaN.
    """
    if [] in rows:  # csv.reader's row for a blank line
        rows = [row for row in rows if row]
    if set(map(len, rows)) - {spec.width}:
        got = next(len(row) for row in rows if len(row) != spec.width)
        raise ValueError(f"expected {spec.width} cells, got {got}")
    out = []
    for kind, cells in spec.fields:
        values = list(map(itemgetter(*cells), rows))
        if kind == _INT:
            values = list(map(int, values))
        elif kind != _ID:
            if kind == _GAZE:
                values = list(map(str.strip, values))
                values = list(map(_NAN_IF_BLANK, values, values))
            # converts each str with float(), so values and errors match it
            values = np.asarray(values, dtype=float)
            if len(cells) > 1:
                values = values.reshape(-1, len(cells))  # (0, k) for no rows
        out.append(values)
    return out


def _parse_lines_c(lines, spec: _Columns):
    """Parse a block of lines with numpy's C tokenizer, which converts each
    cell as float() or int() does, or return None where its result could
    differ from _parse_rows over csv.reader's rows.

    loadtxt rejects what it cannot parse: an empty or all-space cell (so a
    block with another tool's blank gaze cell goes to the csv path, which
    reads it as NaN), a quote, `1_0`, a non-ASCII digit, an int cell such
    as `16.0`, `1e1` or one past int64, a row of another width.
    None also covers a block of blank lines (loadtxt warns on no data), the
    four separators float() will not strip, and a line long enough to trip
    csv's field size limit. An id is cut from its line at the first comma,
    so a block with an id column also leaves for any quote, `\r`, NUL
    (which csv rejects before Python 3.11), blank line or row whose comma
    count is not the width's.
    """
    text = "".join(lines)
    limit = csv.field_size_limit()
    if (not text.strip("\r\n") or any(ch in text for ch in _NOT_FLOAT_SPACE)
            or (len(text) > limit and max(map(len, lines)) > limit)):
        return None
    if spec.has_id and (any(ch in text for ch in '"\r\x00')
                        or text.count(",") != (spec.width - 1) * len(lines)):
        return None
    try:
        with warnings.catch_warnings():
            # numpy 1.23-1.26 read an int cell such as "16.0" through float
            # with only a DeprecationWarning; int() rejects it
            warnings.simplefilter("error", DeprecationWarning)
            arr = np.loadtxt(lines, dtype=spec.dtype, delimiter=",", comments=None,
                             usecols=range(1, spec.width) if spec.has_id else None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    if spec.has_id and len(arr) != len(lines):  # loadtxt skipped a blank line
        return None
    # with usecols loadtxt lets a longer row through: here every row has at
    # least `width` cells, so the comma count above leaves it exactly `width`
    out = []
    for kind, cells in spec.fields:
        if kind == _ID:
            out.append([line.partition(",")[0] for line in lines])
        elif kind == _INT:
            out.append(arr[str(cells[0])].tolist())
        else:
            out.append(arr[str(cells[0])])
    return out


def _csv_rows(lines, rest) -> list:
    """csv.reader's rows for a block of lines; a quoted cell still open at
    the block's last line continues into the lines of `rest`."""
    reader = csv.reader(chain(lines, rest))
    rows = []
    for row in reader:
        rows.append(row)
        if reader.line_num >= len(lines):
            break
    return rows


def _read_columns(fh, spec: _Columns) -> list:
    """Parse the lines left in `fh` into spec's output columns, as
    _parse_rows would over csv.reader's rows, one block of lines at a time;
    raises _parse_rows' ValueError. A file with no lines gives []."""
    blocks = []
    while lines := list(islice(fh, _BLOCK_ROWS)):
        block = _parse_lines_c(lines, spec)
        if block is None:
            block = _parse_rows(_csv_rows(lines, fh), spec)
        blocks.append(block)
    return [list(chain.from_iterable(parts)) if kind in (_ID, _INT) else np.concatenate(parts)
            for (kind, _), parts in zip(spec.fields, zip(*blocks))]


def _malformed_row_error(path, spec: _Columns) -> ValueError:
    """Rescan the file row by row for the first row _parse_rows rejects and
    name its 1-based line."""
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            try:
                _parse_rows([row], spec)
            except ValueError as exc:
                return ValueError(f"{path}: malformed row at line {reader.line_num}: {exc}")
    return ValueError(f"{path}: malformed row (file changed while reading)")


def read_recording(path, format_tag: str, nominal_rate_hz: float,
                   recording_id: str | None = None) -> GazeRecording:
    """Parse one recording file, in the layout of format_tag and recorded at
    nominal_rate_hz, into a GazeRecording.

    Empty or NaN gaze cells are flagged missing, not dropped; an infinite
    one fails the read, as does a layout column named twice. Columns are
    matched by their whitespace-stripped header names. Malformed rows abort
    the read with a message naming the 1-based file line; blank lines are
    skipped but counted. A file without its layout's time column fails
    naming that column, as for any other column: no timestamps are made
    from the rate. A nominal rate that is not positive and finite fails
    when the recording is built. Each error names the file.
    """
    if format_tag not in _LAYOUTS:
        raise ValueError(f"unknown format_tag {format_tag!r} (expected one of {FORMAT_TAGS})")
    layout = _LAYOUTS[format_tag]
    path = Path(path)
    if recording_id is None:
        recording_id = path.stem

    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        names = [name.strip() for name in header]
        for col in (layout["time"], layout["gx"], layout["gy"], layout["tx"], layout["ty"]):
            if names.count(col) != 1:
                problem = "repeated" if col in names else "missing"
                raise ValueError(f"{path}: {problem} column {col!r} for format {format_tag!r}")
        spec = _Columns(len(header), tuple(
            (_GAZE if key in ("gx", "gy") else _FLOAT, (names.index(layout[key]),))
            for key in ("time", "gx", "gy", "tx", "ty")))
        try:
            data = _read_columns(fh, spec)
        except UnicodeDecodeError:
            raise  # _open_csv names the path; no rescan
        except ValueError:
            raise _malformed_row_error(path, spec) from None

    if not data or data[0].size == 0:
        raise ValueError(f"{path}: zero usable samples")
    t, gx, gy, tx, ty = data
    t = t * layout["time_scale"]
    for arr in (t, gx, gy, tx, ty):
        arr.flags.writeable = False  # fresh arrays: the recording shares them
    try:
        rec = GazeRecording(
            timestamps_ms=t, gaze_x=gx, gaze_y=gy, tgt_x=tx, tgt_y=ty,
            nominal_rate_hz=nominal_rate_hz, recording_id=recording_id,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if rec.missing.all():
        raise ValueError(f"{path}: zero usable samples (all gaze missing)")
    return rec


def _format_column(values: np.ndarray) -> list:
    """format_float text of each value.

    Each run of bit-identical values (so -0.0 and 0.0 differ) is formatted
    once: target channels are piecewise constant.
    """
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    texts = list(map(repr, values[starts].tolist()))
    if starts.size == values.size:
        return texts
    runs = np.diff(starts, append=values.size)
    return np.repeat(np.array(texts, dtype=object), runs).tolist()


def _csv_chunks(rec: GazeRecording):
    """Canonical CSV text in chunks: the header line, then one chunk per
    block of rows, each cell formatted a column at a time."""
    yield ",".join(RECORDING_HEADER) + "\n"
    for lo in range(0, rec.n_samples, _BLOCK_ROWS):
        sl = slice(lo, lo + _BLOCK_ROWS)
        cols = [_format_column(channel[sl]) for channel in (
            rec.timestamps_ms, rec.gaze_x, rec.gaze_y, rec.tgt_x, rec.tgt_y)]
        yield "\n".join(map(",".join, zip(*cols)))
        yield "\n"


def write_recording(rec: GazeRecording, path) -> None:
    """Write a recording as canonical CSV (atomic replace), one block of rows
    at a time."""
    atomic_write_text(path, _csv_chunks(rec))


def write_quality_table(table: QualityTable, path) -> None:
    """Write a quality table as CSV, its rows sorted by id."""
    write_csv(QUALITY_HEADER, ([rid, *map(format_float, values), str(count)]
                               for rid, values, count in table.rows_by_id()), path)


def _table_rows(path, header: tuple, what: str):
    """Yield (line number, row) for each non-blank data row of a CSV whose
    first row must be `header`; a row with another cell count raises
    ValueError naming its line."""
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or tuple(first) != header:
            raise ValueError(f"{path}: unexpected {what} header {first}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: malformed row at line {reader.line_num}: "
                                 f"expected {len(header)} cells, got {len(row)}")
            yield reader.line_num, row


# a quality table row: its id, the QUALITY_FEATURES as one matrix, its count
_QUALITY_SPEC = _Columns(len(QUALITY_HEADER), (
    (_ID, (0,)), (_FLOAT, tuple(range(1, 1 + len(QUALITY_FEATURES)))),
    (_INT, (len(QUALITY_HEADER) - 1,))))


def _quality_columns(path) -> QualityTable:
    """Read a quality table's rows into a QualityTable through the block
    reader, so only one block's line strings are alive at once. Cells
    convert as float() and int() do, so values and errors are theirs; the
    ValueError of a bad header or an empty table names neither line nor
    path (read_quality_table's rescan does)."""
    with _open_csv(path) as fh:
        header = next(csv.reader(fh), None)
        if header is None or tuple(header) != QUALITY_HEADER:
            raise ValueError("unexpected quality table header")
        data = _read_columns(fh, _QUALITY_SPEC)
    if not data:
        raise ValueError("empty quality table")
    ids, features, counts = data
    features.flags.writeable = False  # a fresh array: the table shares it
    return QualityTable(ids, features, counts)


def _malformed_quality_row_error(path) -> ValueError:
    """Rescan the table row by row, building a QualityVector per row, for
    the first row that fails and name its line."""
    seen = set()
    try:
        for line, row in _table_rows(path, QUALITY_HEADER, "quality table"):
            if row[0] in seen:
                return ValueError(f"{path}: duplicate recording_id {row[0]!r} at line {line}")
            seen.add(row[0])
            try:
                QualityVector(*map(float, row[1:-1]), n_fixations_used=int(row[-1]))
            except ValueError as exc:
                return ValueError(f"{path}: malformed row at line {line}: {exc}")
    except ValueError as exc:  # header, cell count, UTF-8 or csv error
        return exc
    if not seen:
        return ValueError(f"{path}: empty quality table")
    return ValueError(f"{path}: malformed row (file changed while reading)")


def read_quality_table(path) -> QualityTable:
    """Read a quality table into a checked QualityTable, in file order.

    A row that fails a check (a cell float() or int() rejects, a
    QualityVector check, a repeated recording_id) aborts the read with a
    message naming its 1-based file line; blank lines are skipped but
    counted.
    """
    try:
        return _quality_columns(path)
    except ValueError:
        raise _malformed_quality_row_error(path) from None


@dataclass(frozen=True)
class ManifestEntry:
    recording_id: str
    path: str
    format_tag: str
    rate_hz: float


# characters a recording_id may not hold: ids name output files, as
# <out>/<id>.csv, which must stay inside <out>
_PATH_SEPARATORS = tuple(sep for sep in ("/", os.sep, os.altsep) if sep)


def read_manifest(path) -> list:
    """Read a corpus manifest; relative entry paths resolve against the
    manifest's own directory. A recording_id must be a plain file name (not
    empty, '.' or '..', and with no path separator) and unique."""
    path = Path(path)
    entries = []
    seen = set()
    for line, (rid, entry_path, tag, rate_hz) in _table_rows(path, MANIFEST_HEADER,
                                                              "manifest"):
        if rid in ("", ".", "..") or any(sep in rid for sep in _PATH_SEPARATORS):
            raise ValueError(f"{path}: recording_id {rid!r} at line {line} is not a "
                             f"plain file name")
        if rid in seen:
            raise ValueError(f"{path}: duplicate recording_id {rid!r} at line {line}")
        seen.add(rid)
        if tag not in FORMAT_TAGS:
            raise ValueError(f"{path}: unknown format_tag {tag!r} for {rid!r}")
        entry_path = Path(entry_path)
        if not entry_path.is_absolute():
            entry_path = path.parent / entry_path
        try:
            rate_hz = float(rate_hz)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row at line {line}: {exc}") from None
        entries.append(ManifestEntry(rid, str(entry_path), tag, rate_hz))
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    return entries


def write_manifest(entries, path) -> None:
    write_csv(MANIFEST_HEADER, ([e.recording_id, e.path, e.format_tag, format_float(e.rate_hz)]
                                for e in entries), path)


def read_recording_from_entry(entry: ManifestEntry) -> GazeRecording:
    return read_recording(entry.path, entry.format_tag, entry.rate_hz,
                          recording_id=entry.recording_id)
