"""The text of every output file: JSON documents and tables of columns.

Every file is created new (``open_new_file``) and written in bulk, with
the text of each number taken from orjson's Ryu formatter, one call per
column, never one value at a time.  The text is byte for byte what the
standard library writes:

* a JSON document is ``json.dumps(obj, indent=2, sort_keys=True)`` plus
  a newline (``write_json``);
* a table is a header, then each row as its fields' texts between
  constant pieces, as csv.writer or json.dumps would lay them out
  (``Layout``, ``write_rows``), its columns formatted by
  ``float_texts``, ``number_texts`` and the cell rules built on them.

Ryu prints the same shortest round-trip digits as repr; the notation
differs only outside [1e-4, 1e16) in magnitude (1e-9 against 1e-09,
0.000015 against 1.5e-05, 1e16 against 1e+16), where repr is kept.
orjson is imported on the first output, not with the package.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

# Rows a table is assembled and written in at a time, so that a table's
# texts are never all in memory at once.
SEGMENT_ROWS = 1 << 12


def open_new_file(path):
    """Open `path` for writing text as a new file, never rewriting an old one in place.

    Whatever has that name, a file or a symlink or a hard link, is
    removed first, and the name is then created with "x"; nothing is
    fsynced.  Neither a truncate nor a rename over the old file: ext4
    starts writeback on close() of a file truncated and rewritten, and
    on a rename over an existing file, which stalls a rerun into the
    same directory for tens of milliseconds per file on a busy disk.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    return open(path, "x", encoding="utf-8", newline="")


def number_texts(values) -> list[str]:
    """The JSON text of every number of an array, from one call to orjson."""
    import orjson

    body = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    return body.split(",") if body else []


def float_texts(values) -> list[str]:
    """repr(float(v)) of every value, from one call to orjson's Ryu formatter.

    The non-zero values outside [1e-4, 1e16) in magnitude, where Ryu's
    notation differs, and the non-finite ones, which orjson writes as
    null, keep repr.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)  # orjson refuses strided arrays
    texts = number_texts(values)
    size = np.abs(values)
    for i in np.flatnonzero(~((size >= 1e-4) & (size < 1e16)) & (values != 0.0)).tolist():
        texts[i] = repr(float(values[i]))
    return texts


def _cells(values, nan: str, inf: str, whole: bool) -> list[str]:
    """The text of every value: `nan` for NaN, `inf` for +-inf, str(int(v)) for an integral v if `whole`, else repr."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    ints = finite & (np.trunc(values) == values) if whole else np.zeros(values.shape, dtype=bool)
    small = ints & (np.abs(values) < 2.0**63)  # exact as int64
    if small.all():
        return number_texts(values.astype(np.int64))
    if not ints.any() and finite.all():
        return float_texts(values)
    texts = np.empty(values.size, dtype=object)
    texts[~finite] = np.where(np.isnan(values[~finite]), nan, inf)
    texts[small] = number_texts(values[small].astype(np.int64))
    rest = finite & ~small
    texts[rest] = float_texts(values[rest])
    for i in np.flatnonzero(ints & ~small).tolist():
        texts[i] = str(int(values[i]))
    return texts.tolist()


def csv_cells(values) -> list[str]:
    """The CSV cell of every value: empty for NaN, inf for +-inf, str(int(v)) for an integral v, else repr."""
    return _cells(values, "", "inf", whole=True)


def json_cells(values) -> list[str]:
    """The JSON text of every value as a float: null for NaN, "inf" for +-inf, else repr."""
    return _cells(values, "null", '"inf"', whole=False)


def optional_float_texts(values: Sequence[Optional[float]]) -> list[str]:
    """What csv.writer writes of each float or None: repr, or an empty cell for None."""
    array = np.array(values, dtype=np.float64)  # None becomes NaN
    texts = float_texts(array)
    for i in np.flatnonzero(np.isnan(array)).tolist():
        if values[i] is None:
            texts[i] = ""
    return texts


@dataclass(frozen=True)
class Layout:
    """The text a table puts around the fields of its rows.

    A file is ``head``, then every row as ``row`` with each field index
    replaced by the row's text of that field, each row followed by
    ``sep`` but the last, which ``tail`` follows.  A table with no rows
    is the file ``empty``.
    """

    head: str
    row: tuple  # field indexes (int) and constant text (str)
    sep: str
    tail: str
    empty: str


def csv_layout(header: Sequence[str]) -> Layout:
    """The rows csv.writer writes of fields that need no quoting, under `header`."""
    head = ",".join(header) + "\r\n"
    row = tuple(item for j in range(len(header)) for item in ((",", j) if j else (j,)))
    return Layout(head=head, row=row, sep="\r\n", tail="\r\n", empty=head)


def _segment(layout: Layout, fields: Sequence[list], rows: int, last: bool) -> str:
    """`rows` rows of a layout, as one join of a list of pieces.

    The list holds the row's constant pieces, row after row, and each
    field's column of texts goes in by one slice assignment.  The pieces
    are str, not bytes: bytes.join takes an 80-byte buffer view of every
    piece, 2 MB for the 24 576 pieces of a trace segment.
    """
    width = len(layout.row) + 1
    pieces = [None if isinstance(item, int) else item for item in layout.row] + [layout.sep]
    pieces *= rows
    for j, item in enumerate(layout.row):
        if isinstance(item, int):
            pieces[j::width] = fields[item]
    if last:
        pieces[-1] = layout.tail
    return "".join(pieces)


def write_rows(
    path, layout: Layout, n: int, fields: Callable[[int, int], Sequence[list]], segment: int = SEGMENT_ROWS
) -> None:
    """A table of n rows in one layout, `segment` rows at a time, each segment one join and one write.

    fields(lo, hi) gives the texts of rows lo to hi, one list per field index.
    """
    with open_new_file(path) as handle:
        handle.write(layout.head if n else layout.empty)
        for lo in range(0, n, segment):
            hi = min(lo + segment, n)
            # A call of its own, so that a segment's texts are freed before the next segment's are made.
            handle.write(_segment(layout, fields(lo, hi), hi - lo, hi == n))


def write_json_columns(path, columns: dict, segment: int = SEGMENT_ROWS) -> None:
    """json.dumps({key: [...]}, indent=2, sort_keys=True) + "\\n" of non-empty float columns, each value as json_cells.

    The keys are plain names, which JSON quotes without escapes.
    """
    with open_new_file(path) as handle:
        for k, key in enumerate(sorted(columns)):
            handle.write(("{" if k == 0 else ",") + f'\n  "{key}": [')
            values = columns[key]
            for lo in range(0, len(values), segment):
                handle.write(",\n    " if lo else "\n    ")
                handle.write(",\n    ".join(json_cells(values[lo : lo + segment])))
            handle.write("\n  ]")
        handle.write("\n}\n")


# The two ways Ryu's text of a float differs from repr's, in a document
# orjson wrote with indent 2: an exponent without sign or padding (1e-9,
# 1e16 against 1e-09, 1e+16), and fixed notation in [1e-5, 1e-4) in
# magnitude (0.000015 against 1.5e-05).  Each pattern starts with a
# literal, which the regex engine finds fast, and ends at the end of a
# token: before a newline, with or without a comma.  No text inside a
# string matches, because orjson escapes every newline in a string, and
# outside strings only a number has a digit after an "e".
_EXPONENT = re.compile(rb"e(-?)([0-9]+)(?=,?\n)")
_FIXED_SMALL = re.compile(rb"0\.0000[0-9]+(?=,?\n)")


def _repr_exponent(match) -> bytes:
    return b"e" + (match[1] or b"+") + match[2].rjust(2, b"0")


def _repr_fixed_small(match) -> bytes:
    # The end of a larger number, such as 10.00001, is left as it is.
    at = match.start()
    if match.string[at - 1 : at].isdigit():
        return match[0]
    return repr(float(match[0])).encode()


def _plain(obj) -> bool:
    """Whether orjson writes obj as json.dumps does, up to float notation.

    That needs JSON's own types, exactly (orjson writes dataclasses and
    subclasses, which json.dumps refuses or writes otherwise), finite
    floats (orjson writes null for NaN and inf) and text of printable
    ASCII (json.dumps escapes the rest; orjson writes it as UTF-8).
    orjson refuses the other differences itself: a non-str key, an int
    outside 64 bits, nesting past its depth limit.
    """
    kind = type(obj)
    if kind is str:
        return obj.isascii() and "\x7f" not in obj
    if kind is float:
        return obj - obj == 0.0
    if kind is dict:
        return all(map(_plain, obj)) and all(map(_plain, obj.values()))
    if kind is list or kind is tuple:
        return all(map(_plain, obj))
    return kind is int or kind is bool or obj is None


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\\n", written by orjson where its text is the same."""
    if _plain(obj):
        import orjson

        try:
            text = orjson.dumps(obj, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
        except orjson.JSONEncodeError:
            pass
        else:
            return _FIXED_SMALL.sub(_repr_fixed_small, _EXPONENT.sub(_repr_exponent, text)).decode()
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    """obj as a JSON document (json_text) in a new file."""
    text = json_text(obj)
    with open_new_file(path) as handle:
        handle.write(text)
