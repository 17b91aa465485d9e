"""Deterministic report serialization through one template formatter.

Every report, JSON or CSV, is written by filling ``%`` templates, one
template per row shape.  A row is a flat sequence of cells; its shape is
the type of each cell plus the text of the cells whose text depends on
their value (strings, bools) and which of its floats are finite.  The
template of a shape holds the keys, the indentation and the fixed cells,
and a slot per varying cell: ``%.17g`` for a float (17 significant digits
round-trip binary64, so identical inputs give byte-identical reports),
``%d`` for an int and ``%s`` for a nested container, written per row.

The rows are read in one pass, as runs of ``_CHUNK`` rows of any shapes:
each row adds its shape's template to the run (looked up once per shape
and run) and its numbers to the run's flat tuple, and a full run is
written by one ``%`` over its joined templates.  So rows whose shapes
alternate, as an ``xcorr`` sweep's ``corr_rU`` and ``corr_rp`` rows do,
cost no more ``%`` calls than rows of one shape.  The formatter recurses
over containers and shapes, never over the numbers, and holds at most
``_CHUNK`` rows at a time.

Rows may also come as a 2-D float64 array, one row per report row, or as
an iterable of such arrays (blocks of rows, taken one at a time, so a
table need never be whole).  Each array is read ``_CHUNK`` rows at a
time.  A chunk whose cells are all finite is written with the one
all-float template of its width and one ``%`` over its cells; a chunk
that holds a NaN or an infinity goes through the row loop above, as a
list of float rows.  A whole-number column may be stored as floats: every
whole number |i| <= 2**53 is held exactly by a float64, and
``"%.17g" % float(i) == "%d" % i`` for each, so it is written as its ints
would be.

Cell rules, the same in every report:

- a finite float is ``%.17g``, an int is ``%d``;
- a non-finite float and ``None`` are ``null`` in JSON and an empty cell
  in CSV;
- a bool is ``true``/``false``; a string is JSON-escaped in JSON and
  written as is in CSV;
- empty lists and dicts are written ``[]`` and ``{}``.

JSON is indented by two spaces per level, one value per line; a
:class:`Records` is written as a list of objects without building a dict
per row.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from functools import lru_cache, partial
from itertools import chain, compress

import numpy as np

SCHEMA_VERSION = 1

#: Format of every float written (17 significant digits round-trip binary64).
FLOAT_FMT = "%.17g"

#: One level of JSON indentation.
_INDENT = "  "


class Records:
    """Rows of one field layout, written by :func:`dumps_json` as a list of
    JSON objects.

    ``fields`` are key names, or ``(name, width)`` pairs for a list-valued
    key whose ``width`` items are consecutive cells of the row.  ``rows``
    are flat sequences of cells, a 2-D float array or an iterable of 2-D
    float arrays (as for :func:`write_csv_rows`).
    """

    def __init__(self, fields, rows):
        self.fields = pairs(fields)
        self.rows = rows


def pairs(fields):
    """The ``(name, width)`` pair of each field of a layout, ``width`` None
    for a plain name."""
    return tuple((f, None) if isinstance(f, str) else tuple(f) for f in fields)


def columns(fields):
    """The CSV header of rows laid out by ``fields`` (as for :class:`Records`):
    a ``(name, width)`` field is ``width`` columns named by ``name`` with its
    last character replaced by 1..width (``C_n``: ``C_1``, ``C_2``, ...)."""
    cols = []
    for name, width in pairs(fields):
        cols += [name] if width is None else [f"{name[:-1]}{k}" for k in range(1, width + 1)]
    return cols


_CONTAINERS = (dict, list, tuple, Records)

#: Rows held at most in one run, and so in memory, before it is written.
_CHUNK = 256

# How the cells of one tuple of cell types are written: a kind per cell
# ("f" float, "d" int, "n" null, "v" text from the value, "c" text written
# per row: a JSON container, or in CSV any other object), the masks of the
# float and of the "v" cells, and the "c" positions.
_RowType = namedtuple("_RowType", "kinds floats values containers")


@lru_cache(maxsize=256)
def _row_type(types, json_out):
    kinds = []
    for t in types:
        if issubclass(t, float):
            kinds.append("f")
        elif t is int:
            kinds.append("d")
        elif t is type(None):
            kinds.append("n")
        elif issubclass(t, (str, int)):  # bool is an int
            kinds.append("v")
        elif not json_out or issubclass(t, _CONTAINERS):
            kinds.append("c")
        else:
            raise TypeError(f"cannot serialize {t.__name__}")
    return _RowType(tuple(kinds), tuple(k == "f" for k in kinds), tuple(k == "v" for k in kinds),
                    tuple(i for i, k in enumerate(kinds) if k == "c"))


def _csv_value(x):
    # CSV text of a cell whose text depends on its value
    return ("true" if x else "false") if isinstance(x, bool) else str(x)


def _json_value(x):
    return json.dumps(x) if isinstance(x, str) else _csv_value(x)


_SLOTS = {"f": FLOAT_FMT, "d": "%d", "c": "%s"}


@lru_cache(maxsize=256)
def _template(style, fields, level, shape):
    """The ``%`` template of a row of ``shape`` (its :class:`_RowType`, the
    text of its "v" cells and whether each float is finite) in ``style``
    ("csv", or a JSON "value", "list", "object" or list-item "record"; an
    object's ``fields`` are (JSON key text, list width or None) pairs) and
    the mask of the cells it formats (None: every cell)."""
    row_type, texts, finite = shape
    json_out = style != "csv"
    texts, finite = iter(texts), iter(finite)
    cells, slots = [], []
    for kind in row_type.kinds:
        if kind == "f" and not next(finite):
            kind = "n"
        slots.append(kind in _SLOTS)
        if kind == "v":
            cells.append(next(texts).replace("%", "%%"))
        elif kind == "n":
            cells.append("null" if json_out else "")
        else:
            cells.append(_SLOTS[kind])
    slots = None if all(slots) else tuple(slots)
    if style == "csv":
        return ",".join(cells) + "\n", slots
    if style == "value":
        return cells[0], slots
    pad = _INDENT * level
    inner = pad + _INDENT
    if fields is None:  # a list
        return "[\n" + ",\n".join(inner + c for c in cells) + "\n" + pad + "]", slots
    cells, entries = iter(cells), []
    for key, width in fields:
        if width is None:
            value = next(cells)
        elif width == 0:
            value = "[]"
        else:
            items = ",\n".join(inner + _INDENT + next(cells) for _ in range(width))
            value = "[\n" + items + "\n" + inner + "]"
        entries.append(inner + key.replace("%", "%%") + ": " + value)
    text = "{\n" + ",\n".join(entries) + "\n" + pad + "}" if entries else "{}"
    return (pad + text + ",\n" if style == "record" else text), slots


#: The end of an iterator of rows, which no row is.
_END = object()


def _rows(rows, style, fields=None, level=0):
    """Yield the text of ``rows`` (sequences of cells, a 2-D float array,
    or an iterable of 2-D float arrays), one run of at most ``_CHUNK``
    rows at a time."""
    if isinstance(rows, np.ndarray):
        yield from _float_rows((rows,), style, fields, level)
        return
    rows = iter(rows)
    first = next(rows, _END)
    if first is _END:
        return
    rows = chain((first,), rows)
    if isinstance(first, np.ndarray) and first.ndim == 2:
        yield from _float_rows(rows, style, fields, level)
    else:
        yield from _cell_rows(rows, style, fields, level)


def _float_rows(blocks, style, fields, level):
    # _rows of 2-D float arrays, each read _CHUNK rows at a time
    json_out = style != "csv"
    for block in blocks:
        width = block.shape[1]
        shape = (_row_type((float,) * width, json_out), (), (True,) * width)
        template, _ = _template(style, fields, level, shape)
        for lo in range(0, len(block), _CHUNK):
            chunk = block[lo:lo + _CHUNK]
            if np.isfinite(chunk).all():
                yield (template * len(chunk)) % tuple(chunk.ravel().tolist())
            else:
                yield from _cell_rows(chunk.tolist(), style, fields, level)


def _cell_rows(rows, style, fields, level):
    # _rows of sequences of cells
    json_out = style != "csv"
    render = _json_value if json_out else _csv_value
    write = partial(_json, level=level + 1) if json_out else str
    types = shape = None
    # the (template, slots) of each shape in the run, which skips the
    # rendering and _template's key (it hashes the fields) for alternating
    # shapes; reset with each run, so that distinct string cells cannot
    # grow it past _CHUNK shapes
    shapes, run, cells = {}, [], []
    for row in rows:
        if (row_types := tuple(map(type, row))) != types:
            types, row_type = row_types, _row_type(row_types, json_out)
        if row_type.containers:
            row = list(row)
            for i in row_type.containers:
                row[i] = write(row[i])
        # the shape, keyed on the raw "v" cells: their text is rendered
        # once per shape and run
        key = (types, tuple(compress(row, row_type.values)),
               tuple(map(math.isfinite, compress(row, row_type.floats))))
        if key != shape:  # a row of the last row's shape skips the lookup
            shape = key
            if (entry := shapes.get(key)) is None:
                texts = tuple(map(render, key[1]))
                entry = shapes[key] = _template(style, fields, level, (row_type, texts, key[2]))
            template, slots = entry
        run.append(template)
        cells.extend(compress(row, slots) if slots else row)
        if len(run) == _CHUNK:
            yield "".join(run) % tuple(cells)
            shapes, run, cells = {}, [], []
    if run:
        yield "".join(run) % tuple(cells)


def _key(key):
    return json.dumps(str(key))


def _json(obj, level):
    """JSON text of ``obj``, its nested lines indented from ``level``."""
    if isinstance(obj, Records):
        fields = tuple((_key(k), width) for k, width in obj.fields)
        pieces = list(_rows(obj.rows, "record", fields, level + 1))
        if not pieces:
            return "[]"
        pieces[-1] = pieces[-1][:-2]  # the last object takes no ",\n"
        return "".join(["[\n", *pieces, "\n", _INDENT * level, "]"])
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        fields = tuple((_key(k), None) for k in obj)
        return "".join(_rows([tuple(obj.values())], "object", fields, level))
    if isinstance(obj, (list, tuple)):
        return "".join(_rows([obj], "list", None, level)) if obj else "[]"
    return "".join(_rows([(obj,)], "value"))


def dumps_json(obj) -> str:
    """Serialize to JSON with fixed float formatting and key order."""
    return _json(obj, 0) + "\n"


def write_csv_rows(stream, header, rows):
    """Emit a delimited table with deterministic cell formatting; ``rows``
    are sequences of cells, a 2-D float array, or an iterable of 2-D float
    arrays (blocks of rows), each block written before the next is taken."""
    stream.write(",".join(header) + "\n")
    for text in _rows(rows, "csv"):
        stream.write(text)
