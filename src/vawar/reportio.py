"""Deterministic report serialization through one template formatter.

Every report, JSON or CSV, is written by filling ``%`` templates, one
template per row shape.  A row is a flat sequence of cells; its shape is
the type of each cell plus the text of the cells whose text depends on
their value (strings, bools) and the positions of its non-finite floats.
The template of a shape holds the keys, the indentation and the fixed
cells, and a slot per varying number: ``%.17g`` for a float (17
significant digits round-trip binary64, so identical inputs give
byte-identical reports) and ``%d`` for an int.  Consecutive rows of one
shape are written by one ``%`` over a flat tuple of their numbers, up to
``_CHUNK`` rows at a time, so the formatter recurses over containers and
shapes, never over the numbers, and holds at most a chunk of them.

Cell rules, the same in every report:

- a finite float is ``%.17g``, an int is ``%d``;
- a non-finite float and ``None`` are ``null`` in JSON and an empty cell
  in CSV;
- a bool is ``true``/``false``; a string is JSON-escaped in JSON and
  written as is in CSV;
- empty lists and dicts are written ``[]`` and ``{}``.

JSON is indented by ``indent`` spaces per level, one value per line; a
:class:`Records` is written as a list of objects without building a dict
per row.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from functools import lru_cache
from itertools import chain, compress, islice

SCHEMA_VERSION = 1

#: Format of every float written (17 significant digits round-trip binary64).
FLOAT_FMT = "%.17g"


class Records:
    """Rows of one field layout, written by :func:`dumps_json` as a list of
    JSON objects.

    ``fields`` are key names, or ``(name, width)`` pairs for a list-valued
    key whose ``width`` items are consecutive cells of the row.  Each row
    is a flat sequence of cells (as for :func:`write_csv_rows`).
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


class _Text(str):
    """A cell already written in the output format (a nested container)."""


_CONTAINERS = (dict, list, tuple, Records)

#: Rows checked against the current shape at once.
_CHUNK = 256

# How the cells of one tuple of cell types are written: a kind per cell
# ("f" float, "d" int, "n" null, "s" written text, "v" text from the value,
# "c" a container still to be written), the masks of the float and of the
# "v" cells (None where there are none), and the container positions.
_RowType = namedtuple("_RowType", "kinds floats values containers")


def _mask(kinds, wanted):
    mask = tuple(k in wanted for k in kinds)
    return mask if any(mask) else None


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
        elif issubclass(t, _Text):
            kinds.append("s")
        elif not json_out or issubclass(t, (str, int)):  # bool is an int
            kinds.append("v")
        elif issubclass(t, _CONTAINERS):
            kinds.append("c")
        else:
            raise TypeError(f"cannot serialize {t.__name__}")
    containers = tuple(i for i, k in enumerate(kinds) if k == "c")
    return _RowType(tuple(kinds), _mask(kinds, "f"), _mask(kinds, "v"), containers)


def _json_value(x):
    # JSON text of a cell whose text depends on its value
    if isinstance(x, bool):
        return "true" if x else "false"
    return json.dumps(x) if isinstance(x, str) else str(x)


def _csv_value(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


_SLOTS = {"f": FLOAT_FMT, "d": "%d", "s": "%s"}


@lru_cache(maxsize=256)
def _template(style, fields, indent, level, shape):
    """The ``%`` template of a row of ``shape`` in ``style`` ("csv", or a
    JSON "value", "list", "object" or list-item "record"; an object's
    ``fields`` are (JSON key text, list width or None) pairs) and the mask
    of the cells it formats (None: every cell)."""
    types, texts, finite = shape
    json_out = style != "csv"
    texts, finite = iter(texts), iter(finite)
    cells, slots = [], []
    for kind in _row_type(types, json_out).kinds:
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
    pad = " " * (indent * level)
    inner = pad + " " * indent
    if fields is None:  # a list
        return "[\n" + ",\n".join(inner + c for c in cells) + "\n" + pad + "]", slots
    cells, entries = iter(cells), []
    for key, width in fields:
        if width is None:
            value = next(cells)
        elif width == 0:
            value = "[]"
        else:
            items = ",\n".join(inner + " " * indent + next(cells) for _ in range(width))
            value = "[\n" + items + "\n" + inner + "]"
        entries.append(inner + key.replace("%", "%%") + ": " + value)
    text = "{\n" + ",\n".join(entries) + "\n" + pad + "}" if entries else "{}"
    return (pad + text + ",\n" if style == "record" else text), slots


def _rows(rows, style, fields=None, indent=0, level=0):
    """Yield the text of ``rows`` (sequences of cells), one template per
    row shape.

    Rows are taken ``_CHUNK`` at a time: a chunk whose every row has the
    current shape is checked in bulk, any other chunk row by row, and the
    rows of one shape in a chunk are written by one ``%``, so memory stays
    bounded by a chunk."""
    json_out = style != "csv"
    render = _json_value if json_out else _csv_value
    pieces, values = [], []
    shape = kind = template = slots = None
    count = 0

    def fits(part):
        # the cells of part, in order, if each of its rows has the current shape
        if shape is None:
            return None
        types, texts, finite = shape
        k = len(part)
        if k > 1 and set(map(len, part)) != {len(types)}:
            return None
        cells = list(chain.from_iterable(part)) if k > 1 else part[0]
        if tuple(map(type, cells)) != types * k:
            return None
        if kind.floats and (tuple(map(math.isfinite, compress(cells, kind.floats * k)))
                            != finite * k):
            return None
        if kind.values and tuple(map(render, compress(cells, kind.values * k))) != texts * k:
            return None
        return cells

    def flush():
        nonlocal values, count
        if count:
            pieces.append((template * count) % tuple(values))
            values, count = [], 0

    def start(row):
        # start a run of row's shape; returns the row with containers written
        nonlocal shape, kind, template, slots
        types = tuple(map(type, row))
        rt = _row_type(types, json_out)
        if rt.containers:
            row = list(row)
            for i in rt.containers:
                row[i] = _Text(_json(row[i], indent, level + 1))
            types = tuple(map(type, row))
            rt = _row_type(types, json_out)
        finite = tuple(map(math.isfinite, compress(row, rt.floats))) if rt.floats else ()
        texts = tuple(map(render, compress(row, rt.values))) if rt.values else ()
        flush()
        shape, kind = (types, texts, finite), rt
        template, slots = _template(style, fields, indent, level, shape)
        return row

    def add(part, cells):
        nonlocal count
        values.extend(compress(cells, slots * len(part)) if slots else cells)
        count += len(part)

    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK)):
        cells = fits(chunk)
        if cells is not None:
            add(chunk, cells)
        else:
            for row in chunk:
                cells = fits((row,))
                add((row,), start(row) if cells is None else cells)
        flush()
        yield from pieces
        pieces.clear()


def _key(key):
    return json.dumps(str(key))


def _json(obj, indent, level):
    """JSON text of ``obj``, its nested lines indented from ``level``."""
    if isinstance(obj, Records):
        fields = tuple((_key(k), width) for k, width in obj.fields)
        pieces = list(_rows(obj.rows, "record", fields, indent, level + 1))
        if not pieces:
            return "[]"
        pieces[-1] = pieces[-1][:-2]  # the last object takes no ",\n"
        return "".join(["[\n", *pieces, "\n", " " * (indent * level), "]"])
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        fields = tuple((_key(k), None) for k in obj)
        return "".join(_rows([tuple(obj.values())], "object", fields, indent, level))
    if isinstance(obj, (list, tuple)):
        return "".join(_rows([obj], "list", None, indent, level)) if obj else "[]"
    return "".join(_rows([(obj,)], "value"))


def dumps_json(obj, indent=2) -> str:
    """Serialize to JSON with fixed float formatting and key order."""
    return _json(obj, indent, 0) + "\n"


def write_csv_rows(stream, header, rows):
    """Emit a delimited table with deterministic cell formatting."""
    stream.write(",".join(header) + "\n")
    for text in _rows(rows, "csv"):
        stream.write(text)
