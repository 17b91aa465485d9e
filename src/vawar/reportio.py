"""Deterministic report serialization.

Every float is rendered with 17 significant digits (``%.17g``), which
round-trips binary64 exactly, so identical inputs always produce
byte-identical reports.  JSON is emitted by a small recursive writer
(the stdlib encoder does not let us pin float formatting); non-finite
floats become ``null`` in JSON and the empty string in CSV.
"""

from __future__ import annotations

import json
import math

SCHEMA_VERSION = 1

#: Format of every float written (17 significant digits round-trip binary64).
FLOAT_FMT = "%.17g"


def format_float(x) -> str:
    return FLOAT_FMT % x


def _write_json(obj, out, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            out.append(pad_in + json.dumps(str(key)) + ": ")
            _write_json(value, out, indent, level + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for k, value in enumerate(obj):
            out.append(pad_in)
            _write_json(value, out, indent, level + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj, indent=2) -> str:
    """Serialize to JSON with fixed float formatting and key order."""
    out = []
    _write_json(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format_float(x) if math.isfinite(x) else ""
    return str(x)


def write_csv_rows(stream, header, rows):
    """Emit a delimited table with deterministic cell formatting."""
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(csv_cell(x) for x in row) + "\n")
