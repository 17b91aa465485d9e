"""Published JSON schemas (draft 2020-12) of the CLI reports.

Each schema is built from the layout its report is written from:
``MomentReport.json_fields``, the sweep, contrast and validate layouts of
``vawar.cli`` and ``vawar.charfn.SIDECAR_FIELDS``.  A field takes the value
fragment of its name from ``_VALUES``; a ``(name, width)`` field is a list
of floats; any other field is a float.  A float is a number or ``null``,
as the reports write a NaN or infinite float as ``null``.  Every report
carries ``schema_version``; the test suite validates the documents the CLI
writes against these schemas.
"""

from .charfn import SIDECAR_FIELDS
from .cli import CONTRAST_FIELDS, SWEEP_COLUMNS, VALIDATE_FIELDS, WINDOW_HEAD
from .moments import MomentReport
from .reportio import SCHEMA_VERSION, pairs


def _int(lo):
    return {"type": "integer", "minimum": lo}


_FLOAT = {"type": ["number", "null"]}
_FLOATS = {"type": "array", "items": _FLOAT}
_VALUES = {
    "window_start": _int(0), "window_count": _int(2), "lag": _int(1), "order_max": _int(1),
    "j": _int(0), "l1": _int(1), "l2": _int(1), "n": _int(1), "m": _int(1),
    "statistic": {"type": "string"},
    "order": _int(1), "coefficients": _FLOATS, "damping_b": {"type": "number", "minimum": 0},
    "damping_q": _int(1), "moments": _FLOATS, "points": _int(9),
    "x_half_width": {"type": "number", "exclusiveMinimum": 0}, "x_points": _int(2),
    "moment_residuals": _FLOATS,
    "valid": {"type": "boolean"}, "ticks": _int(0),
    "error": {"type": ["object", "null"], "required": ["kind", "message"],
              "properties": {"kind": {"type": "string"}, "message": {"type": "string"}},
              "additionalProperties": False},
}


def _fields(layout):
    # the value fragment of each field of a layout
    return {name: _VALUES.get(name, _FLOAT) if width is None else _FLOATS
            for name, width in pairs(layout)}


def _object(*parts):
    # an object of exactly the keys of parts, in order, each with its fragment
    props = {k: v for part in parts for k, v in part.items()}
    return {"type": "object", "required": list(props), "properties": props,
            "additionalProperties": False}


def _report(subcommand, *parts):
    envelope = {"schema_version": {"const": SCHEMA_VERSION}, "subcommand": subcommand}
    return {"$schema": "https://json-schema.org/draft/2020-12/schema",
            **_object(envelope, *parts)}


def _records(key, item):
    return {key: {"type": "array", "items": item}}


MOMENT_REPORT_SCHEMA = _object(_fields(MomentReport.json_fields(1)))
STATS_SCHEMA = _report({"const": "stats"}, _records("reports", MOMENT_REPORT_SCHEMA))
SWEEP_ROW_SCHEMA = _object(_fields(SWEEP_COLUMNS))
SWEEP_SCHEMA = _report({"enum": ["acorr", "xcorr"]}, _fields(WINDOW_HEAD),
                       _records("rows", SWEEP_ROW_SCHEMA))
DENSITY_SIDECAR_SCHEMA = _report({"const": "density"}, _fields(SIDECAR_FIELDS))
CONTRAST_SCHEMA = _report({"const": "contrast"}, _fields(CONTRAST_FIELDS))
VALIDATE_SCHEMA = _report({"const": "validate"}, _fields(VALIDATE_FIELDS))
