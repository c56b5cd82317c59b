"""Deterministic JSON and CSV report emission.

A report is a tree of dicts, records (NamedTuple classes, written as
objects in field order), lists, tuples, numpy arrays, numpy or Python
scalars, str and None, and the writer walks it once.  Floats are
printed with 17 significant digits, which round-trips doubles exactly, so
identical inputs produce byte-identical files and parsing a file recovers
the report losslessly.  Infinities and NaN use the Python json module's
spelling (Infinity / -Infinity / NaN) so json.loads reads our output back.
"""

from __future__ import annotations

import math
import sys

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _fields(obj):
    """The (name, value) pairs of a dict or a NamedTuple in order, else None.
    A NamedTuple is a tuple too, so it must be asked for before a list."""
    if isinstance(obj, dict):
        return obj.items()
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return zip(obj._fields, obj)
    return None


def _scalar(obj) -> str | None:
    """The JSON text of None, a bool, an int or a float (numpy's too), else None."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    return None


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif not " " <= ch <= "\x7f":
            # \uXXXX (a surrogate pair beyond the BMP): every report is ASCII
            units = ch.encode("utf-16-be", "surrogatepass")
            out.extend(f"\\u{units[k]:02x}{units[k + 1]:02x}" for k in range(0, len(units), 2))
        else:
            out.append(ch)
    return "".join(out)


def dumps_json(obj, indent: int = 0) -> str:
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    text = _scalar(obj)
    if text is not None:
        return text
    if isinstance(obj, np.ndarray):
        return dumps_json(obj.tolist(), indent)
    inner = " " * (indent + 2)
    fields = _fields(obj)
    if fields is not None:
        items = [f'{inner}"{_escape(str(k))}": {dumps_json(v, indent + 2)}' for k, v in fields]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [f"{inner}{dumps_json(v, indent + 2)}" for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + " " * indent + brackets[1]


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if not isinstance(v, str):
        text = _scalar(v)
        if text is None:
            raise TypeError(f"cannot write {type(v).__name__} in a CSV cell")
        return text
    if any(ch in v for ch in ',"\n'):
        return '"' + v.replace('"', '""') + '"'
    return v


def dumps_csv(results) -> str:
    """Render the results' `rows` (dicts or records of scalars) as CSV;
    results without rows become a single-row table of their scalar fields."""
    fields = dict(_fields(results))
    rows = [dict(_fields(row)) for row in fields.get("rows") or ()]
    if not rows:
        rows = [{k: v for k, v in fields.items()
                 if _fields(v) is None and not isinstance(v, (list, tuple, np.ndarray))}]
    header = list(rows[0])
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(row.get(k)) for k in header) for row in rows]
    return "\n".join(lines) + "\n"


def emit_report(report: dict, fmt: str = "json", path=None) -> None:
    """Write the report as JSON, or its results as CSV, to `path`, or stdout
    when path is None.  The whole text is built before `path` is opened, so
    a report that cannot be written leaves the file as it was."""
    if fmt == "json":
        text = dumps_json(report) + "\n"
    elif fmt == "csv":
        text = dumps_csv(report["results"])
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
