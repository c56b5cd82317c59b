"""Deterministic JSON and CSV report emission.

Reports are plain dicts of JSON-able values.  Floats are printed with 17
significant digits, which round-trips doubles exactly, so identical inputs
produce byte-identical files and parsing a file recovers the report
losslessly.  Infinities and NaN use the Python json module's spelling
(Infinity / -Infinity / NaN) so json.loads reads our output back.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def to_jsonable(obj):
    """Coerce report records (NamedTuple classes and dataclasses), numpy
    scalars/arrays, and containers to plain JSON-able Python values; a
    record becomes a dict in field order."""
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        return {k: to_jsonable(v) for k, v in obj._asdict().items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{_escape(str(k))}": {dumps_json(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if v is None:
        return ""
    s = str(v)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def dumps_csv(report: dict) -> str:
    """Render the report's `rows` (list of flat dicts) as CSV; a report
    without rows becomes a single-row table of its scalar fields."""
    rows = report.get("rows")
    if not rows and isinstance(report.get("results"), dict):
        rows = report["results"].get("rows")
    if not rows:
        flat = report.get("results") if isinstance(report.get("results"), dict) else report
        rows = [{k: v for k, v in flat.items() if not isinstance(v, (dict, list))}]
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(k)) for k in header))
    return "\n".join(lines) + "\n"


def emit_report(report: dict, fmt: str = "json", path=None) -> None:
    """Write the report as JSON or CSV to `path`, or stdout when path is None."""
    report = to_jsonable(report)
    if fmt == "json":
        text = dumps_json(report) + "\n"
    elif fmt == "csv":
        text = dumps_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
