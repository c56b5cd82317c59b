"""Deterministic JSON and CSV report emission.

A report is a tree of dicts, records (NamedTuple classes, written as
objects in field order), lists, tuples, numpy arrays, numpy or Python
scalars, str and None.  One pass turns it into plain Python values and the
stdlib json encoder writes them.  Floats are printed as Python's shortest
round-trip repr, so identical inputs produce byte-identical files and
parsing a file recovers the report losslessly.  Infinities and NaN use the
json module's spelling (Infinity / -Infinity / NaN), and every non-ASCII
character is escaped, so each report is ASCII.

json is imported by the writers, not here, so `import uclab.cli` loads
neither json nor numpy.
"""

from __future__ import annotations

import sys


def _tree(obj):
    """obj as plain Python values: a record becomes a dict in field order
    (a NamedTuple is a tuple too, so it is asked for before a list), a numpy
    scalar or array its .tolist().  numpy is looked up, not imported: its
    objects exist only once it is loaded."""
    if isinstance(obj, dict):
        return {str(k): _tree(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {k: _tree(v) for k, v in zip(obj._fields, obj)}
    if isinstance(obj, (list, tuple)):
        return [_tree(v) for v in obj]
    np = sys.modules.get("numpy")
    if np and isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    return obj


def dumps_json(obj) -> str:
    import json

    return json.dumps(_tree(obj), indent=2)


def _csv_cell(v) -> str:
    """None as an empty cell, a string as itself, anything else as its JSON
    text; a cell holding a comma, a quote or a newline is quoted."""
    import json

    if v is None:
        return ""
    text = v if isinstance(v, str) else json.dumps(v)
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def dumps_csv(results) -> str:
    """Render the results' `rows` (dicts or records of scalars) as CSV;
    results without rows become a single-row table of their scalar fields."""
    results = _tree(results)
    rows = results.get("rows") or [
        {k: v for k, v in results.items() if not isinstance(v, (dict, list))}]
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
