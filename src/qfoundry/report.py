"""Deterministic result tables and their JSON/CSV renderings.

Every scenario run produces a :class:`ResultTable`: a metadata block (seed,
grid, toolkit version, column provenance), a header naming every column,
and one sequence per column as the scenario computed it, a scan's float64
arrays or a row-wise table's tuples.  Floats are rendered as
17-significant-digit decimals so doubles round-trip exactly and reruns with
the same seed are byte-identical; CSV output is RFC-4180-style with LF line
endings and "." decimals, with the metadata in a sidecar JSON block.

The renderers read the columns directly, one row of text at a time.  A
float64 array of finite values, or a list of finite Python floats, is
printed with ``%.17g`` (:func:`format_number`'s bytes for either type); any
other column goes lazily through the per-value renderer, so the first bad
value raises as in a row-major loop.  Arrays are not copied into lists:
with ``.tolist()`` in the render, the default 9 001-row Leggett scan's JSON
peaks at 3.6 times its text under tracemalloc, against 2.5 times.  A JSON
row is one ``%`` of a row template; CSV rows go through ``csv.writer``.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np


def format_number(value) -> str:
    """17-significant-digit, locale-free decimal rendering of a finite float.

    NaN and infinities have no JSON spelling, so they raise ValueError.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot render non-finite number {value!r}")
    return format(value, ".17g")


def _render_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_number(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__} value {value!r}")


def render_json(obj, indent: int = 0) -> str:
    """Minimal JSON emitter with .17g floats and insertion-ordered keys."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return _render_scalar(obj)


class ResultTable:
    """``meta``, the column names, and ``data``: one float64 array, list or tuple per column; ``None`` starts empty lists."""

    def __init__(self, meta: dict, columns: list[str], data: list | None = None) -> None:
        self.meta, self.columns = meta, columns
        self.data = [[] for _ in columns] if data is None else data

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"row width {len(values)} != {len(self.columns)} columns")
        for column, value in zip(self.data, values):
            column.append(value)


def _columns(table: ResultTable) -> list[tuple]:
    """``(column, is_float)`` for each column of ``table``, refused unless they match its names and each other in length."""
    lengths = [len(column) for column in table.data]
    if len(lengths) != len(table.columns) or len(set(lengths)) > 1:
        raise ValueError(f"need one equal-length column per name; got lengths {lengths} for {len(table.columns)} names")
    columns = []
    for column in table.data:
        if isinstance(column, np.ndarray):
            is_float = column.dtype == np.float64 and bool(np.isfinite(column).all())
        else:
            is_float = set(map(type, column)) == {float} and all(map(math.isfinite, column))
        columns.append((column, is_float))
    return columns


def render_table_json(table: ResultTable) -> str:
    """``render_json`` of the table's meta, columns and rows, plus a newline."""
    columns = _columns(table)
    head = f'{{\n  "meta": {render_json(table.meta, 1)},\n  "columns": {render_json(table.columns, 1)},\n  "rows": '
    cells = zip(*[column if is_float else map(_render_scalar, column) for column, is_float in columns])
    first = next(cells, None)
    if first is None:
        return head + "[]\n}\n"
    row = "    [\n      " + ",\n      ".join("%.17g" if is_float else "%s" for _, is_float in columns) + "\n    ]"
    parts = [head + "[\n" + row % first]
    parts.extend(map((",\n" + row).__mod__, cells))
    parts.append("\n  ]\n}\n")
    return "".join(parts)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _render_scalar(value)


def render_table_csv(table: ResultTable) -> str:
    columns = _columns(table)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(zip(*[map("%.17g".__mod__ if is_float else _csv_cell, column) for column, is_float in columns]))
    return buffer.getvalue()


def render_table_csv_sidecar(table: ResultTable) -> str:
    return render_json(table.meta) + "\n"
