"""Deterministic result tables and their JSON/CSV renderings.

Every scenario run produces a :class:`ResultTable`: a metadata block (seed,
grid, toolkit version, column provenance), a header naming every column,
and rows of scalars.  Floats are rendered as 17-significant-digit decimals
so doubles round-trip exactly and reruns with the same seed are
byte-identical; CSV output is RFC-4180-style with LF line endings and "."
decimals, with the metadata in a sidecar JSON block.

The rows are rendered by column format, one row at a time.  Each column's
format is chosen once: a column of finite Python floats is printed with
``%.17g``, the same bytes as :func:`format_number`, and every other column
goes through the per-value renderer.  A JSON row is one ``%`` of a row
template and the whole text is joined once; CSV rows go through
``csv.writer``, which quotes string cells as needed.  Non-float cells are
rendered lazily, row by row, so the first bad value raises as it would in
a row-major loop.  The JSON of the default 9 001-row Leggett scan peaks at
2.5 times its length under tracemalloc; joining each nesting level on its
own, as ``render_json`` does, peaks at 3.5 times.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter

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


@dataclass
class ResultTable:
    meta: dict
    columns: list[str]
    rows: list[list] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"row width {len(values)} != {len(self.columns)} columns")
        self.rows.append(list(values))


def _float_columns(table: ResultTable) -> list[bool]:
    """Whether each column of ``table`` holds only finite Python floats."""
    flags = []
    for i in range(len(table.columns)):
        column = list(map(itemgetter(i), table.rows))
        flags.append(set(map(type, column)) == {float} and all(map(math.isfinite, column)))
    return flags


def _row_cells(table: ResultTable, renderers: list):
    """The rows of ``table`` as tuples made one at a time, column i through ``renderers[i]`` unless it is None."""
    if not renderers:  # rows of no cells
        return map(tuple, table.rows)
    columns = [map(itemgetter(i), table.rows) for i in range(len(renderers))]
    return zip(*[column if render is None else map(render, column) for column, render in zip(columns, renderers)])


def render_table_json(table: ResultTable) -> str:
    """``render_json`` of the table's meta, columns and rows, plus a newline."""
    head = f'{{\n  "meta": {render_json(table.meta, 1)},\n  "columns": {render_json(table.columns, 1)},\n  "rows": '
    if not table.rows:
        return head + "[]\n}\n"
    floats = _float_columns(table)
    row = "    [\n      " + ",\n      ".join("%.17g" if f else "%s" for f in floats) + "\n    ]" if floats else "    []"
    cells = _row_cells(table, [None if f else _render_scalar for f in floats])
    parts = [head + "[\n" + row % next(cells)]
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
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(_row_cells(table, ["%.17g".__mod__ if f else _csv_cell for f in _float_columns(table)]))
    return buffer.getvalue()


def render_table_csv_sidecar(table: ResultTable) -> str:
    return render_json(table.meta) + "\n"
