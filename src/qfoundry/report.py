"""Deterministic result tables and their JSON/CSV renderings.

Every scenario run produces a :class:`ResultTable`: a metadata block (seed,
grid, toolkit version, column provenance), a header naming every column,
and rows of scalars.  Floats are rendered as 17-significant-digit decimals
so doubles round-trip exactly and reruns with the same seed are
byte-identical; CSV output is RFC-4180-style with LF line endings and "."
decimals, with the metadata in a sidecar JSON block.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

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


def render_table_json(table: ResultTable) -> str:
    payload = {"meta": table.meta, "columns": table.columns, "rows": table.rows}
    return render_json(payload) + "\n"


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
    for row in table.rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buffer.getvalue()


def render_table_csv_sidecar(table: ResultTable) -> str:
    return render_json(table.meta) + "\n"
