"""The table renderers against the per-value renderer they replace."""

import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import render_table_csv_oracle
from hypothesis import given
from hypothesis import strategies as st

from qfoundry import cli
from qfoundry.report import ResultTable, render_json, render_table_csv, render_table_json

FINITE = st.floats(allow_nan=False, allow_infinity=False)
INT64 = st.integers(-(2**63), 2**63 - 1)
CELLS = {
    "float": FINITE,
    "int": st.integers(-(2**80), 2**80),
    "bool": st.booleans(),
    "none": st.none(),
    "str": st.text(max_size=8),
    "np.float64": FINITE.map(np.float64),
    "np.int64": INT64.map(np.int64),
    "np.bool_": st.booleans().map(np.bool_),
}
CELLS["mixed"] = st.one_of(*CELLS.values())


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), max_size=4))
    columns = draw(st.lists(st.text(max_size=6), min_size=len(kinds), max_size=len(kinds)))
    table = ResultTable({"scenario": draw(st.text(max_size=6)), "seed": draw(INT64), "x": draw(FINITE)}, columns)
    for row in draw(st.lists(st.tuples(*[CELLS[kind] for kind in kinds]), max_size=5)):
        table.add_row(*row)
    return table


def legacy_json(table):
    return render_json({"meta": table.meta, "columns": table.columns, "rows": table.rows}) + "\n"


@given(tables())
def test_renderers_match_the_per_value_renderer(table):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert render_table_json(table) == legacy_json(table)
        assert render_table_csv(table) == render_table_csv_oracle(table)


@pytest.mark.parametrize("render", [render_table_json, render_table_csv])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_float_in_a_float_column_raises(render, bad):
    table = ResultTable({}, ["phi", "value"])
    for value in (0.5, bad, 1.5):
        table.add_row(0.25, value)
    with pytest.raises(ValueError, match="cannot render non-finite number"):
        render(table)


def test_table_without_rows_renders():
    table = ResultTable({"scenario": "empty"}, ["a", "b"])
    assert render_table_json(table) == legacy_json(table)
    assert render_table_json(table).endswith('"rows": []\n}\n')
    assert render_table_csv(table) == "a,b\n"


def test_json_render_of_the_default_scan_holds_under_three_copies_of_its_text():
    args = cli.build_parser().parse_args(["leggett"])
    args.seed = cli.DEFAULT_SEED
    table = cli.SCENARIOS["leggett"].run(args)
    assert len(table.rows) == 9001
    tracemalloc.start()
    try:
        text = render_table_json(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == legacy_json(table)
    assert peak < 3 * len(text), peak / len(text)
