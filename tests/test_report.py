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
# an array column is a list drawn from the strategy, converted to the dtype
ARRAYS = {
    "float64 array": (FINITE, np.float64),
    "int64 array": (INT64, np.int64),
    "bool array": (st.booleans(), np.bool_),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS) + sorted(ARRAYS)), max_size=4))
    columns = draw(st.lists(st.text(max_size=6), min_size=len(kinds), max_size=len(kinds)))
    rows = draw(st.integers(0, 5))
    data = []
    for kind in kinds:
        if kind in ARRAYS:
            cells, dtype = ARRAYS[kind]
            data.append(np.array(draw(st.lists(cells, min_size=rows, max_size=rows)), dtype=dtype))
        else:
            data.append(draw(st.lists(CELLS[kind], min_size=rows, max_size=rows)))
    return ResultTable({"scenario": draw(st.text(max_size=6)), "seed": draw(INT64), "x": draw(FINITE)}, columns, data)


def legacy_json(table):
    rows = [list(row) for row in zip(*table.data)]
    return render_json({"meta": table.meta, "columns": table.columns, "rows": rows}) + "\n"


@given(tables())
def test_renderers_match_the_per_value_renderer(table):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert render_table_json(table) == legacy_json(table)
        assert render_table_csv(table) == render_table_csv_oracle(table)


@given(tables())
def test_a_table_built_row_by_row_renders_as_its_columns(table):
    by_row = ResultTable(table.meta, table.columns)
    for row in zip(*table.data):
        by_row.add_row(*row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert render_table_json(by_row) == render_table_json(table)
        assert render_table_csv(by_row) == render_table_csv(table)


@pytest.mark.parametrize("render", [render_table_json, render_table_csv])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_float_in_a_float_column_raises(render, bad):
    listed = ResultTable({}, ["phi", "value"])
    for value in (0.5, bad, 1.5):
        listed.add_row(0.25, value)
    arrays = ResultTable({}, ["phi", "value"], [np.full(3, 0.25), np.array([0.5, bad, 1.5])])
    for table in (listed, arrays):
        with pytest.raises(ValueError, match="cannot render non-finite number"):
            render(table)


@pytest.mark.parametrize("render", [render_table_json, render_table_csv])
@pytest.mark.parametrize(
    "data",
    [[[0.5, 1.5]], [[0.5], [1.5], [2.5]], [[0.5, 1.5], [2.5]], [np.zeros(3), np.zeros(2)]],
    ids=["too-few-columns", "too-many-columns", "unequal-lists", "unequal-arrays"],
)
def test_columns_that_do_not_fit_the_names_are_refused_before_any_text(render, data):
    # the meta would raise its own ValueError if it were rendered first
    table = ResultTable({"x": float("nan")}, ["a", "b"], data)
    with pytest.raises(ValueError, match="need one equal-length column per name"):
        render(table)


def test_a_value_of_no_json_type_is_refused():
    with pytest.raises(TypeError, match="cannot serialize object value"):
        render_json({"meta": [object()]})


def test_a_row_of_the_wrong_width_is_refused():
    table = ResultTable({}, ["a", "b"])
    with pytest.raises(ValueError, match="row width 3 != 2 columns"):
        table.add_row(0.5, 1.5, 2.5)
    assert table.data == [[], []]


def test_table_without_rows_renders():
    table = ResultTable({"scenario": "empty"}, ["a", "b"])
    assert render_table_json(table) == legacy_json(table)
    assert render_table_json(table).endswith('"rows": []\n}\n')
    assert render_table_csv(table) == "a,b\n"


def test_a_table_of_no_columns_has_no_rows():
    table = ResultTable({"scenario": "empty"}, [])
    table.add_row()
    assert render_table_json(table).endswith('"columns": [],\n  "rows": []\n}\n')
    assert render_table_csv(table) == "\n"


def test_the_default_scan_table_holds_its_arrays_not_a_list_per_row():
    args = cli.build_parser().parse_args(["leggett"])
    args.seed = cli.DEFAULT_SEED
    cli.SCENARIOS["leggett"].run(args)  # loads the modules the scenario imports
    tracemalloc.start()
    try:
        table = cli.SCENARIOS["leggett"].run(args)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # four float64 columns of 9 001 values are 0.27 MiB; a list of Python floats per row held 1.65 MiB
    assert len(table.data) == 4 and all(len(column) == 9001 for column in table.data)
    assert held < 0.5 * 2**20, held


def test_json_render_of_the_default_scan_holds_under_three_copies_of_its_text():
    args = cli.build_parser().parse_args(["leggett"])
    args.seed = cli.DEFAULT_SEED
    table = cli.SCENARIOS["leggett"].run(args)
    assert len(table.data[0]) == 9001
    tracemalloc.start()
    try:
        text = render_table_json(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == legacy_json(table)
    assert peak < 3 * len(text), peak / len(text)
