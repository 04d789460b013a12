"""The column CSV renderer against the per-row ``csv.writer`` oracle.

:meth:`SweepResult.iter_csv` renders a chunk of rows column by column
(one ``repr`` per distinct float bit pattern, memoized quoting for the
other cells); :func:`iter_csv_oracle` writes one row at a time through
``csv.writer`` with floats by ``repr``.  Every store must give the same
bytes through ``iter_csv``, ``to_csv`` and ``write_csv``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.result import _CSV_CHUNK_ROWS, SweepResult, iter_csv_oracle

#: Doubles whose text a value-keyed memo or a careless formatter gets wrong.
SPECIAL_FLOATS = (
    -0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 0.1, 1.0,
)

floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
ints = st.integers(min_value=-(2**70), max_value=2**70)
texts = st.one_of(
    st.sampled_from(("", "a,b", 'say "hi"', "two\nlines", "cr\rlf", " pad ", "NoPG")),
    st.text(max_size=8),
)
anything = st.one_of(floats, ints, texts, st.none(), st.booleans())

#: Column kinds: cell strategy, and whether the series store gets an array.
KINDS = {
    "float": (floats, np.float64),
    "int": (st.integers(min_value=-(2**62), max_value=2**62), np.int64),
    "text": (texts, None),
    "mixed_number": (st.one_of(ints, floats), None),
    "anything": (anything, None),
}

#: Row counts: empty, one row, a few, and past one chunk.
ROW_COUNTS = (0, 1, 7, _CSV_CHUNK_ROWS + 5)


@st.composite
def tables(draw):
    """``(columns, kinds, cells, missing)``: a table plus absent dict keys."""
    names = draw(st.lists(texts, min_size=0, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(sorted(KINDS))) for _ in names]
    count = draw(st.sampled_from(ROW_COUNTS)) if names else 0
    cells = []
    for kind in kinds:
        # A short drawn cycle tiled to the row count keeps large tables
        # cheap while still repeating values (the memo's case).
        cycle = draw(st.lists(KINDS[kind][0], min_size=1, max_size=12))
        cells.append([cycle[i % len(cycle)] for i in range(count)])
    cells_total = count * len(names)
    missing = (
        draw(st.sets(st.integers(0, cells_total - 1), max_size=6))
        if cells_total
        else set()
    )
    return tuple(names), kinds, cells, missing


def _stores(names, kinds, cells, missing):
    """The same cells behind the row-dict, packed and column stores."""
    rows = [dict(zip(names, values)) for values in zip(*cells)] if names else []
    for flat in missing:
        # Missing keys export as empty cells, like None.
        row, column = divmod(flat, len(names))
        rows[row].pop(names[column], None)
        cells[column][row] = None
    packed = SweepResult.from_packed(names, list(zip(*cells)) if names else [])
    series = {}
    for name, kind, column in zip(names, kinds, cells):
        dtype = KINDS[kind][1]
        if dtype is not None and all(type(cell) is not type(None) for cell in column):
            series[name] = np.array(column, dtype=dtype)
        else:
            series[name] = list(column)
    return {
        "rows": SweepResult(columns=names, rows=rows),
        "packed": packed,
        "series": SweepResult.from_series(names, series),
    }


def _assert_matches_oracle(table, tmp_path):
    expected = "".join(iter_csv_oracle(table))
    assert "".join(table.iter_csv()) == expected
    assert table.to_csv() == expected
    path = tmp_path / "table.csv"
    assert table.write_csv(path) == len(table)
    assert path.read_bytes() == expected.encode("utf-8")


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(table=tables())
def test_every_store_matches_the_oracle(table, tmp_path):
    names, kinds, cells, missing = table
    for store in _stores(names, kinds, cells, missing).values():
        _assert_matches_oracle(store, tmp_path)


@pytest.mark.parametrize("store", ["rows", "packed", "series"])
@pytest.mark.parametrize("count", ROW_COUNTS)
def test_special_floats_keep_their_text(store, count, tmp_path):
    """-0.0 next to 0.0 (equal, printed differently) must survive dedup."""
    cycle = list(SPECIAL_FLOATS)
    column = [cycle[i % len(cycle)] for i in range(count)]
    labels = [f"r{i % 3}" for i in range(count)]
    table = _stores(
        ("x", "label"), ["float", "text"], [column, labels], set()
    )[store]
    _assert_matches_oracle(table, tmp_path)
    if count >= 2:
        lines = table.to_csv().splitlines()
        assert lines[1].startswith("-0.0,") and lines[2].startswith("0.0,")


def test_mixed_cells_and_quoting(tmp_path):
    rows = [
        {"a": 1, "b": 2.5, "c": True, "d": 'q"uote', "e": "x,y"},
        {"a": 2.0, "b": 3, "c": None, "d": "multi\nline"},
        {"a": np.float64(0.5), "b": -0.0, "c": False, "d": "", "e": None},
    ]
    table = SweepResult(columns=("a", "b", "c", "d", "e"), rows=rows)
    _assert_matches_oracle(table, tmp_path)
    assert table.to_csv().splitlines()[1] == '1,2.5,True,"q""uote","x,y"'


@pytest.mark.parametrize(
    "table",
    [
        SweepResult.from_rows([]),
        SweepResult.from_rows([{}, {}]),
        SweepResult.from_packed(("only",), [("",), (None,), ("x",)]),
        SweepResult.from_packed(("",), [(1.0,)]),
    ],
    ids=["empty", "no-columns", "one-empty-field", "empty-header"],
)
def test_degenerate_tables(table, tmp_path):
    _assert_matches_oracle(table, tmp_path)


def test_series_store_is_not_converted(tmp_path):
    """The column store renders from array slices and stays columnar."""
    count = 2 * _CSV_CHUNK_ROWS + 1
    matrix = np.linspace(-1.0, 1.0, 2 * count).reshape(count, 2)
    # Strided column views, like a shard artifact's float matrix.
    table = SweepResult.from_series(("v", "w"), {"v": matrix[:, 0], "w": matrix[:, 1]})
    _assert_matches_oracle(table, tmp_path)
    assert table._series is not None and table._values_list is None
