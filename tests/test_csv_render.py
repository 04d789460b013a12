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

from repro.experiments import SimulationCache, SweepSpec, run_sweep
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

#: Column kinds and their cell strategies.
KINDS = {
    "float": floats,
    "int": st.integers(min_value=-(2**62), max_value=2**62),
    "text": texts,
    "mixed_number": st.one_of(ints, floats),
    "anything": anything,
}

#: Row counts: empty, one row, a few, and past one chunk.
ROW_COUNTS = (0, 1, 7, _CSV_CHUNK_ROWS + 5)


@st.composite
def tables(draw):
    """``(columns, cells, missing)``: a table plus absent dict keys."""
    names = draw(st.lists(texts, min_size=0, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(sorted(KINDS))) for _ in names]
    count = draw(st.sampled_from(ROW_COUNTS)) if names else 0
    cells = []
    for kind in kinds:
        # A short drawn cycle tiled to the row count keeps large tables
        # cheap while still repeating values (the memo's case).
        cycle = draw(st.lists(KINDS[kind], min_size=1, max_size=12))
        cells.append([cycle[i % len(cycle)] for i in range(count)])
    cells_total = count * len(names)
    missing = (
        draw(st.sets(st.integers(0, cells_total - 1), max_size=6))
        if cells_total
        else set()
    )
    return tuple(names), cells, missing


def _stores(names, cells, missing):
    """The same cells behind the row-dict and packed stores."""
    rows = [dict(zip(names, values)) for values in zip(*cells)] if names else []
    for flat in missing:
        # Missing keys export as empty cells, like None.
        row, column = divmod(flat, len(names))
        rows[row].pop(names[column], None)
        cells[column][row] = None
    packed = SweepResult.from_packed(names, list(zip(*cells)) if names else [])
    return {
        "rows": SweepResult(columns=names, rows=rows),
        "packed": packed,
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
    names, cells, missing = table
    for store in _stores(names, cells, missing).values():
        _assert_matches_oracle(store, tmp_path)


@pytest.mark.parametrize("store", ["rows", "packed"])
@pytest.mark.parametrize("count", ROW_COUNTS)
def test_special_floats_keep_their_text(store, count, tmp_path):
    """-0.0 next to 0.0 (equal, printed differently) must survive dedup."""
    cycle = list(SPECIAL_FLOATS)
    column = [cycle[i % len(cycle)] for i in range(count)]
    labels = [f"r{i % 3}" for i in range(count)]
    table = _stores(("x", "label"), [column, labels], set())[store]
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


class TestCsvStreaming:
    """A real sweep table through ``iter_csv``, ``write_csv`` and ``to_csv``."""

    @pytest.fixture(scope="class")
    def table(self):
        spec = SweepSpec(workloads=("llama3-8b-decode",), chips=("NPU-D",))
        return run_sweep(spec, cache=SimulationCache())

    def test_iter_csv_matches_to_csv(self, table):
        assert "".join(table.iter_csv()) == table.to_csv()

    def test_write_csv_streams_identical_bytes(self, table, tmp_path):
        path = tmp_path / "sweep.csv"
        rows_written = table.write_csv(path)
        assert rows_written == len(table)
        assert path.read_text() == table.to_csv()

    def test_header_first(self, table):
        first = next(iter(table.iter_csv()))
        assert first.rstrip("\n").split(",")[: len(table.columns)] == list(
            table.columns
        )

    def test_empty_table(self, tmp_path):
        empty = SweepResult.from_rows([])
        assert empty.write_csv(tmp_path / "empty.csv") == 0
        assert (tmp_path / "empty.csv").read_text() == empty.to_csv()
