"""Tabular results of a parameter sweep.

A :class:`SweepResult` is a small, dependency-free data frame with a
fixed column order and three interchangeable backing stores:

* a **column store** — one array or list per column
  (:meth:`from_series`; shard merges feed this directly, with float
  columns that may be memory-mapped views into ``.repro-shard``
  artifacts).  ``iter_csv``/``write_csv`` and ``filter`` operate
  straight on the columns — no row tuple or dict is materialized;
* a **packed store** — one value tuple per row (the runner's
  array-native assembly and the row cache feed this directly), with the
  row *dicts* of the legacy API materialized lazily on first access;
* a **row-dict store** — the original ordered list of flat dictionaries
  (:meth:`from_rows`, and what ``group_by`` hands back).

Either way the export (CSV/JSON) and reshaping (filter/group-by/pivot)
helpers behave identically.  CSV export renders column by column, one
chunk of at most :data:`_CSV_CHUNK_ROWS` rows at a time, so resident
memory stays bounded by the chunk: float columns print one ``repr`` per
distinct bit pattern in the chunk, int columns one ``str`` per cell,
and every other cell goes through a per-chunk memo of its csv-quoted
text.  Floats are exported with ``repr`` so a CSV written by a parallel
run is byte-identical to one written by a serial run of the same sweep.
:func:`iter_csv_oracle` is the per-row ``csv.writer`` reference the
column renderer must match byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np


#: Rows rendered per chunk by :meth:`SweepResult.iter_csv`.
_CSV_CHUNK_ROWS = 512


def _csv_fields(cells: Iterable[Any]) -> list[str]:
    """Each cell's text as ``csv.writer`` writes it within a row.

    Floats print by ``repr``.  Quoting stays ``csv``'s own: each cell is
    written as the first of two fields and the trailing ``",\\n"`` is
    cut off.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    texts = []
    for cell in cells:
        writer.writerow((repr(cell) if isinstance(cell, float) else cell, ""))
        texts.append(buffer.getvalue()[:-2])
        buffer.seek(0)
        buffer.truncate(0)
    return texts


def _float_texts(values: Any) -> list[str]:
    """``repr`` of each double, computed once per distinct bit pattern.

    Dedup keys on the ``int64`` view, not on the value: ``-0.0 == 0.0``
    yet the two print differently, and NaN equals nothing.  The memo is
    a dict, not ``np.unique``: a sort buys nothing here, and its first
    call maps another ~0.6 MiB of numpy into a process that may not
    have touched it yet.
    """
    doubles = np.asarray(values, dtype=np.float64)
    bits = doubles.view(np.int64).tolist()
    distinct = dict(zip(bits, doubles.tolist()))
    texts = dict(zip(distinct, map(float.__repr__, distinct.values())))
    return list(map(texts.__getitem__, bits))


def _column_texts(column: Any) -> list[str]:
    """CSV text of every cell of one column chunk."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return _float_texts(column)
        column = column.tolist()
    types = set(map(type, column))
    if types == {float}:
        return _float_texts(column)
    if types == {int}:
        return list(map(int.__repr__, column))
    if types <= {str, bool, type(None)}:
        # Equal values of these types print identically: one memo entry
        # per distinct value is exact.
        distinct = dict.fromkeys(column)
        texts = dict(zip(distinct, _csv_fields(distinct)))
        return list(map(texts.__getitem__, column))
    return _csv_fields(column)


def _csv_lines(texts: list[list[str]], count: int) -> list[str]:
    """The CSV lines of ``count`` rows, given each column's cell texts."""
    if not texts:
        return ["\n"] * count
    if len(texts) == 1:
        # csv.writer quotes a row made of one empty field, so that it
        # does not read back as a blank line.
        texts = [['""' if text == "" else text for text in texts[0]]]
    return [",".join(cells) + "\n" for cells in zip(*texts)]


class SweepResult:
    """An ordered table of sweep rows (one row per point x policy)."""

    def __init__(
        self,
        columns: Sequence[str],
        rows: "Sequence[dict[str, Any]] | None" = None,
        *,
        values: "Sequence[tuple[Any, ...]] | None" = None,
        series: "Mapping[str, Any] | None" = None,
    ):
        if sum(store is not None for store in (rows, values, series)) > 1:
            raise TypeError("pass at most one of rows, values or series")
        self.columns: tuple[str, ...] = tuple(columns)
        self._values_list: list[tuple[Any, ...]] | None = (
            list(values) if values is not None else None
        )
        self._series: dict[str, Any] | None = (
            {name: series[name] for name in self.columns}
            if series is not None
            else None
        )
        self._rows: list[dict[str, Any]] | None = (
            list(rows) if rows is not None else None
        )
        if self._values_list is None and self._rows is None and self._series is None:
            self._rows = []

    @property
    def _values(self) -> "list[tuple[Any, ...]] | None":
        """The packed store, materializing the column store on demand.

        Column-store tables convert lazily: the first packed access
        turns the columns into plain-scalar row tuples (``tolist`` for
        arrays, so ``np.float64`` never leaks into the cells) and drops
        the column store.  Row-dict-backed tables return ``None``, as
        before.
        """
        if self._values_list is None and self._series is not None:
            ordered = [
                column.tolist() if isinstance(column, np.ndarray) else column
                for column in self._series.values()
            ]
            self._values_list = list(zip(*ordered)) if ordered else []
            self._series = None
        return self._values_list

    @_values.setter
    def _values(self, values: "list[tuple[Any, ...]] | None") -> None:
        self._values_list = values
        if values is not None:
            self._series = None

    # -- constructors --------------------------------------------------- #
    @classmethod
    def from_rows(cls, rows: Sequence[dict[str, Any]]) -> "SweepResult":
        """Build a result from row dicts (columns from the first row)."""
        rows = list(rows)
        columns: tuple[str, ...] = tuple(rows[0].keys()) if rows else ()
        return cls(columns=columns, rows=rows)

    @classmethod
    def from_packed(
        cls, columns: Sequence[str], values: Sequence[Sequence[Any]]
    ) -> "SweepResult":
        """Build a result from packed (columns, value-tuples) rows."""
        return cls(columns=columns, values=[tuple(row) for row in values])

    @classmethod
    def from_columns(cls, columns: "Mapping[str, Any]") -> "SweepResult":
        """Build a result from column arrays (one array/list per column).

        NumPy arrays are converted with ``tolist`` so every cell is a
        plain Python scalar (``repr`` of a ``np.float64`` would not
        round-trip the CSV identically).
        """
        names = tuple(columns)
        series = [
            column.tolist() if isinstance(column, np.ndarray) else list(column)
            for column in columns.values()
        ]
        if series and len({len(s) for s in series}) > 1:
            raise ValueError("all columns must have the same length")
        values = list(zip(*series)) if series else []
        return cls(columns=names, values=values)

    @classmethod
    def from_series(cls, columns: Sequence[str], series: "Mapping[str, Any]") -> "SweepResult":
        """Build a column-store result (one array or list per column).

        Unlike :meth:`from_columns`, the columns are kept **as given**
        — float columns may be ndarrays (including memory-mapped views
        into shard artifacts) and are only converted to plain scalars
        when a consumer actually asks for rows.  Exports and filters
        run directly over the columns.
        """
        columns = tuple(columns)
        lengths = {len(series[name]) for name in columns}
        if len(lengths) > 1:
            raise ValueError("all columns must have the same length")
        return cls(columns=columns, series=series)

    # -- row access ----------------------------------------------------- #
    @property
    def rows(self) -> list[dict[str, Any]]:
        """The row dicts, materialized from the packed store on demand.

        Once materialized (or when the table was built from dicts), the
        dict list is the source of truth — mutations are visible to
        every helper and export.
        """
        if self._rows is None:
            columns = self.columns
            self._rows = [dict(zip(columns, row)) for row in self._values]
            self._values = None
        return self._rows

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        if self._series is not None:
            return len(next(iter(self._series.values()))) if self._series else 0
        return len(self._values_list)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> dict[str, Any]:
        return self.rows[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepResult):
            return NotImplemented
        if self.columns != other.columns:
            return False
        if self._values is not None and other._values is not None:
            # Both packed with identical column order: compare the value
            # tuples directly, keeping both packed stores intact.
            return self._values == other._values
        return self.rows == other.rows

    def __repr__(self) -> str:
        return (
            f"SweepResult({len(self)} rows x {len(self.columns)} columns)"
        )

    def _check_columns(self, *names: str) -> None:
        """Fail fast on misspelled column names (empty tables check nothing)."""
        if not self.columns:
            return
        unknown = [name for name in names if name not in self.columns]
        if unknown:
            raise KeyError(f"unknown column(s) {unknown}; have {list(self.columns)}")

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order (no dict materialization)."""
        self._check_columns(name)
        if self._rows is not None:
            return [row[name] for row in self._rows]
        if self._series is not None:
            column = self._series[name]
            return column.tolist() if isinstance(column, np.ndarray) else list(column)
        index = self.columns.index(name)
        return [row[index] for row in self._values_list]

    # ------------------------------------------------------------------ #
    def filter(self, **equals: Any) -> "SweepResult":
        """Rows whose columns equal the given values (AND semantics).

        On a column-store table the filter runs column-wise (vectorized
        comparison for array columns) and the kept rows stay columnar —
        no row dict is materialized, and array columns are only sliced,
        keeping memory-mapped inputs out of core.
        """
        self._check_columns(*equals)
        if self._series is not None and self._rows is None:
            count = len(self)
            keep = np.ones(count, dtype=bool)
            for name, value in equals.items():
                column = self._series[name]
                if isinstance(column, np.ndarray):
                    keep &= column == value
                else:
                    keep &= np.fromiter(
                        (cell == value for cell in column),
                        dtype=bool,
                        count=count,
                    )
            indices = np.flatnonzero(keep)
            kept_series = {
                name: column[indices]
                if isinstance(column, np.ndarray)
                else [column[i] for i in indices]
                for name, column in self._series.items()
            }
            return SweepResult(columns=self.columns, series=kept_series)
        kept = [
            row
            for row in self.rows
            if all(row.get(column) == value for column, value in equals.items())
        ]
        return SweepResult(columns=self.columns, rows=kept)

    def group_by(self, *columns: str) -> dict[tuple[Any, ...], "SweepResult"]:
        """Partition the rows by the values of one or more columns."""
        self._check_columns(*columns)
        groups: dict[tuple[Any, ...], SweepResult] = {}
        for row in self.rows:
            key = tuple(row.get(column) for column in columns)
            groups.setdefault(
                key, SweepResult(columns=self.columns, rows=[])
            ).rows.append(row)
        return groups

    def pivot(
        self, index: str | Sequence[str], value: str
    ) -> dict[Any, Any]:
        """Map (index-column values) -> value-column entries.

        ``index`` may be one column name or a sequence (keys become
        tuples).  Raises if two rows map the same key to different
        values — pre-:meth:`filter` the table down to one row per key.
        """
        index_columns = (index,) if isinstance(index, str) else tuple(index)
        self._check_columns(*index_columns, value)
        table: dict[Any, Any] = {}
        for row in self.rows:
            key = tuple(row.get(column) for column in index_columns)
            if len(index_columns) == 1:
                key = key[0]
            entry = row.get(value)
            if key in table and table[key] != entry:
                raise ValueError(
                    f"pivot key {key!r} is ambiguous: {table[key]!r} vs {entry!r}; "
                    "filter the result (e.g. by policy) before pivoting"
                )
            table[key] = entry
        return table

    # ------------------------------------------------------------------ #
    def _column_chunks(self) -> Iterator[tuple[int, list[Any]]]:
        """``(rows, columns)`` per chunk of at most ``_CSV_CHUNK_ROWS`` rows.

        Array columns are sliced, not converted, so memory-mapped shard
        columns are pulled in one bounded window at a time.
        """
        count = len(self)
        for start in range(0, count, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, count)
            if self._rows is not None:
                rows = self._rows[start:stop]
                columns = [[row.get(name) for row in rows] for name in self.columns]
            elif self._series is not None:
                columns = [self._series[name][start:stop] for name in self.columns]
            else:
                columns = list(zip(*self._values_list[start:stop]))
            yield stop - start, columns

    def _csv_chunks(self) -> Iterator[list[str]]:
        """CSV lines, header first, one list per chunk of rows."""
        yield _csv_lines([[text] for text in _csv_fields(self.columns)], 1)
        for count, columns in self._column_chunks():
            yield _csv_lines([_column_texts(column) for column in columns], count)

    def iter_csv(self) -> Iterator[str]:
        """Yield CSV lines (header first, trailing newline included).

        Lines are rendered a chunk of at most ``_CSV_CHUNK_ROWS`` rows at
        a time, column by column, straight off whichever store backs the
        table — no row dict is ever materialized, and memory stays
        bounded by one chunk regardless of the table size.
        """
        for lines in self._csv_chunks():
            yield from lines

    def write_csv(self, path: str | Path) -> int:
        """Write the table to ``path`` one chunk at a time; returns row count.

        Unlike :meth:`to_csv`, the full CSV text is never materialized —
        use this for very large grids.  The bytes written are identical
        to what :meth:`to_csv` produces.
        """
        rows = -1  # the header is not a row
        with Path(path).open("w", newline="") as handle:
            for lines in self._csv_chunks():
                handle.writelines(lines)
                rows += len(lines)
        return rows

    def to_csv(self, path: str | Path | None = None) -> str:
        """Render as CSV (and write it to ``path`` when given)."""
        text = "".join(self.iter_csv())
        if path is not None:
            # newline="" matches write_csv: the rendered "\n" line
            # endings reach the file untranslated on every platform.
            Path(path).write_text(text, newline="")
        return text

    def to_json(self, path: str | Path | None = None) -> str:
        """Render as JSON (and write it to ``path`` when given)."""
        text = json.dumps(
            {"columns": list(self.columns), "rows": self.rows}, indent=2, sort_keys=False
        )
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        return cls(columns=tuple(payload["columns"]), rows=list(payload["rows"]))

    @classmethod
    def merge_shards(cls, paths: "Sequence[str | Path]") -> "SweepResult":
        """Reassemble ``.repro-shard`` artifacts into one packed result.

        The inverse of a sharded sweep
        (:class:`~repro.experiments.sharding.ShardRunner`): given the
        artifacts of every shard of one plan — in any order, duplicates
        deduplicated — returns a table byte-identical (packed store and
        CSV bytes) to the monolithic
        :meth:`~repro.experiments.runner.SweepRunner.run` of the same
        spec.  Missing, duplicated-but-different and foreign shards
        raise :class:`~repro.experiments.sharding.ShardError`.  The
        merge is columnar end to end: no row dict is materialized.
        """
        from repro.experiments.sharding import merge_shard_paths

        return merge_shard_paths(paths).result()


def _cell(value: Any) -> Any:
    if isinstance(value, float):
        return repr(value)
    return value


def iter_csv_oracle(table: SweepResult) -> Iterator[str]:
    """Per-row reference renderer of :meth:`SweepResult.iter_csv`.

    One ``csv.writer.writerow`` per row with floats by ``repr``: the
    readable oracle the column renderer must match byte for byte.  Reads
    the table's store in place (no row dict is materialized).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")

    def render(cells) -> str:
        writer.writerow([_cell(value) for value in cells])
        line = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate(0)
        return line

    yield render(table.columns)
    if table._rows is not None:
        rows = ([row.get(name) for name in table.columns] for row in table._rows)
    elif table._series is not None:
        rows = zip(
            *(
                column.tolist() if isinstance(column, np.ndarray) else column
                for column in table._series.values()
            )
        )
    else:
        rows = table._values_list
    for row in rows:
        yield render(row)


__all__ = ["SweepResult", "iter_csv_oracle"]
