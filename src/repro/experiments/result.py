"""Tabular results of a parameter sweep.

A :class:`SweepResult` is a small, dependency-free data frame with a
fixed column order and one store: the column names plus one value tuple
per row.  The runner's array-native assembly and the row cache feed it
directly (:meth:`SweepResult.from_packed`); :meth:`SweepResult.from_rows`
packs row dicts, a key a row lacks becoming ``None`` (an empty CSV
cell).  The dict API — :attr:`~SweepResult.rows`, iteration, indexing —
builds fresh dicts from the store on each access, so editing one never
changes the table.

Rows that arrive as CSV text (:meth:`SweepResult.from_lines`, a sweep
backed by a ``--cache`` file) keep that text as the table's CSV memo
and fill the value store lazily: :meth:`~SweepResult.column` decodes
just its own column, by the column's declared type, and everything else
decodes the whole table on first use.  Their CSV export writes the
stored lines as they are.

The export (CSV/JSON) and reshaping (filter/group-by/pivot) helpers
read the store in place.  CSV export of value rows renders column by
column, one chunk of at most :data:`_CSV_CHUNK_ROWS` rows at a time
(:func:`render_rows`), so resident memory stays bounded by the chunk:
float columns print one ``repr`` per distinct bit pattern in the chunk,
int columns one ``str`` per cell, and every other cell goes through a
per-chunk memo of its csv-quoted text.  Floats are exported with
``repr`` so a CSV written from cached rows is byte-identical to one
written from freshly computed rows of the same sweep.
:func:`iter_csv_oracle` is the per-row ``csv.writer`` reference the
column renderer must match byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import operator
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence


#: Rows rendered (or written) per chunk by :meth:`SweepResult.iter_csv`.
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
    import numpy as np

    doubles = np.asarray(values, dtype=np.float64)
    bits = doubles.view(np.int64).tolist()
    distinct = dict(zip(bits, doubles.tolist()))
    texts = dict(zip(distinct, map(float.__repr__, distinct.values())))
    return list(map(texts.__getitem__, bits))


def _column_texts(column: Any) -> list[str]:
    """CSV text of every cell of one column chunk."""
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
    """The unterminated CSV lines of ``count`` rows, given each column's texts."""
    if not texts:
        return [""] * count
    if len(texts) == 1:
        # csv.writer quotes a row made of one empty field, so that it
        # does not read back as a blank line.
        texts = [['""' if text == "" else text for text in texts[0]]]
    return list(map(",".join, zip(*texts)))


def _render_chunks(values: Sequence[tuple[Any, ...]]) -> Iterator[list[str]]:
    """The CSV lines of value rows, one list per chunk of ``_CSV_CHUNK_ROWS``."""
    for start in range(0, len(values), _CSV_CHUNK_ROWS):
        chunk = values[start : start + _CSV_CHUNK_ROWS]
        yield _csv_lines([_column_texts(column) for column in zip(*chunk)], len(chunk))


def render_rows(values: Sequence[tuple[Any, ...]]) -> list[str]:
    """Each value row's CSV line, unterminated, as :meth:`SweepResult.iter_csv` writes it."""
    return [line for lines in _render_chunks(values) for line in lines]


def _cells(line: str) -> list[str]:
    """The cells of one unterminated CSV line, as ``csv.reader`` reads them.

    Raises :class:`csv.Error` for text the writer never produces, such
    as an unquoted line break or an unterminated quote.
    """
    return next(csv.reader((line,), strict=True), [])


def csv_width(line: Any) -> int | None:
    """The number of cells of one unterminated CSV line; ``None`` if it is not one."""
    if not isinstance(line, str) or line.endswith(("\n", "\r")):
        return None
    if '"' not in line and "\n" not in line and "\r" not in line:
        return line.count(",") + 1
    try:
        return len(_cells(line))
    except csv.Error:
        return None


def _text_column(lines: list[str], index: int) -> list[str]:
    """Cell ``index`` of every line, splitting a line no further than needed."""
    return [
        line.split(",", index + 1)[index] if '"' not in line else _cells(line)[index]
        for line in lines
    ]


class SweepResult:
    """An ordered table of sweep rows (one row per point x policy).

    ``rows`` (dicts, packed by ``columns``; a missing key is ``None``)
    and ``values`` (tuples in ``columns`` order) are two ways to pass
    the same store; give at most one.  :meth:`from_lines` passes the
    rows as CSV text instead.
    """

    def __init__(
        self,
        columns: Sequence[str],
        rows: "Iterable[Mapping[str, Any]] | None" = None,
        *,
        values: "Iterable[Sequence[Any]] | None" = None,
    ):
        if rows is not None and values is not None:
            raise TypeError("pass at most one of rows or values")
        self.columns: tuple[str, ...] = tuple(columns)
        if rows is not None:
            values = (tuple(map(row.get, self.columns)) for row in rows)
        #: The value store; ``None`` until rows given as text are decoded.
        self._store: list[tuple[Any, ...]] | None = [
            tuple(row) for row in (values if values is not None else ())
        ]
        #: The CSV memo: each row's line, unterminated (text rows only).
        self._lines: list[str] | None = None
        self._kinds: tuple[type, ...] = ()
        #: Columns of a text table decoded so far, by column index.
        self._decoded: dict[int, list[Any]] = {}

    # -- constructors --------------------------------------------------- #
    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, Any]]) -> "SweepResult":
        """Build a result from row dicts (columns from the first row)."""
        rows = list(rows)
        columns: tuple[str, ...] = tuple(rows[0].keys()) if rows else ()
        return cls(columns=columns, rows=rows)

    @classmethod
    def from_packed(
        cls, columns: Sequence[str], values: Iterable[Sequence[Any]]
    ) -> "SweepResult":
        """Build a result from packed (columns, value-tuples) rows."""
        return cls(columns=columns, values=values)

    @classmethod
    def from_lines(
        cls, columns: Sequence[str], lines: Iterable[str], kinds: Sequence[type]
    ) -> "SweepResult":
        """Build a result from each row's CSV line (unterminated).

        ``kinds`` gives each column's cell type (``str``, ``int`` or
        ``float``; see :data:`~repro.experiments.schema.ROW_KINDS`),
        which decodes a cell's text back to its value.  The lines are
        the table's CSV export as given; values are decoded only when
        read, and :meth:`column` decodes only its own column.
        """
        table = cls(columns)
        table._kinds = tuple(kinds)
        if len(table._kinds) != len(table.columns):
            raise ValueError(
                f"{len(table._kinds)} kinds for {len(table.columns)} columns"
            )
        table._store = None
        table._lines = list(lines)
        return table

    # -- value store ---------------------------------------------------- #
    @property
    def _values(self) -> list[tuple[Any, ...]]:
        """The value tuples (a text table decodes every column once)."""
        if self._store is None:
            columns = [self._decoded_column(i) for i in range(len(self.columns))]
            self._store = (
                list(zip(*columns)) if columns else [()] * len(self._lines)
            )
            self._decoded = {}
        return self._store

    def _decoded_column(self, index: int) -> list[Any]:
        """The values of column ``index`` of a text table, decoded once."""
        values = self._decoded.get(index)
        if values is None:
            values = _text_column(self._lines, index)
            kind = self._kinds[index]
            if kind is not str:
                values = list(map(kind, values))
            self._decoded[index] = values
        return values

    # -- row access ----------------------------------------------------- #
    @property
    def rows(self) -> list[dict[str, Any]]:
        """The rows as new dicts (editing one leaves the table unchanged)."""
        columns = self.columns
        return [dict(zip(columns, row)) for row in self._values]

    def __len__(self) -> int:
        if self._lines is not None:
            return len(self._lines)
        return len(self._store)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        columns = self.columns
        return (dict(zip(columns, row)) for row in self._values)

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return [dict(zip(self.columns, row)) for row in self._values[index]]
        return dict(zip(self.columns, self._values[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepResult):
            return NotImplemented
        return self.columns == other.columns and self._values == other._values

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

    def _getter(self, name: str) -> Callable[[tuple[Any, ...]], Any]:
        """Reads one column's cell from a value tuple (``None`` if absent)."""
        if name in self.columns:
            return operator.itemgetter(self.columns.index(name))
        return lambda row: None

    def _key(self, names: Sequence[str]) -> Callable[[tuple[Any, ...]], tuple]:
        """Reads the cells of ``names`` from a value tuple, as a tuple."""
        getters = [self._getter(name) for name in names]
        return lambda row: tuple(getter(row) for getter in getters)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        self._check_columns(name)
        if self._store is None and name in self.columns:
            return list(self._decoded_column(self.columns.index(name)))
        return list(map(self._getter(name), self._values))

    # ------------------------------------------------------------------ #
    def filter(self, **equals: Any) -> "SweepResult":
        """Rows whose columns equal the given values (AND semantics)."""
        self._check_columns(*equals)
        tests = [(self._getter(column), value) for column, value in equals.items()]
        kept = [
            row
            for row in self._values
            if all(get(row) == value for get, value in tests)
        ]
        return SweepResult(self.columns, values=kept)

    def group_by(self, *columns: str) -> dict[tuple[Any, ...], "SweepResult"]:
        """Partition the rows by the values of one or more columns."""
        self._check_columns(*columns)
        key = self._key(columns)
        groups: dict[tuple[Any, ...], list[tuple[Any, ...]]] = {}
        for row in self._values:
            groups.setdefault(key(row), []).append(row)
        return {
            group: SweepResult(self.columns, values=values)
            for group, values in groups.items()
        }

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
        row_key = self._key(index_columns)
        get_entry = self._getter(value)
        table: dict[Any, Any] = {}
        for row in self._values:
            key = row_key(row)
            if len(index_columns) == 1:
                key = key[0]
            entry = get_entry(row)
            if key in table and table[key] != entry:
                raise ValueError(
                    f"pivot key {key!r} is ambiguous: {table[key]!r} vs {entry!r}; "
                    "filter the result (e.g. by policy) before pivoting"
                )
            table[key] = entry
        return table

    # ------------------------------------------------------------------ #
    def _csv_chunks(self) -> Iterator[list[str]]:
        """Unterminated CSV lines, header first, one list per chunk of rows.

        A text table's chunks are slices of its stored lines; value rows
        are rendered a chunk at a time (:func:`render_rows`).
        """
        yield _csv_lines([[text] for text in _csv_fields(self.columns)], 1)
        if self._lines is None:
            yield from _render_chunks(self._store)
            return
        for start in range(0, len(self._lines), _CSV_CHUNK_ROWS):
            yield self._lines[start : start + _CSV_CHUNK_ROWS]

    def _csv_blocks(self) -> Iterator[str]:
        """The CSV text, one newline-terminated block per chunk."""
        for lines in self._csv_chunks():
            yield "\n".join(lines) + "\n"

    def iter_csv(self) -> Iterator[str]:
        """Yield CSV lines (header first, trailing newline included).

        Value rows are rendered a chunk of at most ``_CSV_CHUNK_ROWS``
        rows at a time, column by column, straight off the value tuples
        — no row dict is ever materialized, and memory stays bounded by
        one chunk regardless of the table size.  A text table yields its
        stored lines.
        """
        for lines in self._csv_chunks():
            for line in lines:
                yield line + "\n"

    def write_csv(self, path: str | Path) -> int:
        """Write the table to ``path`` one chunk at a time; returns row count.

        Unlike :meth:`to_csv`, the full CSV text is never materialized —
        use this for very large grids.  The bytes written are identical
        to what :meth:`to_csv` produces.
        """
        with Path(path).open("w", newline="") as handle:
            for block in self._csv_blocks():
                handle.write(block)
        return len(self)

    def to_csv(self, path: str | Path | None = None) -> str:
        """Render as CSV (and write it to ``path`` when given)."""
        text = "".join(self._csv_blocks())
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
        return cls(columns=payload["columns"], rows=payload["rows"])


def _cell(value: Any) -> Any:
    if isinstance(value, float):
        return repr(value)
    return value


def iter_csv_oracle(table: SweepResult) -> Iterator[str]:
    """Per-row reference renderer of :meth:`SweepResult.iter_csv`.

    One ``csv.writer.writerow`` per row with floats by ``repr``: the
    readable oracle the column renderer must match byte for byte.  Reads
    the table's value tuples in place (no row dict is materialized).
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
    for row in table._values:
        yield render(row)


__all__ = ["SweepResult", "csv_width", "iter_csv_oracle", "render_rows"]
