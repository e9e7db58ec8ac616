"""Columnar in-memory store (MonetDB-lite).

DfAnalyzer stores provenance in MonetDB, a column store.  This module
provides the minimal column-organized storage engine the backend needs:
append-only tables with dynamic schemas, column projections backed by
plain lists (converted to NumPy arrays on demand for aggregation), and
row reconstruction for query results.

A table can also maintain hash indexes over column tuples
(:meth:`Table.create_index`), so a keyed update touches only the rows
under one key instead of scanning the whole table.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Table", "ColumnStore", "StoreError"]


class StoreError(KeyError):
    """Unknown table or column."""


class Table:
    """An append-only, column-organized table with a dynamic schema."""

    def __init__(self, name: str, columns: Optional[Iterable[str]] = None):
        self.name = name
        self._columns: Dict[str, List[Any]] = {c: [] for c in (columns or ())}
        self._nrows = 0
        # column tuple -> key tuple -> ascending row ids holding that key
        self._indexes: Dict[Tuple[str, ...], Dict[Tuple[Any, ...], List[int]]] = {}

    # -- schema ------------------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def __len__(self) -> int:
        return self._nrows

    def _ensure_column(self, name: str) -> List[Any]:
        col = self._columns.get(name)
        if col is None:
            # backfill new columns with NULLs for existing rows
            col = self._columns[name] = [None] * self._nrows
        return col

    # -- writes ---------------------------------------------------------------
    def insert(self, row: Dict[str, Any]) -> int:
        """Append one row; unknown columns are added, missing are NULL.

        Returns the row id (position).
        """
        # resolve index keys first: an unhashable key fails before any write
        keyed = [
            index.setdefault(tuple(row.get(c) for c in columns), [])
            for columns, index in self._indexes.items()
        ]
        for name in row:
            self._ensure_column(name)
        for name, col in self._columns.items():
            col.append(row.get(name))
        rid = self._nrows
        self._nrows += 1
        for row_ids in keyed:
            row_ids.append(rid)
        return rid

    def insert_many(self, rows: Iterable[Dict[str, Any]]) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def update_where(self, predicate, changes: Dict[str, Any]) -> int:
        """Update rows matching ``predicate(row_dict)``; returns count.

        A full scan that builds every row: keep it for ad-hoc predicates
        and use :meth:`update_by` when an index covers the match.
        """
        for name in changes:  # the predicate sees new columns as NULL
            self._ensure_column(name)
        matches = [i for i in range(self._nrows) if predicate(self.row(i))]
        self._write(matches, changes)
        return len(matches)

    def update_by(
        self, columns: Sequence[str], key: Sequence[Any], changes: Dict[str, Any]
    ) -> int:
        """Update every row whose ``columns`` equal ``key``, in row order.

        Goes through the index on ``columns`` (see :meth:`create_index`);
        returns the number of rows updated.
        """
        row_ids = self.lookup(columns, key)
        self._write(row_ids, changes)
        return len(row_ids)

    def _write(self, row_ids: List[int], changes: Dict[str, Any]) -> None:
        """Apply ``changes`` to ``row_ids``, moving them between index keys."""
        for name in changes:
            self._ensure_column(name)
        moved = [
            (columns, index)
            for columns, index in self._indexes.items()
            if not changes.keys().isdisjoint(columns)
        ]
        for columns, index in moved:
            for i in row_ids:
                key = self._key(columns, i)
                index[key].remove(i)
                if not index[key]:
                    del index[key]
        for name, value in changes.items():
            col = self._columns[name]
            for i in row_ids:
                col[i] = value
        for columns, index in moved:
            for i in row_ids:
                insort(index.setdefault(self._key(columns, i), []), i)

    # -- indexes ---------------------------------------------------------------
    def create_index(self, *columns: str) -> None:
        """Maintain a hash index on ``columns``, built from existing rows.

        Keys match as the tuple of column values would under ``==``
        (dict lookup), so ``None``, ``int`` and ``str`` values behave as an
        equality scan does; key values must be hashable.
        """
        if not columns:
            raise ValueError("an index needs at least one column")
        cols = [self._ensure_column(c) for c in columns]
        index: Dict[Tuple[Any, ...], List[int]] = {}
        for i, key in enumerate(zip(*cols)):
            index.setdefault(key, []).append(i)
        self._indexes[tuple(columns)] = index

    def lookup(self, columns: Sequence[str], key: Sequence[Any]) -> List[int]:
        """Row ids whose ``columns`` equal ``key``, ascending."""
        index = self._indexes.get(tuple(columns))
        if index is None:
            raise StoreError(f"table {self.name!r} has no index on {tuple(columns)!r}")
        return list(index.get(tuple(key), ()))

    def _key(self, columns: Tuple[str, ...], i: int) -> Tuple[Any, ...]:
        return tuple(self._columns[c][i] for c in columns)

    # -- reads -----------------------------------------------------------------
    def column(self, name: str) -> List[Any]:
        col = self._columns.get(name)
        if col is None:
            raise StoreError(f"table {self.name!r} has no column {name!r}")
        return col

    def column_array(self, name: str) -> np.ndarray:
        """Column as a NumPy array (for vectorized aggregation)."""
        return np.asarray(self.column(name))

    def row(self, index: int) -> Dict[str, Any]:
        if not 0 <= index < self._nrows:
            raise IndexError(f"row {index} out of range (n={self._nrows})")
        return {name: col[index] for name, col in self._columns.items()}

    def rows(self) -> Iterator[Dict[str, Any]]:
        for i in range(self._nrows):
            yield self.row(i)

    def __repr__(self) -> str:
        return f"<Table {self.name} rows={self._nrows} cols={len(self._columns)}>"


class ColumnStore:
    """A named collection of tables."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    def create_table(self, name: str, columns: Optional[Iterable[str]] = None) -> Table:
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name, columns)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise StoreError(f"no table {name!r}")
        return table

    def ensure_table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            table = self.create_table(name)
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise StoreError(f"no table {name!r}")
        del self._tables[name]

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __repr__(self) -> str:
        return f"<ColumnStore tables={len(self._tables)}>"
