"""Structure-of-arrays flit state.

Instead of one Python object per in-flight request, the vector engine keeps
every flit as a *row* across a set of columns.  A row is allocated when the
request is generated and never reused.

The columns come in two flavours, chosen by access pattern:

* **Event columns** (``injected_cycle``, ``completed_cycle``) are
  preallocated NumPy arrays written by the engine at the (rare) lifecycle
  events of each flit, then sliced wholesale by the measurement code.
* **Append/hot columns** (``core``, ``bank``, ``created``, ``write_flag``,
  ``path_id``) are plain Python lists: they are appended once per
  allocation and read on every hop of the per-cycle transport loop, where
  ``list`` element access is several times faster than NumPy scalar
  indexing.  :meth:`sync` bulk-copies them into the matching preallocated
  NumPy arrays (``core_id``, ``bank_id``, ``created_cycle``, ``is_write``)
  whenever vectorized analytics need array views.

The flit's step along its path lives outside the table: the engine keeps a
per-row *resolved next hop* (a link into the compiled move chain), which
encodes position and next move in one cell.

Nothing outside this class needs to know the split: analytics call
:meth:`sync` (or :meth:`latencies`, which does) and get NumPy columns; the
engine touches the hot lists.
"""

from __future__ import annotations

import numpy as np

#: Initial number of preallocated rows (doubled on demand).
DEFAULT_CAPACITY = 4096


class FlitTable:
    """Columnar storage for every flit of one simulation.

    Attributes
    ----------
    core, bank, created, write_flag : list
        Append-path creation columns (see the module docstring).
    path_id : list of int
        The flit's path-template id (transient routing state).
    core_id, bank_id, created_cycle, is_write : numpy.ndarray
        NumPy views of the creation columns, valid after :meth:`sync`.
    injected_cycle, completed_cycle : numpy.ndarray of int64
        Event timestamps, live at all times; ``-1`` until the event.

    Examples
    --------
    >>> table = FlitTable(capacity=2)
    >>> table.allocate(core_id=1, bank_id=7, path_id=0, is_write=False, cycle=5)
    0
    >>> table.allocate(2, 8, 1, True, 5), table.allocate(3, 9, 2, False, 6)
    (1, 2)
    >>> table.count, table.capacity >= 3
    (3, True)
    >>> table.sync()
    >>> int(table.created_cycle[2])
    6
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.core: list[int] = []
        self.bank: list[int] = []
        self.created: list[int] = []
        self.write_flag: list[bool] = []
        self.path_id: list[int] = []
        self.core_id = np.empty(capacity, dtype=np.int64)
        self.bank_id = np.empty(capacity, dtype=np.int64)
        self.created_cycle = np.empty(capacity, dtype=np.int64)
        self.is_write = np.zeros(capacity, dtype=bool)
        self.injected_cycle = np.full(capacity, -1, dtype=np.int64)
        self.completed_cycle = np.full(capacity, -1, dtype=np.int64)
        self._synced = 0

    def _grow(self, needed: int) -> None:
        """Double the preallocated capacity until it holds ``needed`` rows."""
        new_capacity = self.capacity
        while new_capacity < needed:
            new_capacity *= 2

        def extend(column: np.ndarray, fill) -> np.ndarray:
            grown = np.full(new_capacity, fill, dtype=column.dtype)
            grown[: self.count] = column[: self.count]
            return grown

        self.core_id = extend(self.core_id, 0)
        self.bank_id = extend(self.bank_id, 0)
        self.created_cycle = extend(self.created_cycle, 0)
        self.is_write = extend(self.is_write, False)
        self.injected_cycle = extend(self.injected_cycle, -1)
        self.completed_cycle = extend(self.completed_cycle, -1)
        self.capacity = new_capacity

    def allocate(
        self, core_id: int, bank_id: int, path_id: int, is_write: bool, cycle: int
    ) -> int:
        """Append one flit row; return its id (row index)."""
        row = self.count
        if row == self.capacity:
            self._grow(row + 1)
        self.count = row + 1
        self.core.append(core_id)
        self.bank.append(bank_id)
        self.created.append(cycle)
        self.write_flag.append(is_write)
        self.path_id.append(path_id)
        return row

    def allocate_block(
        self,
        core_ids: np.ndarray,
        bank_ids: np.ndarray,
        path_ids: list[int],
        is_write: bool,
        cycles: list[int],
    ) -> int:
        """Append one row per entry of the parallel columns; return the first id.

        Leaves the table exactly as :meth:`allocate` called once per entry
        followed by :meth:`sync` would — the rows are ``first .. first +
        len(core_ids) - 1`` — at the cost of one ``extend`` and one slice
        copy per column: a block arrives as arrays, so the NumPy views are
        filled here rather than converted back from the lists later.
        ``path_ids`` and ``cycles`` have no NumPy view; they are lists and
        are kept as given, so rows can share int objects (one per cycle,
        one per template) the way per-row allocation shares them.

        Examples
        --------
        >>> table = FlitTable(capacity=2)
        >>> cores, banks = np.array([1, 2, 3]), np.array([7, 8, 9])
        >>> table.allocate_block(cores, banks, [0, 1, 2], False, [5, 5, 6])
        0
        >>> table.count, table.capacity, table.created
        (3, 4, [5, 5, 6])
        >>> table.created_cycle[:3].tolist()
        [5, 5, 6]
        """
        self.sync()
        first = self.count
        count = first + len(core_ids)
        if count > self.capacity:
            self._grow(count)
        self.core.extend(core_ids.tolist())
        self.bank.extend(bank_ids.tolist())
        self.created.extend(cycles)
        self.write_flag.extend([is_write] * len(core_ids))
        self.path_id.extend(path_ids)
        self.core_id[first:count] = core_ids
        self.bank_id[first:count] = bank_ids
        self.created_cycle[first:count] = cycles
        self.is_write[first:count] = is_write
        self.count = self._synced = count
        return first

    def sync(self) -> None:
        """Bulk-copy buffered creation columns into their NumPy arrays."""
        start, count = self._synced, self.count
        if start == count:
            return
        self.core_id[start:count] = self.core[start:count]
        self.bank_id[start:count] = self.bank[start:count]
        self.created_cycle[start:count] = self.created[start:count]
        self.is_write[start:count] = self.write_flag[start:count]
        self._synced = count

    # ------------------------------------------------------------------ #
    # Vectorized measurement views
    # ------------------------------------------------------------------ #

    def latencies(self) -> np.ndarray:
        """Round-trip latency of every completed row (vectorized).

        Examples
        --------
        >>> table = FlitTable()
        >>> row = table.allocate(0, 0, 0, False, cycle=3)
        >>> table.completed_cycle[row] = 8
        >>> table.latencies().tolist()
        [5]
        """
        self.sync()
        completed = self.completed_cycle[: self.count]
        mask = completed >= 0
        return completed[mask] - self.created_cycle[: self.count][mask]

    def row_record(self, row: int) -> tuple[int, int, int, int, int, int]:
        """One flit's record in the legacy log layout.

        Returns ``(flit_id, core_id, bank_id, created, injected, completed)``
        — the same tuple the object engine logs for equivalence checks.
        """
        return (
            row,
            self.core[row],
            self.bank[row],
            self.created[row],
            int(self.injected_cycle[row]),
            int(self.completed_cycle[row]),
        )
