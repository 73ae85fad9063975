"""Structure-of-arrays flit state.

Instead of one Python object per in-flight request, the engines keep every
flit as a *row* across a set of columns.  A row is allocated when the
request is generated and never reused.

Every column is a plain Python list with one entry per row.  The creation
columns (``core``, ``bank``, ``created``, ``write_flag``, ``path_id``) are
appended once per allocation and read on every hop of the per-cycle
transport loop, where ``list`` element access is several times faster
than NumPy scalar indexing.  The event columns (``injected_cycle``,
``completed_cycle``) are appended as ``-1`` ("not yet") and stored once
by the engine at each lifecycle event, so every cell is a Python ``int``.

The flit's step along its path lives outside the table: the engine keeps a
per-row *resolved next hop* (a link into the compiled move chain), which
encodes position and next move in one cell.
"""

from __future__ import annotations


class FlitTable:
    """Columnar storage for every flit of one simulation.

    Attributes
    ----------
    core, bank, created, write_flag : list
        Creation columns (see the module docstring).
    path_id : list of int
        The flit's path-template id (transient routing state).
    injected_cycle, completed_cycle : list of int
        Event timestamps; ``-1`` until the event.

    Examples
    --------
    >>> table = FlitTable()
    >>> table.allocate(core_id=1, bank_id=7, path_id=0, is_write=False, cycle=5)
    0
    >>> table.allocate(2, 8, 1, True, 5), table.allocate(3, 9, 2, False, 6)
    (1, 2)
    >>> table.count, table.created, table.completed_cycle
    (3, [5, 5, 6], [-1, -1, -1])
    """

    def __init__(self) -> None:
        self.core: list[int] = []
        self.bank: list[int] = []
        self.created: list[int] = []
        self.write_flag: list[bool] = []
        self.path_id: list[int] = []
        self.injected_cycle: list[int] = []
        self.completed_cycle: list[int] = []

    @property
    def count(self) -> int:
        """Number of rows allocated so far."""
        return len(self.core)

    def allocate(
        self, core_id: int, bank_id: int, path_id: int, is_write: bool, cycle: int
    ) -> int:
        """Append one flit row; return its id (row index)."""
        row = len(self.core)
        self.core.append(core_id)
        self.bank.append(bank_id)
        self.created.append(cycle)
        self.write_flag.append(is_write)
        self.path_id.append(path_id)
        self.injected_cycle.append(-1)
        self.completed_cycle.append(-1)
        return row

    def allocate_block(
        self,
        core_ids: list[int],
        bank_ids: list[int],
        path_ids: list[int],
        is_write: bool,
        cycles: list[int],
    ) -> int:
        """Append one row per entry of the parallel columns; return the first id.

        Leaves the table exactly as :meth:`allocate` called once per entry
        would — the rows are ``first .. first + len(core_ids) - 1`` — at the
        cost of one ``extend`` per column.  The lists are kept as given, so
        rows can share int objects (one per cycle, one per template) the way
        per-row allocation shares them.

        Examples
        --------
        >>> table = FlitTable()
        >>> table.allocate_block([1, 2, 3], [7, 8, 9], [0, 1, 2], False, [5, 5, 6])
        0
        >>> table.count, table.created, table.injected_cycle
        (3, [5, 5, 6], [-1, -1, -1])
        """
        first = len(self.core)
        rows = len(core_ids)
        self.core += core_ids
        self.bank += bank_ids
        self.created += cycles
        self.write_flag += [is_write] * rows
        self.path_id += path_ids
        self.injected_cycle += [-1] * rows
        self.completed_cycle += [-1] * rows
        return first

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
            self.injected_cycle[row],
            self.completed_cycle[row],
        )
