"""Reorder buffer (ROB) used by each Snitch core's load/store unit.

Section III-B: requests carry metadata so that responses can be routed back
to the issuing core and *"ensure their proper ordering by the Reorder Buffer
(ROB)"*.  The model tracks outstanding load transactions, bounds their number
(Snitch supports a configurable number of outstanding loads), and hands the
returned data back to the core in program order.
"""

from __future__ import annotations


class ReorderBuffer:
    """Bounded in-order tracking of outstanding load transactions."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"ROB capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # tag -> completed flag; a dict keeps allocation (program) order.
        self._entries: dict[object, bool] = {}
        #: High-water mark of simultaneous outstanding loads (for statistics).
        self.max_occupancy = 0

    # ------------------------------------------------------------------ #
    # Allocation / completion
    # ------------------------------------------------------------------ #

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def allocate(self, tag: object) -> None:
        """Reserve an entry for a newly issued load identified by ``tag``."""
        entries = self._entries
        occupancy = len(entries)
        if occupancy >= self.capacity:
            raise RuntimeError("ROB is full; the issuing core must stall")
        if tag in entries:
            raise ValueError(f"duplicate outstanding tag {tag!r}")
        entries[tag] = False
        if occupancy >= self.max_occupancy:
            self.max_occupancy = occupancy + 1

    def complete(self, tag: object) -> None:
        """Mark the load identified by ``tag`` as returned from memory."""
        completed = self._entries.get(tag)
        if completed is None:
            raise KeyError(f"tag {tag!r} is not outstanding")
        if completed:
            raise ValueError(f"tag {tag!r} completed twice")
        self._entries[tag] = True

    def is_complete(self, tag: object) -> bool:
        """True if ``tag`` has returned (or was never outstanding)."""
        return self._entries.get(tag, True)

    def is_outstanding(self, tag: object) -> bool:
        """True if ``tag`` was allocated and has not been retired yet."""
        return tag in self._entries

    def retire_ready(self) -> list[object]:
        """Retire and return the tags of completed loads, in program order.

        Retirement stops at the first entry that has not completed, which is
        what keeps responses ordered towards the core's register file.  The
        core model retires for the side effect and does not read the tags;
        they are returned for tests and for agents that want the order.
        """
        entries = self._entries
        retired: list[object] = []
        for tag, completed in entries.items():
            if not completed:
                break
            retired.append(tag)
        for tag in retired:
            del entries[tag]
        return retired

    def clear(self) -> None:
        self._entries.clear()
