"""The ``legacy`` engine behind the row API: the per-object oracle in rows.

:class:`LegacyEngine` serves the members of
:class:`~repro.engine.vector.VectorEngine` that the simulators drive —
``flits``, ``new_flits``, ``inject_new``, ``inject_queues``, ``advance``
(one cycle, or a traffic window as the plain per-cycle composition) and
the ``in_flight`` / ``total_injected`` / ``total_completed`` counters —
over a topology's untouched per-object
:class:`~repro.interconnect.resources.StageNetwork`.  The traffic driver
(:func:`repro.engine.traffic.run_vector_traffic`) and the execution-driven
system (:class:`repro.core.system.MemPoolSystem`) therefore have one body
for both engines, and engine equivalence compares the one part that is
implemented twice: the transport.

A row's :class:`~repro.interconnect.resources.Flit` (``flit_id`` is the
row, the path comes from
:meth:`~repro.interconnect.topology.ClusterTopology.build_path`) is built
when the row is first offered to the network, so a saturated traffic
window holds objects for its queue heads and in-flight requests only.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.engine.soa import FlitTable
from repro.interconnect.resources import Flit
from repro.interconnect.topology import ClusterTopology


class LegacyEngine:
    """``VectorEngine``'s row API over a topology's ``StageNetwork``."""

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        self.network = topology.network
        self.flits = FlitTable()
        #: Rows whose flit was built and refused, waiting at a queue head.
        self._offered: dict[int, Flit] = {}
        #: Each core's last refused ``inject_new`` flit, for its retry.
        self._refused: dict[int, Flit] = {}
        #: The rows the last :meth:`advance` call completed.
        self.completed_rows: list[int] = []

    @property
    def in_flight(self) -> int:
        """Number of rows currently inside the network."""
        return self.network.in_flight

    @property
    def total_injected(self) -> int:
        """Total rows accepted into the network so far."""
        return self.network.total_injected

    @property
    def total_completed(self) -> int:
        """Total rows that finished their path so far."""
        return self.network.total_completed

    def _flit(self, core_id: int, bank_id: int, is_write: bool, created: int) -> Flit:
        path = self.topology.build_path(core_id, bank_id, needs_response=not is_write)
        return Flit(-1, core_id, bank_id, path, is_write, created)

    def new_flits(self, cores, banks, created, is_write: bool = False) -> int:
        """Allocate one row per ``(core, bank, created)`` entry; return the first.

        The rows are consecutive, in entry order, as on ``VectorEngine``.
        """
        cores = np.asarray(cores, dtype=np.int64).tolist()
        banks = np.asarray(banks, dtype=np.int64).tolist()
        return self.flits.allocate_block(cores, banks, [-1] * len(cores), is_write, created)

    def inject_new(
        self, core_id: int, bank_id: int, is_write: bool,
        created_cycle: int, cycle: int,
    ) -> int | None:
        """Allocate-and-inject one request: its row, or ``None`` (nothing allocated)."""
        flit = self._refused.pop(core_id, None)
        if flit is None or (flit.bank_id, flit.is_write, flit.created_cycle) != (
            bank_id, is_write, created_cycle
        ):
            flit = self._flit(core_id, bank_id, is_write, created_cycle)
        if not self.network.try_inject(flit, cycle):
            self._refused[core_id] = flit
            return None
        row = flit.flit_id = self.flits.allocate(core_id, bank_id, -1, is_write, created_cycle)
        self.flits.injected_cycle[row] = cycle
        return row

    def inject_queues(self, source_queues, order, cycle: int) -> int:
        """Inject the head row of each source queue, in ``order``; return the count."""
        flits = self.flits
        offered = self._offered
        try_inject = self.network.try_inject
        entered = 0
        for index in order:
            source = source_queues[index]
            if not source:
                continue
            row = source[0]
            flit = offered.pop(row, None)
            if flit is None:
                flit = self._flit(
                    flits.core[row], flits.bank[row], flits.write_flag[row], flits.created[row]
                )
                flit.flit_id = row
            if try_inject(flit, cycle):
                source.popleft()
                flits.injected_cycle[row] = cycle
                entered += 1
            else:
                offered[row] = flit
        return entered

    def advance(self, cycle: int, stop: int | None = None, arrivals: tuple | None = None):
        """Advance cycles ``cycle .. stop - 1``; return (and keep) the completed rows.

        The plain per-cycle composition behind ``VectorEngine.advance``'s
        signature: per cycle the network's ``advance``, then — with a
        traffic window in ``arrivals`` — the cycle's new rows appended to
        their cores' source queues and one :meth:`inject_queues` call.  A
        list for one cycle, an ``array('q')`` for a window, as on
        ``vector``.
        """
        completed = [] if stop is None else array("q")
        completed_cycle = self.flits.completed_cycle
        if arrivals is not None:
            source_queues, order, first, sources, ends, start = arrivals
            done = ends[cycle - start - 1] if cycle > start else 0
        for now in range(cycle, cycle + 1 if stop is None else stop):
            for flit in self.network.advance(now):
                completed_cycle[flit.flit_id] = now
                completed.append(flit.flit_id)
            if arrivals is not None:
                upto = ends[now - start]
                for core_id, row in zip(sources[done:upto], range(first + done, first + upto)):
                    source_queues[core_id].append(row)
                done = upto
                self.inject_queues(source_queues, order(now), now)
        self.completed_rows = completed
        return completed
