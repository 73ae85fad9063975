"""The two workload abstractions: destination patterns and injection processes.

A *workload* is the pair of questions the synthetic-traffic layer asks the
environment every cycle: **when** does each core generate a request
(:class:`InjectionProcess`) and **where** does that request go
(:class:`DestinationPattern`).  Both abstractions expose a scalar API (one
core at a time — the reference the batched API is held to) and a batched
API (whole windows — what the open-loop traffic driver consumes on either
engine).

The batched APIs are contractually equivalent to the scalar ones: calling
``destinations(cores)`` must consume exactly the same random draws, in the
same order, as calling ``destination(core)`` for each core in sequence, and
``arrivals_batch(start, end)`` must match ``arrivals(core, cycle)`` called
cycle-major — every cycle of ``[start, end)`` ascending, all cores
ascending within it.  Two consequences the vector driver relies on: one
``destinations`` call over a whole window's sources equals the per-cycle
calls concatenated (and leaves every stream where they leave it), and the
windows ``[a, b)`` then ``[b, c)`` equal the window ``[a, c)``.  The traffic
driver depends on this equivalence to draw exactly what per-cycle calls
would draw; ``tests/test_workloads.py`` asserts it property-style for every
registered component.

Both abstractions are **open loop**: patterns and injectors never observe
the network — no call takes, and no implementation may read, anything the
interconnect did with earlier requests — and **a pattern and an injector
never share a random stream** (their substreams are keyed ``"pattern"`` and
``"injector"``, the two grandfathered shared streams are two generators), so
the order in which a driver interleaves arrival calls with destination
calls changes no draw.  A driver may therefore draw a whole window before
transporting any of it (:func:`repro.engine.traffic.run_vector_traffic`
does: one ``arrivals_batch`` call, then one ``destinations`` call), as
long as *each* component sees its own calls in the documented order:
arrivals cycle-major with cores ascending, one destination per arrival in
that same order.  A component that consulted network state, or drew from
the other component's stream, would break that driver silently.

Randomness comes from the per-core substreams of :mod:`repro.workloads.rng`
(see the reproducibility contract there): component- and core-disjoint
streams derived from the single experiment seed.  The shared ``self.rng``
stream on :class:`DestinationPattern` exists for the two grandfathered
legacy patterns and for ad-hoc subclasses; new patterns should draw from
:meth:`DestinationPattern.core_rng` instead.
"""

from __future__ import annotations

import random
from typing import ClassVar, Sequence

import numpy as np

from repro.core.config import MemPoolConfig
from repro.utils.validation import check_non_negative
from repro.workloads.rng import substream


class DestinationPattern:
    """Chooses the destination bank of each generated request.

    Parameters
    ----------
    config : MemPoolConfig
        The cluster the pattern addresses; destinations are global bank
        indices in ``[0, config.num_banks)``.
    seed : int
        Experiment seed; per-core substreams are mixed from it (see
        :mod:`repro.workloads.rng`).
    """

    #: Registry key of the pattern (set by concrete catalogue classes).
    name: ClassVar[str] = ""

    def __init__(self, config: MemPoolConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        #: Shared legacy stream — the draw-order-compatible stream of the
        #: grandfathered default patterns (see :mod:`repro.workloads.rng`).
        self.rng = random.Random(seed)
        self._core_rngs: list[random.Random] | None = None

    def core_rng(self, core_id: int) -> random.Random:
        """The per-core RNG substream of ``core_id`` (built lazily).

        Streams are keyed on ``(seed, "pattern", class name, core_id)``,
        so two different pattern classes built from the same seed — or the
        same pattern asked about two different cores — never alias.
        """
        if self._core_rngs is None:
            name = type(self).__name__
            self._core_rngs = [
                substream(self.seed, "pattern", name, core)
                for core in range(self.config.num_cores)
            ]
        return self._core_rngs[core_id]

    def destination(self, core_id: int) -> int:
        """Return the global bank index targeted by a new request of ``core_id``."""
        raise NotImplementedError

    def destinations(self, core_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Destination banks of many requests at once (the traffic driver).

        The default implementation loops :meth:`destination` in order, so
        the scalar/batched equivalence contract holds for any subclass;
        deterministic table patterns override it with an array gather.

        Parameters
        ----------
        core_ids : sequence of int
            Issuing core of each request; cores may repeat (one entry per
            request, in generation order).

        Returns
        -------
        numpy.ndarray
            Global bank index of each request, same length and order.
        """
        return np.fromiter(
            (self.destination(int(core)) for core in core_ids),
            dtype=np.int64,
            count=len(core_ids),
        )


class InjectionProcess:
    """Decides how many requests each core generates on each cycle.

    Parameters
    ----------
    num_cores : int
        Number of generating cores.
    injection_rate : float
        Long-run average rate in requests per core per cycle.
    seed : int
        Experiment seed; per-core substreams are mixed from it.

    Notes
    -----
    ``arrivals`` must be called with non-decreasing ``cycle`` values per
    core (the simulation loop calls it once per core per cycle); processes
    carry per-core state between calls.
    """

    #: Registry key of the process (set by concrete catalogue classes).
    name: ClassVar[str] = ""

    def __init__(self, num_cores: int, injection_rate: float, seed: int = 0) -> None:
        check_non_negative("injection_rate", injection_rate)
        self.num_cores = num_cores
        self.injection_rate = injection_rate
        self.seed = seed
        self._core_rngs: list[random.Random] | None = None

    def core_rng(self, core_id: int) -> random.Random:
        """The per-core RNG substream of ``core_id`` (built lazily, cached).

        Cached like :meth:`DestinationPattern.core_rng`: repeated calls
        return the *same* generator, so drawing through this method from
        ``arrivals`` continues the core's stream rather than restarting it.
        """
        if self._core_rngs is None:
            name = type(self).__name__
            self._core_rngs = [
                substream(self.seed, "injector", name, core)
                for core in range(self.num_cores)
            ]
        return self._core_rngs[core_id]

    def arrivals(self, core_id: int, cycle: int) -> int:
        """Number of new requests core ``core_id`` generates during ``cycle``."""
        raise NotImplementedError

    def arrivals_batch(self, start: int, end: int) -> tuple[list[int], list[int]]:
        """Every arrival of the window ``[start, end)``, as flat lists.

        Equivalent to calling :meth:`arrivals` cycle-major — cycles
        ascending, every core ascending within a cycle (the contract the
        traffic driver depends on).  Subclasses may override this with a
        faster loop but must preserve the draw order.

        Returns
        -------
        sources : list of int
            Issuing core of every request, in generation order; a core with
            ``n`` arrivals in a cycle appears ``n`` times in a row.
        ends : list of int
            Per cycle of the window, the end offset of its requests within
            ``sources`` (``[0] * (end - start)`` when nothing arrives).
        """
        sources: list[int] = []
        ends: list[int] = []
        arrivals = self.arrivals
        cores = range(self.num_cores)
        for cycle in range(start, end):
            for core_id in cores:
                count = arrivals(core_id, cycle)
                if count:
                    sources += [core_id] * count
            ends.append(len(sources))
        return sources, ends
