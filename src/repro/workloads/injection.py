"""Catalogue of injection processes: Poisson, Bernoulli and bursty on-off.

:class:`PoissonInjector` is the paper's process (Section V-A) and the
grandfathered legacy default: it keeps drawing interarrival times from the
shared ``random.Random(seed ^ 0x5EED)`` stream in exactly the seed
repository's order, so fixed-seed figure outputs stay bit-identical (see
the reproducibility contract in :mod:`repro.workloads.rng`).  The other
processes draw from per-core RNG substreams.

All processes share the :class:`~repro.workloads.base.InjectionProcess`
contract: ``arrivals_batch(start, end)`` consumes exactly the same draws as
``arrivals(core, cycle)`` called cycle-major over the window, all cores
ascending within a cycle, which is what keeps the vector fast path
cycle-exact with the legacy loop.  The window form is the only batched
form: the traffic driver makes at most one call per ``run()`` window —
none when it replays a first window another topology drew under the same
workload (4 calls on the 64-core Figure 5 sweep, where the per-cycle form
made 15,600) — and gets the flat source list it allocates rows from, with
no per-cycle ``(core, count)`` tuples to re-expand.
"""

from __future__ import annotations

import random
from math import log

from repro.utils.validation import check_in_range, check_non_negative
from repro.workloads.base import InjectionProcess


class PoissonInjector(InjectionProcess):
    """Per-core Poisson arrival process with rate ``injection_rate`` req/cycle."""

    name = "poisson"

    def __init__(self, num_cores: int, injection_rate: float, seed: int = 0) -> None:
        super().__init__(num_cores, injection_rate, seed)
        self.rng = random.Random(seed ^ 0x5EED)
        self._next_arrival = [
            self._first_arrival() for _ in range(num_cores)
        ]

    def _first_arrival(self) -> float:
        if self.injection_rate == 0.0:
            return float("inf")
        # Desynchronise the cores by starting each process at a random phase.
        return self.rng.uniform(0.0, 1.0 / self.injection_rate)

    def _interarrival(self) -> float:
        return self.rng.expovariate(self.injection_rate)

    def arrivals(self, core_id: int, cycle: int) -> int:
        """Number of new requests core ``core_id`` generates during ``cycle``."""
        if self.injection_rate == 0.0:
            return 0
        count = 0
        next_arrival = self._next_arrival[core_id]
        while next_arrival <= cycle:
            count += 1
            next_arrival += self._interarrival()
        self._next_arrival[core_id] = next_arrival
        return count

    def arrivals_batch(self, start: int, end: int) -> tuple[list[int], list[int]]:
        """Every arrival of the window ``[start, end)``, as flat lists.

        Equivalent to calling :meth:`arrivals` cycle-major, cores ascending
        — the shared random stream is consumed in exactly the same
        sequence, so mixing the two APIs across cycles is safe — but a core
        with no due arrival costs a single comparison instead of a method
        call, and an interarrival time is CPython's ``expovariate``
        formula (``-log(1.0 - random()) / rate``) computed in place.  The
        per-cycle pass stays a scan over ``_next_arrival``: at about 35 ns
        a scanned core against an estimated 0.35 µs per heaped or bucketed
        arrival, a sorted structure would only win below a load of roughly
        0.1, the cheap points.  Used by the vector traffic driver
        (:mod:`repro.engine.traffic`).
        """
        rate = self.injection_rate
        if rate == 0.0:
            return [], [0] * (end - start)
        sources: list[int] = []
        ends: list[int] = []
        append = sources.append
        next_arrival = self._next_arrival
        uniform = self.rng.random
        for cycle in range(start, end):
            for core_id, due in enumerate(next_arrival):
                if due > cycle:
                    continue
                while due <= cycle:
                    append(core_id)
                    due += -log(1.0 - uniform()) / rate
                next_arrival[core_id] = due
            ends.append(len(sources))
        return sources, ends


class BernoulliInjector(InjectionProcess):
    """Constant-rate process: one request per cycle with probability ``rate``.

    The discrete analogue of the Poisson process, with at most one arrival
    per core per cycle — the classic open-loop injector of NoC simulators.
    ``injection_rate`` must therefore not exceed 1.  Each core draws from
    its own RNG substream.
    """

    name = "bernoulli"

    def __init__(self, num_cores: int, injection_rate: float, seed: int = 0) -> None:
        super().__init__(num_cores, injection_rate, seed)
        check_in_range("injection_rate", injection_rate, 0.0, 1.0)
        self._rngs = [self.core_rng(core) for core in range(num_cores)]

    def arrivals(self, core_id: int, cycle: int) -> int:
        """1 with probability ``injection_rate``, else 0 (no draw at rate 0)."""
        if self.injection_rate == 0.0:
            return 0
        return 1 if self._rngs[core_id].random() < self.injection_rate else 0


class BurstyInjector(InjectionProcess):
    """Two-state on-off (bursty) process averaging ``injection_rate``.

    Each core alternates between an ON state, where it injects one request
    per cycle with probability ``burst_rate``, and a silent OFF state.
    State residency is geometric: the ON state persists with mean length
    ``burst_len`` cycles, and the OFF->ON transition probability is tuned
    so the long-run duty cycle equals ``injection_rate / burst_rate`` —
    the process offers the same average load as a Poisson injector of the
    same rate, but concentrated in bursts that stress buffer occupancy.

    Parameters
    ----------
    num_cores, injection_rate, seed
        See :class:`~repro.workloads.base.InjectionProcess`;
        ``injection_rate`` must not exceed ``burst_rate``.
    burst_len : float
        Mean ON-state duration in cycles (>= 1).
    burst_rate : float
        Injection probability per cycle while ON, in (0, 1].
    """

    name = "bursty"

    def __init__(
        self,
        num_cores: int,
        injection_rate: float,
        seed: int = 0,
        burst_len: float = 8.0,
        burst_rate: float = 1.0,
    ) -> None:
        super().__init__(num_cores, injection_rate, seed)
        check_non_negative("injection_rate", injection_rate)
        check_in_range("burst_rate", burst_rate, 1e-9, 1.0)
        if burst_len < 1.0:
            raise ValueError(f"burst_len must be >= 1 cycle, got {burst_len}")
        if injection_rate > burst_rate:
            raise ValueError(
                f"injection_rate ({injection_rate}) cannot exceed burst_rate "
                f"({burst_rate}): the ON state cannot offer enough load"
            )
        self.burst_len = burst_len
        self.burst_rate = burst_rate
        duty = injection_rate / burst_rate
        if duty >= 1.0:
            # Degenerate constant-rate case: the ON state must never end,
            # or the long-run rate falls short of the request.
            self._off_prob = 0.0
            self._on_prob = 1.0
        else:
            #: ON -> OFF probability (geometric mean length burst_len) and
            #: OFF -> ON probability, tuned for the target duty cycle.
            self._off_prob = 1.0 / burst_len
            self._on_prob = self._off_prob * duty / (1.0 - duty)
        self._rngs = [self.core_rng(core) for core in range(num_cores)]
        # Start each core in its stationary distribution so the measured
        # rate is unbiased from cycle 0.
        self._on = [rng.random() < duty for rng in self._rngs]

    def arrivals(self, core_id: int, cycle: int) -> int:
        """One arrival with probability ``burst_rate`` while ON, else none."""
        if self.injection_rate == 0.0:
            return 0
        rng = self._rngs[core_id]
        if self._on[core_id]:
            count = 1 if rng.random() < self.burst_rate else 0
            if rng.random() < self._off_prob:
                self._on[core_id] = False
            return count
        if rng.random() < self._on_prob:
            self._on[core_id] = True
        return 0
