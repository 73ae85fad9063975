"""Open-loop traffic measurement over the row API of either engine.

This is the one driver behind
:meth:`repro.traffic.simulation.TrafficSimulation.run`.  It talks to
``cluster.engine`` in rows — the structure-of-arrays
:class:`~repro.engine.vector.VectorEngine` on ``vector``, the
:class:`~repro.engine.legacy.LegacyEngine` over the per-object
``StageNetwork`` on ``legacy`` — so the window, the random streams
(arrival process, destination pattern, injection permutation) and the
statistics are the same code on both, and engine equivalence compares
the transport alone.

The experiment is *open loop*: the offered traffic never observes the
network (see :mod:`repro.workloads.base`).  The driver relies on that to
take request generation out of the per-cycle transport loop:

1. **Draw the window.**  One
   :meth:`~repro.workloads.base.InjectionProcess.arrivals_batch` call over
   the window's cycles, then — when anything arrived — one
   :meth:`~repro.workloads.base.DestinationPattern.destinations` call over
   all of its sources.  A pattern and an injector never share a random
   stream, and each batched call equals its scalar calls in sequence
   (``tests/test_workloads.py`` pins that for every catalogue pattern and
   injector), so every stream is consumed exactly as per-cycle scalar
   calls would consume it and any registered pattern/injector pair (trace
   replay included) runs here unchanged.  No per-cycle call, tuple or array is
   left.  A first window depends only on the simulation's workload key,
   so the process keeps the last one drawn and an equal key replays it
   (:func:`_allocate_window`): the load-major 64-core Figure 5 sweep
   makes 4 + 4 workload calls where one draw per point made 12 + 12 and
   the per-cycle form 15,600 + 15,429.
2. **Allocate the window.**  One ``engine.new_flits`` call turns the drawn
   requests into consecutive rows of the engine's
   :class:`~repro.engine.soa.FlitTable`, in generation order.  On
   ``vector`` template ids and chain heads come out of three table
   gathers, and only the rows whose injection hop enters the bank stage
   are touched one by one; on ``legacy`` a row gets its ``Flit`` when it
   first reaches the head of its source queue.
3. **Transport.**  Per cycle: the engine's level-ordered ``advance``, the
   cycle's new rows appended to their cores' source queues, one
   ``inject_queues`` pass.  Latency statistics are replayed once after the
   loop, over the completions in completion order.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.utils.stats import Histogram, OnlineStats


#: ``(key, window)`` of the last first window drawn in this process (see
#: :func:`_allocate_window`): one slot, replaced by every miss.
_last_window: tuple | None = None


def _draw_window(simulation, start: int, end: int) -> tuple:
    """Draw cycles ``start .. end - 1`` on the simulation's own components.

    One ``arrivals_batch`` call and — when anything arrived — one
    ``destinations`` call over all of its sources, each component in its
    scalar draw order (see :mod:`repro.workloads.base`).  Returns
    ``(sources, ends, banks, cores, created, local)``: the banks and
    issuing cores as read-only arrays, each request's creation cycle and
    the number of requests to the issuing core's own tile.
    """
    sources, ends = simulation.injector.arrivals_batch(start, end)
    if sources:
        banks = simulation.pattern.destinations(sources)
    else:
        banks = np.zeros(0, dtype=np.int64)
    created: list[int] = []
    done = 0
    for cycle, upto in zip(range(start, end), ends):
        created += [cycle] * (upto - done)
        done = upto
    cores = np.asarray(sources, dtype=np.int64)
    config = simulation.cluster.config
    local = int(np.count_nonzero(
        banks // config.banks_per_tile == cores // config.cores_per_tile
    ))
    # A window may outlive its simulation in the slot.
    cores.flags.writeable = banks.flags.writeable = False
    return sources, ends, banks, cores, created, local


def _allocate_window(simulation, engine, start: int, end: int):
    """Draw (or replay) cycles ``start .. end - 1`` and allocate them as rows.

    A first window (``start == 0``) depends only on the simulation's
    ``_workload_key``, so the process's last first-window miss is replayed
    under an equal key and length; the simulation's components then stay
    undrawn until its next window redraws the replayed one on them first.
    Updates the simulation's request counters.

    Returns
    -------
    first : int
        Row id of the window's first request; request ``i`` is row
        ``first + i``.
    sources : list of int
        Issuing core of every request, in generation order.
    ends : list of int
        Per cycle, the end offset of its requests within ``sources``.
    """
    global _last_window
    slot, key = _last_window, (simulation._workload_key, end)
    if start == 0 and slot is not None and slot[0] == key:
        window = slot[1]
        simulation._replayed_until = end
    elif start == 0 and key[0] is not None:
        slot = _last_window = None  # never two windows alive at once
        window = _draw_window(simulation, start, end)
        _last_window = (key, window)
    else:
        if simulation._replayed_until:  # catch the components up first
            _draw_window(simulation, 0, simulation._replayed_until)
            simulation._replayed_until = 0
        window = _draw_window(simulation, start, end)
    sources, ends, banks, cores, created, local = window
    simulation._local_requests += local
    simulation._total_requests += len(sources)
    return engine.new_flits(cores, banks, created), sources, ends


def run_vector_traffic(
    simulation,
    warmup_cycles: int,
    measure_cycles: int,
    record_flits: bool = False,
):
    """Run one open-loop traffic measurement on the cluster's row engine.

    The window starts at the simulation's clock and leaves it at the
    window's end.  Relying on the open-loop contract (patterns and
    injectors never observe the network), the whole window is drawn before
    its first cycle is transported — each component in its documented
    draw order, so the draws are those of per-cycle scalar calls.

    Parameters
    ----------
    simulation : repro.traffic.simulation.TrafficSimulation
        The configured simulation, on a cluster of either engine.  The
        driver reuses the simulation's injector, pattern, injection
        schedule, source queues and clock, so a second window continues
        the first exactly.
    warmup_cycles, measure_cycles : int
        Warm-up and measurement windows.
    record_flits : bool
        Attach the per-flit completion log to the result (used by the
        engine-equivalence tests).

    Returns
    -------
    repro.traffic.simulation.TrafficResult
        Identical, field for field, on both engines for the same seeds.
    """
    from repro.traffic.simulation import TrafficResult

    config = simulation.cluster.config
    engine = simulation.cluster.engine
    flits = engine.flits
    start = simulation._cycle
    end = start + warmup_cycles + measure_cycles
    first, sources, ends = _allocate_window(simulation, engine, start, end)

    advance = engine.advance
    inject_queues = engine.inject_queues
    order = simulation._injection_schedule.order
    # The simulation-owned row queues: persistent across run() calls, so
    # repeated windows stay cycle-exact.
    queues = simulation._queues
    measure_start = start + warmup_cycles
    #: Completed rows in completion order (packed: holds no int objects).
    completed = array("q")
    completed_before = injected_before = 0
    done = 0
    for cycle, upto in zip(range(start, end), ends):
        if cycle == measure_start:
            completed_before = len(completed)
            injected_before = engine.total_injected
        completed.extend(advance(cycle))
        for core_id, row in zip(sources[done:upto], range(first + done, first + upto)):
            queues[core_id].append(row)
        done = upto
        inject_queues(queues, order(cycle), cycle)
    simulation._cycle = end

    # Statistics, replayed in completion order (Welford's mean depends on it).
    measured = np.frombuffer(completed, dtype=np.int64)[completed_before:]
    flits.sync()
    latencies = (flits.completed_cycle[measured] - flits.created_cycle[measured]).tolist()
    latency = OnlineStats()
    latency.extend(latencies)
    histogram = Histogram()
    histogram.extend(latencies)
    local_fraction = (
        simulation._local_requests / simulation._total_requests
        if simulation._total_requests
        else 0.0
    )
    return TrafficResult(
        topology=config.topology,
        injected_load=simulation.injection_rate,
        measured_cycles=measure_cycles,
        num_cores=config.num_cores,
        generated_requests=len(sources) - (ends[warmup_cycles - 1] if warmup_cycles else 0),
        injected_requests=engine.total_injected - injected_before,
        completed_requests=len(measured),
        average_latency=latency.mean,
        p95_latency=histogram.percentile(0.95),
        max_latency=int(latency.maximum) if latency.count else 0,
        local_fraction=local_fraction,
        flit_log=[flits.row_record(row) for row in completed] if record_flits else None,
    )
