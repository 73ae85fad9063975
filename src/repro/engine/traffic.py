"""Open-loop traffic measurement running natively on the SoA engine.

This is the fast path behind :meth:`repro.traffic.simulation.TrafficSimulation.run`
when the cluster was built with ``engine="vector"``: the
same warm-up / measure window, the same random streams (arrival process,
destination pattern, injection permutation — drawn in exactly the legacy
order, so results are flit-for-flit identical), but no :class:`Flit`
objects anywhere.

The experiment is *open loop*: the offered traffic never observes the
network (see :mod:`repro.workloads.base`).  The driver relies on that to
take request generation out of the per-cycle transport loop:

1. **Draw the window.**  One
   :meth:`~repro.workloads.base.InjectionProcess.arrivals_batch` call over
   the window's cycles, then — when anything arrived — one
   :meth:`~repro.workloads.base.DestinationPattern.destinations` call over
   all of its sources.  A pattern and an injector never share a random
   stream, and each batched call equals its scalar calls in sequence, so
   every stream is consumed exactly as the legacy loop's per-cycle calls
   consume it and any registered pattern/injector pair (trace replay
   included) runs here unchanged.  No per-cycle call, tuple or array is
   left: the 64-core Figure 5 sweep makes 12 + 12 workload calls where the
   per-cycle form made 15,600 + 15,429.
2. **Allocate the window.**  One ``engine.new_flits`` call turns the drawn
   requests into consecutive rows of the engine's
   :class:`~repro.engine.soa.FlitTable`, in generation order — the row ids
   the legacy loop's per-request allocation hands out.  Template ids and
   chain heads come out of three table gathers; only the rows whose
   injection hop enters the bank stage are touched one by one.
3. **Transport.**  Per cycle: the engine's level-ordered ``advance``, the
   cycle's new rows appended to their cores' source queues, one
   ``inject_queues`` pass.  Latency statistics are replayed once after the
   loop, over the completions in completion order.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.utils.stats import Histogram, OnlineStats


def _allocate_window(simulation, engine, start: int, end: int):
    """Draw cycles ``start .. end - 1`` and allocate their requests as rows.

    One ``arrivals_batch(start, end)`` call and — when anything arrived —
    one ``destinations(sources)`` call over the whole window's sources:
    each component sees the draws of the legacy loop in the legacy order
    (see :mod:`repro.workloads.base`).  Updates the simulation's request
    counters.

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
    core_tile = np.asarray(
        [config.tile_of_core(core) for core in range(config.num_cores)]
    )
    bank_tile = np.asarray(engine.compiled.tile_of_bank)
    simulation._local_requests += int(
        np.count_nonzero(bank_tile[banks] == core_tile[cores])
    )
    simulation._total_requests += len(sources)
    return engine.new_flits(cores, banks, created), sources, ends


def run_vector_traffic(
    simulation,
    warmup_cycles: int,
    measure_cycles: int,
    record_flits: bool = False,
):
    """Run one open-loop traffic measurement on an SoA engine.

    The window starts at the simulation's clock and leaves it at the
    window's end.  Relying on the open-loop contract (patterns and
    injectors never observe the network), the whole window is drawn before
    its first cycle is transported — each component in its documented
    draw order, so the draws are those of the legacy loop.

    Parameters
    ----------
    simulation : repro.traffic.simulation.TrafficSimulation
        The configured simulation; its cluster must have been built with
        ``engine="vector"``.  The driver reuses the
        simulation's injector, pattern, injection schedule, source queues
        and clock so repeated windows match the legacy loop call for call.
    warmup_cycles, measure_cycles : int
        Warm-up and measurement windows.
    record_flits : bool
        Attach the per-flit completion log to the result (used by the
        engine-equivalence tests).

    Returns
    -------
    repro.traffic.simulation.TrafficResult
        Identical, field for field, to what the legacy object loop returns
        for the same seeds.
    """
    from repro.traffic.simulation import TrafficResult

    config = simulation.cluster.config
    engine = simulation.cluster.network.engine
    flits = engine.flits
    start = simulation._cycle
    end = start + warmup_cycles + measure_cycles
    first, sources, ends = _allocate_window(simulation, engine, start, end)

    advance = engine.advance
    inject_queues = engine.inject_queues
    order = simulation._injection_schedule.order
    # The simulation-owned row queues: persistent across run() calls, like
    # the legacy loop's Flit queues, so repeated windows stay cycle-exact.
    queues = simulation._row_queues
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
