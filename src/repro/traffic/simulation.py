"""Open-loop traffic simulation used for the network analysis of Section V.

Each core is replaced by a synthetic generator feeding an unbounded source
queue; the head of each queue is injected into the interconnect whenever the
first register stage of its path can accept it.  Accepted throughput and
average round-trip latency (including source queueing) are measured over a
window that starts after a warm-up period, which is how the saturation
behaviour shown in Figures 5 and 6 emerges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.catalogue import INJECTORS, PATTERNS
from repro.core.cluster import MemPoolCluster
from repro.engine import traffic as engine_traffic
from repro.utils.rotation import PermutationSchedule
from repro.utils.stats import Histogram, OnlineStats
from repro.workloads.base import DestinationPattern, InjectionProcess
from repro.workloads.injection import PoissonInjector
from repro.workloads.patterns import UniformRandomPattern


@dataclass
class TrafficResult:
    """Outcome of one traffic-simulation point (one injected-load value).

    Raises
    ------
    ValueError
        At construction, when ``measured_cycles`` or ``num_cores`` is not
        positive — such a point has no defined throughput, and failing
        early beats a ``ZeroDivisionError`` deep inside a report table.
    """

    topology: str
    injected_load: float
    measured_cycles: int
    num_cores: int
    generated_requests: int
    injected_requests: int
    completed_requests: int
    average_latency: float
    p95_latency: int
    max_latency: int
    local_fraction: float
    #: Optional per-flit completion log, ``(flit_id, core, bank, created,
    #: injected, completed)`` tuples in completion order; populated only
    #: when the simulation ran with ``record_flits=True`` (used by the
    #: engine-equivalence tests).
    flit_log: list[tuple[int, int, int, int, int, int]] | None = None
    #: Optional wire-energy summary of the measurement window
    #: (:class:`repro.energy.traffic.TrafficEnergySummary`), attached by
    #: the point functions when they run with ``energy=True``.  Derived
    #: deterministically from the result's own counters, so equivalent
    #: runs on different engines carry identical summaries.
    energy: object | None = None

    def __post_init__(self) -> None:
        if self.measured_cycles <= 0:
            raise ValueError(
                "TrafficResult needs a positive measurement window to define "
                f"throughput; got measured_cycles={self.measured_cycles}"
            )
        if self.num_cores <= 0:
            raise ValueError(
                "TrafficResult needs at least one core to define throughput; "
                f"got num_cores={self.num_cores}"
            )

    @property
    def throughput(self) -> float:
        """Accepted throughput in requests per core per cycle."""
        return self.completed_requests / (self.num_cores * self.measured_cycles)

    @property
    def offered_load(self) -> float:
        """Offered load in requests per core per cycle (alias of injected_load)."""
        return self.injected_load

    def as_row(self) -> list[float]:
        """Row used by the textual figure reports."""
        return [
            self.injected_load,
            self.throughput,
            self.average_latency,
            float(self.p95_latency),
        ]


class TrafficSimulation:
    """Drives synthetic traffic through one cluster configuration.

    Parameters
    ----------
    cluster : MemPoolCluster
        The cluster under test (either engine).
    injection_rate : float
        Offered load in requests per core per cycle.
    pattern : DestinationPattern or str, optional
        The destination pattern, as an instance or a name from
        :data:`repro.catalogue.PATTERNS`; uniform random by default.
    seed : int
        Experiment seed shared by pattern, injector and injection
        schedule (workload components derive disjoint substreams from
        it, see :mod:`repro.workloads.rng`).
    injector : InjectionProcess or str, optional
        The injection process, as an instance or a name from
        :data:`repro.catalogue.INJECTORS`; Poisson (the paper's process)
        by default.
    pattern_params, injector_params : dict, optional
        Catalogue parameters (e.g. ``{"p_local": 0.25}``) applied when
        the corresponding component is given by name; rejected with an
        instance, which is already fully constructed.
    """

    def __init__(
        self,
        cluster: MemPoolCluster,
        injection_rate: float,
        pattern: DestinationPattern | str | None = None,
        seed: int = 0,
        injector: InjectionProcess | str | None = None,
        pattern_params: dict | None = None,
        injector_params: dict | None = None,
    ) -> None:
        self.cluster = cluster
        if isinstance(pattern, str):
            pattern = PATTERNS.lookup(pattern).build(
                cluster.config, seed=seed, **(pattern_params or {})
            )
        elif pattern_params:
            raise ValueError(
                "pattern_params only apply when the pattern is given by "
                "registry name; got an already-built pattern instance"
            )
        self.pattern = pattern or UniformRandomPattern(cluster.config, seed=seed)
        self.injection_rate = injection_rate
        if isinstance(injector, str):
            injector = INJECTORS.lookup(injector).build(
                cluster.config.num_cores,
                injection_rate,
                seed=seed,
                **(injector_params or {}),
            )
        elif injector_params:
            raise ValueError(
                "injector_params only apply when the injector is given by "
                "registry name; got an already-built injector instance"
            )
        if injector is not None and injector.injection_rate != injection_rate:
            raise ValueError(
                f"injector rate {injector.injection_rate} disagrees with the "
                f"simulation's injection_rate {injection_rate}; the result "
                "would be labelled with the wrong offered load"
            )
        self.injector = injector or PoissonInjector(
            cluster.config.num_cores, injection_rate, seed=seed
        )
        self._queues: list[deque] = [deque() for _ in range(cluster.config.num_cores)]
        #: Source queues of engine rows used by the SoA-engine fast path —
        #: persistent across run() calls, mirroring ``self._queues`` on the
        #: legacy path, so back-to-back measurement windows see the same
        #: backlog on every engine.
        self._row_queues: list[deque] | None = (
            [deque() for _ in range(cluster.config.num_cores)]
            if getattr(cluster, "engine_kind", "legacy") != "legacy"
            else None
        )
        self._injection_schedule = PermutationSchedule(
            cluster.config.num_cores, seed=seed + 1
        )
        self._local_requests = 0
        self._total_requests = 0
        #: The simulation clock: the next cycle to simulate.  One clock for
        #: every run() window, because source queues, stage stamps and the
        #: injector's pending arrivals all carry absolute cycles.
        self._cycle = 0

    # ------------------------------------------------------------------ #
    # Per-cycle behaviour
    # ------------------------------------------------------------------ #

    def _generate(self, cycle: int) -> int:
        cluster = self.cluster
        generated = 0
        for core_id, queue in enumerate(self._queues):
            for _ in range(self.injector.arrivals(core_id, cycle)):
                bank_id = self.pattern.destination(core_id)
                flit = cluster.make_bank_flit(
                    core_id, bank_id, is_write=False, cycle=cycle
                )
                queue.append(flit)
                generated += 1
                self._total_requests += 1
                if cluster.is_local_bank(core_id, bank_id):
                    self._local_requests += 1
        return generated

    def _inject(self, cycle: int) -> int:
        network = self.cluster.network
        injected = 0
        queues = self._queues
        for index in self._injection_schedule.order(cycle):
            queue = queues[index]
            if queue and network.try_inject(queue[0], cycle):
                queue.popleft()
                injected += 1
        return injected

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #

    def run(
        self,
        warmup_cycles: int = 500,
        measure_cycles: int = 1500,
        record_flits: bool = False,
    ) -> TrafficResult:
        """Warm the network up, then measure throughput and latency.

        On a cluster built with ``engine="vector"`` the whole loop runs on
        the structure-of-arrays engine (:mod:`repro.engine.traffic`) — same
        random streams, flit-for-flit identical results, several times
        faster.  ``record_flits`` attaches the per-flit completion log to
        the result (see :attr:`TrafficResult.flit_log`).

        A second call continues where the first stopped: same clock, same
        backlog, same random streams.

        Raises
        ------
        ValueError
            When ``warmup_cycles`` is negative (the window would be
            shorter than the ``measure_cycles`` it is normalised by) or
            ``measure_cycles`` is not positive (nothing to normalise by);
            raised before any cycle is simulated.
        """
        if warmup_cycles < 0:
            raise ValueError(
                f"warmup_cycles must be non-negative, got {warmup_cycles}"
            )
        if measure_cycles < 1:
            raise ValueError(
                "measure_cycles must be positive (the measurement window "
                f"normalises throughput), got {measure_cycles}"
            )
        if getattr(self.cluster, "engine_kind", "legacy") != "legacy":
            # Through the module: bench/spans.py wraps the function there.
            return engine_traffic.run_vector_traffic(
                self, warmup_cycles, measure_cycles, record_flits=record_flits
            )
        network = self.cluster.network
        latency = OnlineStats()
        histogram = Histogram()
        flit_log: list[tuple[int, int, int, int, int, int]] = []
        completed_in_window = 0
        generated_in_window = 0
        injected_in_window = 0
        start = self._cycle
        end = start + warmup_cycles + measure_cycles
        for cycle in range(start, end):
            completions = network.advance(cycle)
            measuring = cycle >= start + warmup_cycles
            if measuring:
                completed_in_window += len(completions)
                for flit in completions:
                    latency.add(flit.latency)
                    histogram.add(flit.latency)
            if record_flits:
                for flit in completions:
                    flit_log.append(
                        (
                            flit.flit_id,
                            flit.core_id,
                            flit.bank_id,
                            flit.created_cycle,
                            flit.injected_cycle,
                            flit.completed_cycle,
                        )
                    )
            generated = self._generate(cycle)
            injected = self._inject(cycle)
            if measuring:
                generated_in_window += generated
                injected_in_window += injected
        self._cycle = end
        local_fraction = (
            self._local_requests / self._total_requests if self._total_requests else 0.0
        )
        return TrafficResult(
            topology=self.cluster.config.topology,
            injected_load=self.injection_rate,
            measured_cycles=measure_cycles,
            num_cores=self.cluster.config.num_cores,
            generated_requests=generated_in_window,
            injected_requests=injected_in_window,
            completed_requests=completed_in_window,
            average_latency=latency.mean,
            p95_latency=histogram.percentile(0.95),
            max_latency=int(latency.maximum) if latency.count else 0,
            local_fraction=local_fraction,
            flit_log=flit_log if record_flits else None,
        )
