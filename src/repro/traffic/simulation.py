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
from repro.workloads.base import DestinationPattern, InjectionProcess


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
        pattern = "uniform" if pattern is None else pattern
        injector = "poisson" if injector is None else injector
        #: What the offered traffic depends on when both components are
        #: catalogue names that read no file (not the topology): equal keys
        #: draw equal windows, which :mod:`repro.engine.traffic` replays.
        self._workload_key = None
        if isinstance(pattern, str) and isinstance(injector, str) and not (
            PATTERNS.lookup(pattern).required or INJECTORS.lookup(injector).required
        ):
            self._workload_key = (
                pattern, pattern_params or {}, injector, injector_params or {},
                seed, injection_rate,
                {**vars(cluster.config), "topology": None, "topology_params": None},
            )
        #: End of a replayed first window the components have not drawn (or 0).
        self._replayed_until = 0
        if isinstance(pattern, str):
            pattern = PATTERNS.lookup(pattern).build(
                cluster.config, seed=seed, **(pattern_params or {})
            )
        elif pattern_params:
            raise ValueError(
                "pattern_params only apply when the pattern is given by "
                "catalogue name; got an already-built pattern instance"
            )
        self.pattern = pattern
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
                "catalogue name; got an already-built injector instance"
            )
        if injector.injection_rate != injection_rate:
            raise ValueError(
                f"injector rate {injector.injection_rate} disagrees with the "
                f"simulation's injection_rate {injection_rate}; the result "
                "would be labelled with the wrong offered load"
            )
        self.injector = injector
        #: Per-core source queues of engine rows, persistent across run()
        #: calls, so back-to-back measurement windows see the same backlog.
        self._queues: list[deque] = [deque() for _ in range(cluster.config.num_cores)]
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
    # Measurement
    # ------------------------------------------------------------------ #

    def run(
        self,
        warmup_cycles: int = 500,
        measure_cycles: int = 1500,
        record_flits: bool = False,
    ) -> TrafficResult:
        """Warm the network up, then measure throughput and latency.

        One driver, :func:`repro.engine.traffic.run_vector_traffic`, runs
        the window on the cluster's row engine
        (:attr:`repro.core.cluster.MemPoolCluster.engine`): the
        structure-of-arrays engine on ``vector``, the per-object oracle on
        ``legacy`` — same random streams, flit-for-flit identical results.  ``record_flits``
        attaches the per-flit completion log to the result (see
        :attr:`TrafficResult.flit_log`).

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
        # Through the module: bench/spans.py wraps the function there.
        return engine_traffic.run_vector_traffic(
            self, warmup_cycles, measure_cycles, record_flits=record_flits
        )
