"""Figure 5: throughput and average latency of Top1 / Top4 / TopH vs injected load.

Paper observations this experiment reproduces:

* Top1 congests around 0.10 request/core/cycle — the single remote port per
  tile concentrates the traffic of four cores;
* Top4 and TopH support roughly four times that load (about
  0.38 request/core/cycle in the paper);
* TopH's average latency stays below ~6 cycles up to a load of about
  0.33 request/core/cycle and is lower than Top4's thanks to the 3-cycle
  local-group accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cluster import MemPoolCluster
from repro.evaluation.series import collect_series
from repro.evaluation.settings import (
    DEFAULT_MEASURE_CYCLES,
    DEFAULT_SEED,
    DEFAULT_WARMUP_CYCLES,
    ExperimentSettings,
)
from repro.experiments import Executor, ExperimentSpec, Sweep
from repro.traffic import TrafficResult, TrafficSimulation
from repro.utils.ascii_plot import ascii_plot
from repro.utils.tables import format_series

#: Injected loads swept by default (request/core/cycle).
DEFAULT_LOADS = (0.025, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
#: Topologies shown in the figure.
FIG5_TOPOLOGIES = ("top1", "top4", "toph")


@dataclass
class Fig5Result:
    """Per-topology throughput/latency series."""

    loads: tuple[float, ...]
    results: dict[str, list[TrafficResult]] = field(default_factory=dict)

    def throughput(self, topology: str) -> list[float]:
        """Accepted-throughput series of ``topology``, one value per load."""
        return [result.throughput for result in self.results[topology]]

    def latency(self, topology: str) -> list[float]:
        """Average-latency series of ``topology``, one value per load."""
        return [result.average_latency for result in self.results[topology]]

    def saturation_throughput(self, topology: str) -> float:
        """Highest accepted throughput observed for ``topology``."""
        return max(self.throughput(topology))

    def latency_at(self, topology: str, load: float) -> float:
        """Average latency at the sweep point closest to ``load``."""
        index = min(range(len(self.loads)), key=lambda i: abs(self.loads[i] - load))
        return self.latency(topology)[index]

    def report(self) -> str:
        """Textual rendering of Figures 5a (throughput) and 5b (latency)."""
        throughput = format_series(
            "injected load",
            list(self.loads),
            {topology: self.throughput(topology) for topology in self.results},
            title="Figure 5a: throughput (request/core/cycle)",
        )
        latency = format_series(
            "injected load",
            list(self.loads),
            {topology: self.latency(topology) for topology in self.results},
            title="Figure 5b: average round-trip latency (cycles)",
        )
        return f"{throughput}\n\n{latency}"

    def plot(self) -> str:
        """ASCII rendering of Figure 5a (throughput vs injected load)."""
        return ascii_plot(
            list(self.loads),
            {topology: self.throughput(topology) for topology in self.results},
            x_label="injected load (request/core/cycle)",
            y_label="thr",
            title="Figure 5a (ASCII): accepted throughput",
        )


def simulate_fig5_point(
    *,
    topology: str,
    load: float,
    full_scale: bool = False,
    warmup_cycles: int = DEFAULT_WARMUP_CYCLES,
    measure_cycles: int = DEFAULT_MEASURE_CYCLES,
    seed: int = DEFAULT_SEED,
    engine: str = "legacy",
    pattern: str = "uniform",
    injector: str = "poisson",
    energy: bool = False,
) -> TrafficResult:
    """Simulate one (topology, load) point of Figure 5.

    This is the sweep-engine *point function*: a module-level callable
    taking only picklable keyword arguments, so worker processes can
    re-import and run it (see :mod:`repro.experiments`).  Every point
    builds its own cluster and RNGs, making points independent.

    Parameters
    ----------
    topology : str
        Interconnect topology (``top1``, ``top4``, ``toph`` or ``topx``).
    load : float
        Injected load in requests per core per cycle.
    full_scale : bool
        Use the full 256-core cluster instead of the scaled 64-core one.
    warmup_cycles, measure_cycles : int
        Warm-up and measurement windows of the traffic simulation.
    seed : int
        Seed of the traffic generator.
    engine : str
        Timing engine (``legacy``, ``vector`` or ``compiled``); all
        produce identical results for fixed seeds, ``vector`` is several
        times faster.
    pattern, injector : str
        Workload registry names (see :mod:`repro.workloads`); the paper's
        Figure 5 is ``uniform`` x ``poisson``, but any registered pair
        runs through either engine.
    energy : bool
        Attach the Figure 10 wire-energy summary to the result
        (:func:`repro.energy.traffic.traffic_energy`); derived from the
        result's counters, so it never changes the timing numbers.

    Returns
    -------
    TrafficResult
        Throughput/latency measurements of the point.

    Examples
    --------
    >>> result = simulate_fig5_point(
    ...     topology="toph", load=0.1, warmup_cycles=50, measure_cycles=100)
    >>> 0.0 < result.throughput <= 0.2
    True
    """
    settings = ExperimentSettings(
        full_scale=full_scale,
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        seed=seed,
        engine=engine,
        pattern=pattern,
        injector=injector,
        energy=energy,
    )
    cluster = MemPoolCluster(settings.config(topology), engine=settings.engine)
    simulation = TrafficSimulation(
        cluster, load, pattern=settings.pattern, seed=settings.seed,
        injector=settings.injector,
    )
    result = simulation.run(
        warmup_cycles=settings.warmup_cycles,
        measure_cycles=settings.measure_cycles,
    )
    from repro.energy.traffic import attach_energy

    return attach_energy(cluster, result, settings.energy)


def fig5_sweep(
    settings: ExperimentSettings | None = None,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    topologies: tuple[str, ...] = FIG5_TOPOLOGIES,
) -> Sweep:
    """The (topology x load) parameter grid of Figure 5 as a :class:`Sweep`."""
    settings = settings or ExperimentSettings()
    return Sweep(
        runner="repro.evaluation.fig5:simulate_fig5_point",
        grid={"topology": tuple(topologies), "load": tuple(loads)},
        base=settings.as_params(),
        name="fig5",
    )


def assemble_fig5(
    specs: list[ExperimentSpec], results: list[TrafficResult]
) -> Fig5Result:
    """Group per-point traffic results back into a :class:`Fig5Result`."""
    loads, grouped = collect_series(specs, results, "topology")
    return Fig5Result(loads=loads, results=grouped)


def run_fig5(
    settings: ExperimentSettings | None = None,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    topologies: tuple[str, ...] = FIG5_TOPOLOGIES,
    executor: Executor | None = None,
) -> Fig5Result:
    """Run the uniform-random traffic sweep of Figure 5.

    Parameters
    ----------
    settings : ExperimentSettings, optional
        Scale/window knobs; defaults honour ``MEMPOOL_FULL``.
    loads : tuple of float
        Injected loads to sweep.
    topologies : tuple of str
        Topologies to sweep.
    executor : repro.experiments.Executor, optional
        Sweep engine to run on.  The default is a serial, uncached
        executor; pass ``Executor(workers=N, cache=...)`` to parallelise
        and cache.

    Examples
    --------
    >>> settings = ExperimentSettings(warmup_cycles=50, measure_cycles=100)
    >>> result = run_fig5(settings, loads=(0.05,), topologies=("toph",))
    >>> len(result.throughput("toph"))
    1
    """
    sweep = fig5_sweep(settings, loads, topologies)
    specs = sweep.specs()
    results = (executor or Executor()).run(specs)
    return assemble_fig5(specs, results)
