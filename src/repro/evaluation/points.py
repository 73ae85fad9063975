"""The point functions of every experiment — the one runner module.

A *point function* runs one parameter combination of a sweep: a
module-level callable taking only picklable keyword arguments, so worker
processes can import and call it by its ``"module:function"`` path (see
:mod:`repro.experiments`).  Every point builds its own cluster and RNGs,
which makes points independent.

This is the only module of :mod:`repro.evaluation` that imports the
simulator, and it imports **all** of it at the top.  That is the rule the
package's import layering rests on (``docs/architecture.md``, "Import
layering"): *resolving a runner imports everything its points execute,
and nothing on the light path imports a runner module.*  The ``figN``
modules only name these functions as strings, so building, counting and
hashing a sweep loads no simulator; the executors resolve the runners in
the parent before they fork, so a pool's workers inherit the simulator
instead of each importing it.

The wrapped callables of ``bench/spans.py`` (``build_topology``,
``run_vector_traffic``, ``execute_spec``) are deliberately not bound by
name here: they are reached through their defining modules, where the
traced pass replaces them.
"""

from __future__ import annotations

import os

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.energy import EnergyModel, InstructionEnergy, PowerModel
from repro.energy.traffic import attach_energy
from repro.evaluation.physical_tables import PhysicalTablesResult
from repro.evaluation.power_table import PowerTableResult
from repro.evaluation.settings import (
    DEFAULT_MEASURE_CYCLES,
    DEFAULT_SEED,
    DEFAULT_WARMUP_CYCLES,
    ExperimentSettings,
)
from repro.evaluation.topologies import (
    DEFAULT_CATALOGUE_LOAD as DEFAULT_TOPOLOGY_CATALOGUE_LOAD,
)
from repro.evaluation.traces import (
    DEFAULT_DRAIN_CYCLES,
    DEFAULT_TRACE_LOAD,
    DEFAULT_TRACE_MEASURE,
    DEFAULT_TRACE_TOPOLOGY,
    DEFAULT_TRACE_WARMUP,
)
from repro.evaluation.workloads import (
    DEFAULT_CATALOGUE_LOAD,
    DEFAULT_CATALOGUE_TOPOLOGY,
)
from repro.kernels import Conv2dKernel, DctKernel, KernelResult, MatmulKernel
from repro.physical import AreaModel, FloorplanModel, TimingModel
from repro.physical.timing import CLUSTER_CRITICAL_PATH
from repro.traffic import TrafficResult, TrafficSimulation
from repro.workloads import LocalBiasedPattern
from repro.workloads.trace import record_trace


def _measure_traffic(
    settings: ExperimentSettings,
    config: MemPoolConfig,
    load: float,
    pattern,
    **components,
) -> TrafficResult:
    """The shared tail of the traffic points: cluster, run, energy.

    ``pattern`` is a workload registry name or a built pattern;
    ``components`` are the remaining workload arguments of
    :class:`~repro.traffic.simulation.TrafficSimulation` (``injector``,
    ``pattern_params``, ``injector_params``).  Engine, seed, windows and
    the energy switch come from ``settings``.
    """
    cluster = MemPoolCluster(config, engine=settings.engine)
    simulation = TrafficSimulation(
        cluster, load, pattern=pattern, seed=settings.seed, **components
    )
    result = simulation.run(
        warmup_cycles=settings.warmup_cycles,
        measure_cycles=settings.measure_cycles,
    )
    return attach_energy(cluster, result, settings.energy)


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
        Timing engine (``legacy`` or ``vector``); both produce identical
        results for fixed seeds, ``vector`` is several times faster.
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
    return _measure_traffic(
        settings, settings.config(topology), load, settings.pattern,
        injector=settings.injector,
    )


def simulate_fig6_point(
    *,
    p_local: float,
    load: float,
    full_scale: bool = False,
    warmup_cycles: int = DEFAULT_WARMUP_CYCLES,
    measure_cycles: int = DEFAULT_MEASURE_CYCLES,
    seed: int = DEFAULT_SEED,
    engine: str = "legacy",
    injector: str = "poisson",
    energy: bool = False,
) -> TrafficResult:
    """Simulate one (p_local, load) point of Figure 6 on the TopH cluster.

    Parameters
    ----------
    p_local : float
        Probability that a request targets the issuing core's own tile.
    load : float
        Injected load in requests per core per cycle.
    full_scale : bool
        Use the full 256-core cluster instead of the scaled 64-core one.
    warmup_cycles, measure_cycles : int
        Warm-up and measurement windows of the traffic simulation.
    seed : int
        Seed shared by the pattern and the injector.
    engine : str
        Timing engine (``legacy`` or ``vector``); both produce identical
        results for fixed seeds, ``vector`` is several times faster.
    injector : str
        Injection-process registry name (see :mod:`repro.workloads`);
        the paper uses ``poisson``.  The destination pattern is not a
        knob here — the ``local_biased`` pattern *is* the experiment.
    energy : bool
        Attach the Figure 10 wire-energy summary to the result
        (:func:`repro.energy.traffic.traffic_energy`).

    Returns
    -------
    TrafficResult
        Throughput/latency measurements of the point.

    Examples
    --------
    >>> result = simulate_fig6_point(
    ...     p_local=1.0, load=0.2, warmup_cycles=50, measure_cycles=100)
    >>> result.local_fraction
    1.0
    """
    settings = ExperimentSettings(
        full_scale=full_scale,
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        seed=seed,
        engine=engine,
        injector=injector,
        energy=energy,
    )
    config = settings.config("toph")
    pattern = LocalBiasedPattern(config, p_local, seed=settings.seed)
    return _measure_traffic(
        settings, config, load, pattern, injector=settings.injector
    )


def _build_kernel(name: str, cluster: MemPoolCluster, settings: ExperimentSettings):
    if name == "matmul":
        return MatmulKernel(cluster, size=settings.matmul_size, seed=settings.seed)
    if name == "2dconv":
        return Conv2dKernel(cluster, width=settings.conv_width, seed=settings.seed)
    if name == "dct":
        return DctKernel(
            cluster, blocks_per_core=settings.dct_blocks_per_core, seed=settings.seed
        )
    raise ValueError(f"unknown kernel {name!r}")


def simulate_fig7_point(
    *,
    kernel: str,
    topology: str,
    scrambling: bool,
    full_scale: bool = False,
    seed: int = DEFAULT_SEED,
    verify: bool = True,
    engine: str = "legacy",
) -> KernelResult:
    """Simulate one (kernel, topology, scrambling) point of Figure 7.

    Parameters
    ----------
    kernel : str
        Benchmark name: ``matmul``, ``2dconv`` or ``dct``.
    topology : str
        Interconnect topology (``topx`` is the ideal-crossbar baseline).
    scrambling : bool
        Whether the hybrid-addressing scrambling logic is enabled.
    full_scale : bool
        Use the full 256-core cluster and the paper's benchmark sizes.
    seed : int
        Seed of the kernel's input data.
    verify : bool
        Check the simulated memory contents against a numpy reference.
    engine : str
        Timing engine (``legacy`` or ``vector``); both produce identical
        cycle counts for fixed seeds, ``vector`` is faster.

    Returns
    -------
    KernelResult
        Cycle count, correctness flag and activity counters.

    Examples
    --------
    >>> result = simulate_fig7_point(
    ...     kernel="dct", topology="toph", scrambling=True)
    >>> result.correct and result.cycles > 0
    True
    """
    settings = ExperimentSettings(full_scale=full_scale, seed=seed, engine=engine)
    config = settings.config(topology, scrambling_enabled=scrambling)
    cluster = MemPoolCluster(config, engine=settings.engine)
    return _build_kernel(kernel, cluster, settings).run(verify=verify)


def compute_fig10_point(*, topology: str = "toph") -> list[InstructionEnergy]:
    """Compute the per-instruction energy entries for one topology.

    The energy figures always refer to the full 64-tile cluster (the
    remote-access mix depends on the cluster size), so the simulation
    scale is not a parameter.

    Parameters
    ----------
    topology : str
        Interconnect topology to evaluate.

    Returns
    -------
    list of InstructionEnergy
        One entry per instruction class (add, mul, local/remote load).

    Examples
    --------
    >>> entries = compute_fig10_point(topology="toph")
    >>> any(entry.name == "remote load" for entry in entries)
    True
    """
    cluster = MemPoolCluster(MemPoolConfig.full(topology))
    return EnergyModel(cluster).instruction_energies()


def compute_power_point(
    *,
    full_scale: bool = False,
    seed: int = DEFAULT_SEED,
    frequency_hz: float = 500e6,
    engine: str = "legacy",
) -> PowerTableResult:
    """Run matmul on TopH and evaluate the power model on its activity.

    Parameters
    ----------
    full_scale : bool
        Use the full 256-core cluster and the paper's matmul size.
    seed : int
        Seed of the matmul input data.
    frequency_hz : float
        Operating frequency the power model evaluates at.
    engine : str
        Timing engine (``legacy`` or ``vector``); both produce identical
        activity counters for fixed seeds, ``vector`` is faster.

    Returns
    -------
    PowerTableResult
        The tile/cluster power breakdown plus the kernel activity.

    Examples
    --------
    >>> result = compute_power_point()
    >>> result.breakdown.tile_total_mw > 0
    True
    """
    settings = ExperimentSettings(full_scale=full_scale, seed=seed, engine=engine)
    cluster = MemPoolCluster(settings.config("toph"), engine=settings.engine)
    kernel = MatmulKernel(cluster, size=settings.matmul_size, seed=settings.seed)
    result = kernel.run(verify=False)
    model = PowerModel(cluster, frequency_hz=frequency_hz)
    return PowerTableResult(
        breakdown=model.breakdown(result.system),
        kernel=result,
        frequency_hz=frequency_hz,
    )


def compute_physical_point(*, topology: str = "toph") -> PhysicalTablesResult:
    """Evaluate the physical models on the full-size cluster.

    Physical figures always refer to the full 64-tile cluster, regardless
    of the simulation scale used for the performance experiments.

    Parameters
    ----------
    topology : str
        Topology whose tile/cluster macros are evaluated.

    Returns
    -------
    PhysicalTablesResult
        Area, timing and congestion figures.

    Examples
    --------
    >>> result = compute_physical_point(topology="toph")
    >>> result.congestion["toph"].feasible
    True
    """
    cluster = MemPoolCluster(MemPoolConfig.full(topology))
    area = AreaModel(cluster)
    timing = TimingModel()
    floorplan = FloorplanModel(cluster)
    return PhysicalTablesResult(
        tile=area.tile_breakdown(),
        cluster=area.cluster_report(),
        frequencies_mhz=timing.cluster_frequencies(),
        wire_fraction=timing.wire_fraction(CLUSTER_CRITICAL_PATH, "worst"),
        congestion=floorplan.compare_topologies(),
    )


def simulate_workload_point(
    *,
    pattern: str,
    injector: str,
    load: float = DEFAULT_CATALOGUE_LOAD,
    topology: str = DEFAULT_CATALOGUE_TOPOLOGY,
    topology_params: dict | None = None,
    full_scale: bool = False,
    warmup_cycles: int = DEFAULT_WARMUP_CYCLES,
    measure_cycles: int = DEFAULT_MEASURE_CYCLES,
    seed: int = DEFAULT_SEED,
    engine: str = "legacy",
    energy: bool = False,
) -> TrafficResult:
    """Simulate one (pattern, injector) point of the workload catalogue.

    Parameters
    ----------
    pattern, injector : str
        Workload registry names (see :mod:`repro.workloads`).
    load : float
        Injected load in requests per core per cycle.
    topology : str
        Interconnect topology to drive, by topology registry name
        (see :mod:`repro.topologies`).
    topology_params : dict, optional
        Family-specific topology knobs (e.g. ``{"width": 8}``).
    full_scale, warmup_cycles, measure_cycles, seed, engine, energy
        As in :func:`simulate_fig5_point`.

    Examples
    --------
    >>> result = simulate_workload_point(
    ...     pattern="neighbor", injector="bernoulli", load=0.1,
    ...     warmup_cycles=50, measure_cycles=100)
    >>> result.throughput > 0.0
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
        topology=topology,
        topology_params=dict(topology_params or {}),
        energy=energy,
    )
    config = settings.config(topology, topology_params=settings.topology_params)
    return _measure_traffic(
        settings, config, load, settings.pattern, injector=settings.injector
    )


def simulate_topology_point(
    *,
    topology: str,
    topology_params: dict | None = None,
    load: float = DEFAULT_TOPOLOGY_CATALOGUE_LOAD,
    full_scale: bool = False,
    warmup_cycles: int = DEFAULT_WARMUP_CYCLES,
    measure_cycles: int = DEFAULT_MEASURE_CYCLES,
    seed: int = DEFAULT_SEED,
    engine: str = "legacy",
    pattern: str = "uniform",
    injector: str = "poisson",
    energy: bool = False,
) -> TrafficResult:
    """Simulate one topology point of the catalogue.

    Parameters
    ----------
    topology : str
        Topology registry name (see :mod:`repro.topologies`).
    topology_params : dict, optional
        Family-specific knobs (e.g. ``{"width": 8, "height": 2}``).
    load : float
        Injected load in requests per core per cycle.
    full_scale, warmup_cycles, measure_cycles, seed, engine, energy
        As in :func:`simulate_fig5_point`.
    pattern, injector : str
        Workload registry names driving every topology identically.

    Examples
    --------
    >>> result = simulate_topology_point(
    ...     topology="mesh", load=0.1, warmup_cycles=50, measure_cycles=100)
    >>> result.throughput > 0.0
    True
    """
    # The same point as the workload catalogue's, under this catalogue's
    # defaults: there the workload is the axis, here the topology.
    return simulate_workload_point(
        pattern=pattern, injector=injector, load=load, topology=topology,
        topology_params=topology_params, full_scale=full_scale,
        warmup_cycles=warmup_cycles, measure_cycles=measure_cycles, seed=seed,
        engine=engine, energy=energy,
    )


def simulate_trace_point(
    *,
    topology: str,
    trace: str,
    trace_sha: str,
    load: float,
    topology_params: dict | None = None,
    full_scale: bool = False,
    warmup_cycles: int = 0,
    measure_cycles: int = DEFAULT_TRACE_MEASURE + DEFAULT_DRAIN_CYCLES,
    seed: int = DEFAULT_SEED,
    engine: str = "legacy",
    energy: bool = True,
) -> TrafficResult:
    """Replay one trace on one topology family.

    ``trace_sha`` is the content hash the sweep was expanded against —
    the replay components verify the file still matches it, so a trace
    modified between expansion and execution fails loudly instead of
    silently relabelling cached results.

    Parameters
    ----------
    topology : str
        Topology registry name (see :mod:`repro.topologies`).
    trace : str
        Path of the trace file (see :mod:`repro.workloads.trace`).
    trace_sha : str
        Expected content sha256 of the trace.
    load : float
        Offered-load label of the result (the trace's mean rate).
    topology_params : dict, optional
        Family-specific knobs (e.g. ``{"width": 8, "height": 2}``).
    full_scale, warmup_cycles, measure_cycles, seed, engine, energy
        As in :func:`simulate_fig5_point`; the sweep passes
        ``warmup_cycles=0`` and a window covering the whole trace plus a
        drain margin, so the stats span the entire replay.

    Examples
    --------
    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as root:
    ...     path = os.path.join(root, "t.trace.gz")
    ...     sha = record_default_trace(ExperimentSettings(), path)
    ...     result = simulate_trace_point(
    ...         topology="mesh", trace=path, trace_sha=sha, load=0.25)
    >>> result.completed_requests > 0 and result.energy is not None
    True
    """
    settings = ExperimentSettings(
        full_scale=full_scale,
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        seed=seed,
        engine=engine,
        topology=topology,
        topology_params=dict(topology_params or {}),
        energy=energy,
        trace=trace,
    )
    config = settings.config(topology, topology_params=settings.topology_params)
    replay = {"path": trace, "sha": trace_sha}
    return _measure_traffic(
        settings, config, load, "trace",
        pattern_params=replay, injector="trace", injector_params=replay,
    )


def record_default_trace(
    settings: ExperimentSettings, path: str, force: bool = True
) -> str:
    """Record the deterministic default trace to ``path``; returns its sha.

    A short uniform x poisson measurement on the paper's TopH cluster —
    the flit log is engine-independent, so the recorded bytes (and the
    content hash every cache key embeds) do not depend on which engine
    ``settings`` selects.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    config = settings.config(DEFAULT_TRACE_TOPOLOGY)
    cluster = MemPoolCluster(config, engine=settings.engine)
    simulation = TrafficSimulation(
        cluster, DEFAULT_TRACE_LOAD, pattern="uniform",
        injector="poisson", seed=settings.seed,
    )
    result = simulation.run(
        warmup_cycles=DEFAULT_TRACE_WARMUP,
        measure_cycles=DEFAULT_TRACE_MEASURE,
        record_flits=True,
    )
    return record_trace(
        result, config, path,
        meta={
            "source": "default",
            "topology": DEFAULT_TRACE_TOPOLOGY,
            "pattern": "uniform",
            "injector": "poisson",
            "load": DEFAULT_TRACE_LOAD,
            "seed": settings.seed,
        },
        force=force,
    )
