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
from repro.energy import (
    EnergyModel, EnergyParameters, InstructionEnergy, PowerModel, PowerParameters,
)
from repro.energy.traffic import attach_energy
from repro.evaluation.physical_tables import PhysicalTablesResult
from repro.evaluation.power_table import PowerTableResult
from repro.evaluation.settings import ExperimentSettings
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
from repro.physical import AreaModel, AreaParameters, FloorplanModel, TimingModel
from repro.physical import timing as physical_timing
from repro.physical.timing import TimingParametersPhysical
from repro.traffic import TrafficResult, TrafficSimulation
from repro.workloads import LocalBiasedPattern
from repro.workloads.trace import record_trace

#: The :class:`ExperimentSettings` fields a kernel point (fig7, power)
#: takes as keywords.
KERNEL_FIELDS = ("full_scale", "seed", "engine")
#: The fields every synthetic-traffic point takes; each adds the workload
#: knobs that are not its own axes.
TRAFFIC_FIELDS = KERNEL_FIELDS + ("warmup_cycles", "measure_cycles", "energy")


def _settings(given: dict, takes: tuple[str, ...], **fields) -> ExperimentSettings:
    """The settings of one point: ``fields`` overridden by ``given``.

    A point forwards its settings keywords here instead of re-declaring
    the defaults of :class:`ExperimentSettings`, which validates every
    value.  ``takes`` names the fields the point reads; any other keyword
    is refused like an unknown one, with a ``TypeError``.
    """
    for name in given:
        if name not in takes:
            raise TypeError(
                f"unexpected keyword argument {name!r}; this point takes "
                f"the settings {takes}"
            )
    return ExperimentSettings(**{**fields, **given})


def _measure_traffic(
    settings: ExperimentSettings,
    config: MemPoolConfig,
    load: float,
    pattern,
    **components,
) -> TrafficResult:
    """The shared tail of the traffic points: cluster, run, energy.

    ``pattern`` is a workload catalogue name or a built pattern;
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


def _measure_catalogue(settings: ExperimentSettings, load: float) -> TrafficResult:
    """A catalogue point: the settings' workload on the settings' topology."""
    config = settings.config(
        settings.topology, topology_params=settings.topology_params
    )
    return _measure_traffic(
        settings, config, load, settings.pattern, injector=settings.injector
    )


def simulate_fig5_point(*, topology: str, load: float, **settings) -> TrafficResult:
    """Simulate one (topology, load) point of Figure 5.

    Parameters
    ----------
    topology : str
        Interconnect topology (``top1``, ``top4``, ``toph`` or ``topx``).
    load : float
        Injected load in requests per core per cycle.
    **settings
        The :class:`ExperimentSettings` fields of :data:`TRAFFIC_FIELDS`
        plus ``pattern`` and ``injector``, with its defaults.  The paper's
        Figure 5 is ``uniform`` x ``poisson``, but any catalogue pair runs
        through either engine; ``energy`` attaches the Figure 10
        wire-energy summary, derived from the result's counters, so it
        never changes the timing numbers.

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
    settings = _settings(settings, TRAFFIC_FIELDS + ("pattern", "injector"))
    return _measure_traffic(
        settings, settings.config(topology), load, settings.pattern,
        injector=settings.injector,
    )


def simulate_fig6_point(*, p_local: float, load: float, **settings) -> TrafficResult:
    """Simulate one (p_local, load) point of Figure 6 on the TopH cluster.

    Parameters
    ----------
    p_local : float
        Probability that a request targets the issuing core's own tile.
    load : float
        Injected load in requests per core per cycle.
    **settings
        The :class:`ExperimentSettings` fields of :data:`TRAFFIC_FIELDS`
        plus ``injector``, with its defaults.  The destination pattern is
        not a knob here — the ``local_biased`` pattern *is* the
        experiment.

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
    settings = _settings(settings, TRAFFIC_FIELDS + ("injector",))
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
    *, kernel: str, topology: str, scrambling: bool, verify: bool = True, **settings
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
    verify : bool
        Check the simulated memory contents against a numpy reference.
    **settings
        The :class:`ExperimentSettings` fields of :data:`KERNEL_FIELDS`,
        with its defaults; ``full_scale`` also selects the paper's
        benchmark sizes, and ``seed`` seeds the kernel's input data.

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
    settings = _settings(settings, KERNEL_FIELDS)
    config = settings.config(topology, scrambling_enabled=scrambling)
    cluster = MemPoolCluster(config, engine=settings.engine)
    return _build_kernel(kernel, cluster, settings).run(verify=verify)


def compute_fig10_point() -> list[InstructionEnergy]:
    """Compute the per-instruction energy entries of the TopH cluster.

    The energy figures always refer to the full 64-tile cluster (the
    remote-access mix depends on the cluster size), so the simulation
    scale is not a parameter.

    Returns
    -------
    list of InstructionEnergy
        One entry per instruction class (add, mul, local/remote load).

    Examples
    --------
    >>> entries = compute_fig10_point()
    >>> any(entry.name == "remote load" for entry in entries)
    True
    """
    return EnergyModel(MemPoolCluster(MemPoolConfig.full("toph"))).instruction_energies()


def compute_power_point(
    *, frequency_hz: float = 500e6, **settings
) -> PowerTableResult:
    """Run matmul on TopH and evaluate the power model on its activity.

    Parameters
    ----------
    frequency_hz : float
        Operating frequency the power model evaluates at.
    **settings
        The :class:`ExperimentSettings` fields of :data:`KERNEL_FIELDS`,
        with its defaults; ``full_scale`` also selects the paper's matmul
        size, and ``seed`` seeds the matmul input data.

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
    settings = _settings(settings, KERNEL_FIELDS)
    cluster = MemPoolCluster(settings.config("toph"), engine=settings.engine)
    kernel = MatmulKernel(cluster, size=settings.matmul_size, seed=settings.seed)
    return evaluate_power(cluster, kernel.run(verify=False), frequency_hz)


def evaluate_power(
    cluster: MemPoolCluster,
    kernel: KernelResult,
    frequency_hz: float,
    energy: EnergyParameters | None = None,
    power: PowerParameters | None = None,
) -> PowerTableResult:
    """The power model on ``kernel``'s activity, with the given constants."""
    model = PowerModel(cluster, frequency_hz, energy, power)
    return PowerTableResult(breakdown=model.breakdown(kernel.system), kernel=kernel)


def compute_physical_point() -> PhysicalTablesResult:
    """Evaluate the physical models on the full-size TopH cluster.

    Physical figures always refer to the full 64-tile cluster, regardless
    of the simulation scale used for the performance experiments.

    Returns
    -------
    PhysicalTablesResult
        Area, timing and congestion figures.

    Examples
    --------
    >>> result = compute_physical_point()
    >>> result.congestion["toph"].feasible
    True
    """
    return evaluate_physical(MemPoolCluster(MemPoolConfig.full("toph")))


def evaluate_physical(
    cluster: MemPoolCluster,
    area: AreaParameters | None = None,
    timing: TimingParametersPhysical | None = None,
) -> PhysicalTablesResult:
    """The area, timing and floorplan models on ``cluster``, with the given constants.

    The two critical paths are read when called, as
    :meth:`TimingModel.cluster_frequencies` reads them.
    """
    area_model = AreaModel(cluster, area)
    timing_model = TimingModel(timing)
    cluster_path = physical_timing.CLUSTER_CRITICAL_PATH
    return PhysicalTablesResult(
        tile=area_model.tile_breakdown(),
        cluster=area_model.cluster_report(),
        tile_path=physical_timing.TILE_CRITICAL_PATH,
        cluster_path=cluster_path,
        frequencies_mhz=timing_model.cluster_frequencies(),
        wire_fraction=timing_model.wire_fraction(cluster_path, "worst"),
        congestion=FloorplanModel(cluster, area).compare_topologies(),
    )


def simulate_workload_point(
    *,
    pattern: str,
    injector: str,
    load: float = DEFAULT_CATALOGUE_LOAD,
    topology: str = DEFAULT_CATALOGUE_TOPOLOGY,
    **settings,
) -> TrafficResult:
    """Simulate one (pattern, injector) point of the workload catalogue.

    Parameters
    ----------
    pattern, injector : str
        Workload catalogue names (see :mod:`repro.workloads`).
    load : float
        Injected load in requests per core per cycle.
    topology : str
        Interconnect topology to drive, by topology catalogue name
        (see :mod:`repro.topologies`).
    **settings
        The :class:`ExperimentSettings` fields of :data:`TRAFFIC_FIELDS`
        plus ``topology_params`` (family-specific topology knobs, e.g.
        ``{"width": 8}``), with its defaults.

    Examples
    --------
    >>> result = simulate_workload_point(
    ...     pattern="neighbor", injector="bernoulli", load=0.1,
    ...     warmup_cycles=50, measure_cycles=100)
    >>> result.throughput > 0.0
    True
    """
    settings = _settings(
        settings, TRAFFIC_FIELDS + ("topology_params",),
        pattern=pattern, injector=injector, topology=topology,
    )
    return _measure_catalogue(settings, load)


def simulate_topology_point(
    *, topology: str, load: float = DEFAULT_TOPOLOGY_CATALOGUE_LOAD, **settings
) -> TrafficResult:
    """Simulate one topology point of the catalogue.

    The same point as the workload catalogue's, under this catalogue's
    defaults: there the workload is the axis, here the topology.

    Parameters
    ----------
    topology : str
        Topology catalogue name (see :mod:`repro.topologies`).
    load : float
        Injected load in requests per core per cycle.
    **settings
        The :class:`ExperimentSettings` fields of :data:`TRAFFIC_FIELDS`
        plus ``pattern``, ``injector`` (the workload driving every
        topology identically) and ``topology_params`` (family-specific
        knobs, e.g. ``{"width": 8, "height": 2}``), with its defaults.

    Examples
    --------
    >>> result = simulate_topology_point(
    ...     topology="mesh", load=0.1, warmup_cycles=50, measure_cycles=100)
    >>> result.throughput > 0.0
    True
    """
    settings = _settings(
        settings, TRAFFIC_FIELDS + ("pattern", "injector", "topology_params"),
        topology=topology,
    )
    return _measure_catalogue(settings, load)


def simulate_trace_point(
    *, topology: str, trace: str, trace_sha: str, load: float, **settings
) -> TrafficResult:
    """Replay one trace on one topology family.

    ``trace_sha`` is the content hash the sweep was expanded against —
    the replay components verify the file still matches it, so a trace
    modified between expansion and execution fails loudly instead of
    silently relabelling cached results.

    Parameters
    ----------
    topology : str
        Topology catalogue name (see :mod:`repro.topologies`).
    trace : str
        Path of the trace file (see :mod:`repro.workloads.trace`).
    trace_sha : str
        Expected content sha256 of the trace.
    load : float
        Offered-load label of the result (the trace's mean rate).
    **settings
        The :class:`ExperimentSettings` fields of :data:`TRAFFIC_FIELDS`
        plus ``topology_params``.  The defaults differ from the settings'
        where a replay needs it: ``warmup_cycles=0``, a window covering the
        default trace plus a drain margin (so the stats span the entire
        replay), and ``energy=True``.

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
    settings = _settings(
        settings, TRAFFIC_FIELDS + ("topology_params",),
        topology=topology, trace=trace, warmup_cycles=0,
        measure_cycles=DEFAULT_TRACE_MEASURE + DEFAULT_DRAIN_CYCLES, energy=True,
    )
    config = settings.config(
        settings.topology, topology_params=settings.topology_params
    )
    replay = {"path": trace, "sha": trace_sha}
    return _measure_traffic(
        settings, config, load, "trace",
        pattern_params=replay, injector="trace", injector_params=replay,
    )


def record_traffic_trace(
    settings: ExperimentSettings,
    path: str,
    load: float,
    source: str,
    force: bool = False,
) -> tuple[str, TrafficResult]:
    """Record one synthetic-traffic run of ``settings`` at ``load`` to ``path``.

    The one recording sequence of ``trace record`` and of the default
    trace: ``settings`` selects the cluster, topology, pattern, injector,
    seed and windows, the recorded flit log is the measurement window's,
    and ``source`` is the header's ``meta["source"]``.  The flit log is
    engine-independent, so the recorded bytes do not depend on
    ``settings.engine``.  Returns the content sha256 and the result.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    config = settings.config(
        settings.topology, topology_params=settings.topology_params
    )
    simulation = TrafficSimulation(
        MemPoolCluster(config, engine=settings.engine), load,
        pattern=settings.pattern, injector=settings.injector, seed=settings.seed,
    )
    result = simulation.run(
        warmup_cycles=settings.warmup_cycles,
        measure_cycles=settings.measure_cycles,
        record_flits=True,
    )
    sha = record_trace(
        result, config, path,
        meta={
            "source": source,
            "topology": settings.topology,
            "pattern": settings.pattern,
            "injector": settings.injector,
            "load": load,
            "seed": settings.seed,
        },
        force=force,
    )
    return sha, result


def record_default_trace(
    settings: ExperimentSettings, path: str, force: bool = True
) -> str:
    """Record the deterministic default trace to ``path``; returns its sha.

    A short uniform x poisson measurement on the paper's TopH cluster, at
    the scale and seed of ``settings`` (its workload selection is not
    used).
    """
    default = ExperimentSettings(
        full_scale=settings.full_scale, seed=settings.seed,
        engine=settings.engine, topology=DEFAULT_TRACE_TOPOLOGY,
        warmup_cycles=DEFAULT_TRACE_WARMUP, measure_cycles=DEFAULT_TRACE_MEASURE,
    )
    return record_traffic_trace(
        default, path, DEFAULT_TRACE_LOAD, "default", force
    )[0]
