"""Shared knobs of the experiment drivers.

The paper evaluates a 256-core cluster.  Cycle-level simulation of that
system in pure Python is possible but slow, so the default experiment scale
is a 64-core cluster that preserves every architectural mechanism (four
groups, radix-4 butterflies, 16-bank tiles).  Passing ``full_scale=True``
(``--full`` on the command line) switches the drivers to the full 256-core
configuration and the paper's benchmark sizes.  Every field comes from
arguments alone, never from the environment, so the same settings expand
to the same sweep points on every host.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalogue import INJECTORS, PATTERNS, TOPOLOGIES, split_spec
from repro.core.config import ENGINES, MemPoolConfig

#: Default warm-up window of the synthetic-traffic measurements.  The
#: point functions (:mod:`repro.evaluation.points`) reference these
#: constants for their keyword defaults, so retuning them here retunes
#: every path.
DEFAULT_WARMUP_CYCLES = 300
#: Default measurement window of the synthetic-traffic measurements.
DEFAULT_MEASURE_CYCLES = 1000
#: Default random seed shared by the traffic generators and kernels.
DEFAULT_SEED = 0


@dataclass
class ExperimentSettings:
    """Scale and simulation-length knobs shared by all experiment drivers."""

    #: Simulate the paper's 256-core cluster instead of the 64-core one.
    full_scale: bool = False
    #: Warm-up cycles of the synthetic-traffic measurements.
    warmup_cycles: int = DEFAULT_WARMUP_CYCLES
    #: Measurement window of the synthetic-traffic measurements.
    measure_cycles: int = DEFAULT_MEASURE_CYCLES
    #: Random seed shared by the traffic generators and kernels.
    seed: int = DEFAULT_SEED
    #: Timing-engine implementation the simulating drivers run on:
    #: ``"legacy"`` (per-object stage network) or ``"vector"`` (the
    #: structure-of-arrays engine of :mod:`repro.engine`).  Both produce
    #: identical results for fixed seeds.
    engine: str = "legacy"
    #: Destination pattern of the synthetic-traffic experiments, by
    #: catalogue name (:data:`repro.catalogue.PATTERNS`).  fig6 ignores
    #: it — its sweep *is* the ``local_biased`` pattern.
    pattern: str = "uniform"
    #: Injection process of the synthetic-traffic experiments, by
    #: catalogue name (:data:`repro.catalogue.INJECTORS`).
    injector: str = "poisson"
    #: Interconnect topology of the single-topology experiments (the
    #: ``workloads`` catalogue), by catalogue name; accepts the
    #: CLI's ``name:k=v`` spec form.  The figure experiments whose sweep
    #: *is* a topology axis (fig5, fig7, physical) ignore it.
    topology: str = "toph"
    #: Family-specific parameters of :attr:`topology` (e.g.
    #: ``{"width": 8}`` for ``mesh``); filled from the ``name:k=v`` spec
    #: when one is given.
    topology_params: dict = field(default_factory=dict)
    #: Attach the Figure 10 wire-energy summary to every traffic result
    #: (:func:`repro.energy.traffic.traffic_energy`).  Free of simulation
    #: side effects: the summary is derived from the result's counters
    #: after the measurement, so enabling it never changes timing numbers.
    energy: bool = False
    #: Trace file replayed by the ``traces`` experiment.  ``None`` lets
    #: the experiment record its deterministic default trace on first use.
    trace: str | None = None

    def __post_init__(self) -> None:
        # Validate here rather than deep inside a sweep worker: a typo'd
        # engine or pattern should fail before any point is expanded,
        # hashed into a cache key, or shipped to a process pool.
        for name in ("warmup_cycles", "measure_cycles"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r} (--engine); "
                f"expected one of {ENGINES}"
            )
        for flag, value, table in (
            ("pattern", self.pattern, PATTERNS), ("injector", self.injector, INJECTORS),
        ):
            if value not in table:
                raise ValueError(
                    f"unknown {flag} {value!r} (--{flag}); "
                    f"expected one of {tuple(table)}"
                )
        # Accept the CLI's "name:k=v,k2=v2" spec form; bare names with
        # explicit topology_params pass through unchanged.  Either way
        # unknown names and parameters fail here, before sweep expansion.
        if ":" in self.topology:
            if self.topology_params:
                raise ValueError(
                    "pass topology parameters either in the spec "
                    f"({self.topology!r}) or as topology_params, not both"
                )
            self.topology, self.topology_params = split_spec(self.topology)
        TOPOLOGIES.lookup(self.topology).validate(self.topology_params)

    def probe_topology(self) -> None:
        """Build the selected topology once to surface structural errors early.

        ``__post_init__`` validates the topology *name* and the parameter
        names/values, but structural constraints — a mesh whose
        ``width x height`` does not tile the cluster, a hierarchical group
        count that does not divide it — only surface when the family is
        built over a concrete configuration.  The CLI and the service call
        this once after building the settings, so a bad spec fails with one
        clean message instead of a traceback inside a sweep worker.

        Every catalogue row builds at its default parameters on both
        experiment scales (the ``topologies`` experiment runs them all), so
        only given parameters can fail here; without any, nothing is built
        and NumPy stays unloaded.
        """
        if not self.topology_params:
            return
        from repro.interconnect.topology import build_topology

        build_topology(
            self.config(self.topology, topology_params=self.topology_params)
        )

    def config(self, topology: str, **overrides) -> MemPoolConfig:
        """The cluster configuration the experiments run on.

        ``topology`` is the per-experiment choice (figure sweeps pass their
        own axis values); experiments that honour the settings-level
        selection pass ``settings.topology`` and forward
        ``settings.topology_params`` through ``overrides``.
        """
        if self.full_scale:
            return MemPoolConfig.full(topology, **overrides)
        return MemPoolConfig.scaled(topology, **overrides)

    def as_params(self) -> dict:
        """Primitive form used as the traffic sweeps' base parameters.

        The returned dictionary contains only JSON-serialisable values, so
        it can be hashed into cache keys and pickled to worker processes
        by the :mod:`repro.experiments` engine.  A traffic point divides by
        its measurement window, so a zero window is refused here, before
        any point is expanded; the kernel experiments (fig7, power) never
        read the windows and accept zeros.

        Examples
        --------
        >>> ExperimentSettings(full_scale=False, seed=7).as_params()["seed"]
        7
        """
        if self.measure_cycles == 0:
            raise ValueError("measure_cycles must be positive for a traffic measurement")
        return {
            "full_scale": self.full_scale,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "seed": self.seed,
            "engine": self.engine,
            "pattern": self.pattern,
            "injector": self.injector,
            "energy": self.energy,
        }

    @property
    def matmul_size(self) -> int:
        """Matrix size of the matmul benchmark (64 in the paper)."""
        return 64 if self.full_scale else 32

    @property
    def conv_width(self) -> int:
        """Image width of the 2dconv benchmark."""
        return 64 if self.full_scale else 32

    @property
    def dct_blocks_per_core(self) -> int:
        """8x8 blocks per core of the dct benchmark."""
        return 1

    @property
    def scale_label(self) -> str:
        """Human-readable label of the selected simulation scale."""
        return "full (256 cores)" if self.full_scale else "scaled (64 cores)"
