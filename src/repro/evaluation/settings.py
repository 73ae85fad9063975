"""Shared knobs of the experiment drivers.

The paper evaluates a 256-core cluster.  Cycle-level simulation of that
system in pure Python is possible but slow, so the default experiment scale
is a 64-core cluster that preserves every architectural mechanism (four
groups, radix-4 butterflies, 16-bank tiles).  Setting the environment
variable ``MEMPOOL_FULL=1`` — or passing ``full_scale=True`` — switches the
drivers to the full 256-core configuration and the paper's benchmark sizes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.config import ENGINES, MemPoolConfig
from repro.topologies.registry import parse_topology_spec, validate_topology
from repro.workloads.registry import available_injectors, available_patterns


def _full_scale_from_environment() -> bool:
    return os.environ.get("MEMPOOL_FULL", "0") not in ("", "0", "false", "False")


def _engine_from_environment() -> str:
    return os.environ.get("MEMPOOL_ENGINE", "legacy") or "legacy"


def _pattern_from_environment() -> str:
    return os.environ.get("MEMPOOL_PATTERN", "uniform") or "uniform"


def _injector_from_environment() -> str:
    return os.environ.get("MEMPOOL_INJECTOR", "poisson") or "poisson"


def _topology_from_environment() -> str:
    return os.environ.get("MEMPOOL_TOPOLOGY", "toph") or "toph"


def _energy_from_environment() -> bool:
    return os.environ.get("MEMPOOL_ENERGY", "0") not in ("", "0", "false", "False")


def _trace_from_environment() -> str | None:
    return os.environ.get("MEMPOOL_TRACE") or None


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

    full_scale: bool = field(default_factory=_full_scale_from_environment)
    #: Warm-up cycles of the synthetic-traffic measurements.
    warmup_cycles: int = DEFAULT_WARMUP_CYCLES
    #: Measurement window of the synthetic-traffic measurements.
    measure_cycles: int = DEFAULT_MEASURE_CYCLES
    #: Random seed shared by the traffic generators and kernels.
    seed: int = DEFAULT_SEED
    #: Timing-engine implementation the simulating drivers run on:
    #: ``"legacy"`` (per-object stage network) or ``"vector"`` (the
    #: structure-of-arrays engine of :mod:`repro.engine`).  Both produce
    #: identical results for fixed seeds; honours ``MEMPOOL_ENGINE``.
    engine: str = field(default_factory=_engine_from_environment)
    #: Destination pattern of the synthetic-traffic experiments, by
    #: workload registry name; honours ``MEMPOOL_PATTERN``.  fig6 ignores
    #: it — its sweep *is* the ``local_biased`` pattern.
    pattern: str = field(default_factory=_pattern_from_environment)
    #: Injection process of the synthetic-traffic experiments, by
    #: workload registry name; honours ``MEMPOOL_INJECTOR``.
    injector: str = field(default_factory=_injector_from_environment)
    #: Interconnect topology of the single-topology experiments (the
    #: ``workloads`` and ``topologies`` catalogues), by topology registry
    #: name; honours ``MEMPOOL_TOPOLOGY`` and accepts the CLI's
    #: ``name:k=v`` spec form.  The figure experiments whose sweep *is*
    #: a topology axis (fig5, fig7, physical) ignore it.
    topology: str = field(default_factory=_topology_from_environment)
    #: Family-specific parameters of :attr:`topology` (e.g.
    #: ``{"width": 8}`` for ``mesh``); filled from the ``name:k=v`` spec
    #: when one is given.
    topology_params: dict = field(default_factory=dict)
    #: Attach the Figure 10 wire-energy summary to every traffic result
    #: (:func:`repro.energy.traffic.traffic_energy`); honours
    #: ``MEMPOOL_ENERGY`` / ``--energy``.  Free of simulation side
    #: effects: the summary is derived from the result's counters after
    #: the measurement, so enabling it never changes timing numbers.
    energy: bool = field(default_factory=_energy_from_environment)
    #: Trace file replayed by the ``traces`` experiment; honours
    #: ``MEMPOOL_TRACE`` / ``--trace``.  ``None`` lets the experiment
    #: record its deterministic default trace on first use.
    trace: str | None = field(default_factory=_trace_from_environment)

    def __post_init__(self) -> None:
        # Validate here rather than deep inside a sweep worker: a typo'd
        # MEMPOOL_ENGINE / MEMPOOL_PATTERN should fail before any point is
        # expanded, hashed into a cache key, or shipped to a process pool.
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r} (MEMPOOL_ENGINE/--engine); "
                f"expected one of {ENGINES}"
            )
        if self.pattern not in available_patterns():
            raise ValueError(
                f"unknown pattern {self.pattern!r} (MEMPOOL_PATTERN/--pattern); "
                f"expected one of {available_patterns()}"
            )
        if self.injector not in available_injectors():
            raise ValueError(
                f"unknown injector {self.injector!r} (MEMPOOL_INJECTOR/"
                f"--injector); expected one of {available_injectors()}"
            )
        # Accept the CLI/environment "name:k=v,k2=v2" spec form; bare
        # names with explicit topology_params pass through unchanged.
        # parse_topology_spec / validate_topology also reject unknown
        # names and parameters here, before any sweep expansion.
        if ":" in self.topology:
            if self.topology_params:
                raise ValueError(
                    "pass topology parameters either in the spec "
                    f"({self.topology!r}) or as topology_params, not both"
                )
            self.topology, self.topology_params = parse_topology_spec(self.topology)
        else:
            validate_topology(self.topology, self.topology_params)

    def probe_topology(self) -> None:
        """Build the selected topology once to surface structural errors early.

        ``__post_init__`` validates the topology *name* and the parameter
        names/values, but structural constraints — a mesh whose
        ``width x height`` does not tile the cluster, a hierarchical group
        count that does not divide it — only surface when the family is
        built over a concrete configuration.  The CLI front-ends call this
        once after parsing ``--topology``, so a bad spec fails with one
        clean message instead of a traceback inside a sweep worker.
        """
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
        """Primitive form used as sweep base parameters.

        The returned dictionary contains only JSON-serialisable values, so
        it can be hashed into cache keys and pickled to worker processes
        by the :mod:`repro.experiments` engine.

        Examples
        --------
        >>> ExperimentSettings(full_scale=False, seed=7).as_params()["seed"]
        7
        """
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
