"""Traces catalogue: replay one recorded trace across the topology families.

Not a figure of the paper — the trace-driven companion of the topology
catalogue (:mod:`repro.evaluation.topologies`): one recorded flit trace
(:mod:`repro.workloads.trace`) is replayed, unchanged, on each of the six
parameterized topology families added beyond the paper's four, and every
point reports latency, throughput *and* the Figure 10 wire-energy cost.
Because the replay is deterministic — the recorded workload asks for no
random draws — the differences between rows are purely structural: the
same requests, at the same cycles, routed through different networks.

The trace comes from ``--trace`` / ``MEMPOOL_TRACE``; without one the
experiment records a small deterministic default (uniform x poisson on
TopH) into the result-cache directory on first use.  Every sweep point
carries the trace's content sha256 in its parameters, so cache keys are
content-addressed: re-recording the trace re-runs every point, and a
file modified after sweep expansion fails replay with a clear message.

Run it with ``python -m repro.experiments run traces`` (add
``--trace my.trace.gz`` to replay your own recording).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.evaluation.settings import ExperimentSettings
from repro.experiments import Executor, ExperimentSpec, Sweep
from repro.experiments.cache import default_cache_dir
from repro.workloads.trace import read_trace_header

if TYPE_CHECKING:
    from repro.traffic import TrafficResult

#: The six parameterized topology families (each at its default
#: parameters) the catalogue replays the trace on.
DEFAULT_TRACE_TOPOLOGIES = (
    "butterfly",
    "fully_connected",
    "hierarchical",
    "mesh",
    "ring",
    "torus",
)
#: Recording knobs of the default trace (uniform x poisson on TopH).
DEFAULT_TRACE_TOPOLOGY = "toph"
DEFAULT_TRACE_LOAD = 0.25
DEFAULT_TRACE_WARMUP = 50
DEFAULT_TRACE_MEASURE = 200
#: Extra replay cycles beyond the trace horizon, so late injections can
#: drain through slow topologies inside the measurement window.
DEFAULT_DRAIN_CYCLES = 256


@dataclass
class TraceCatalogueResult:
    """Per-topology measurements of one replayed trace."""

    trace: str
    trace_sha: str
    records: int
    cycles: int
    load: float
    results: dict[str, TrafficResult] = field(default_factory=dict)

    def throughput(self, topology: str) -> float:
        """Accepted throughput of one topology under the trace."""
        return self.results[topology].throughput

    def latency(self, topology: str) -> float:
        """Average round-trip latency of one topology under the trace."""
        return self.results[topology].average_latency

    def energy_per_request(self, topology: str) -> float:
        """Wire-energy per completed request (pJ) of one topology."""
        energy = self.results[topology].energy
        return energy.per_request_pj if energy is not None else 0.0

    def report(self) -> str:
        """One row per topology family: latency, throughput and energy."""
        header = (
            f"Trace catalogue: {os.path.basename(self.trace)} "
            f"(sha {self.trace_sha[:12]}, {self.records} requests over "
            f"{self.cycles} cycles, mean load {self.load:g})"
        )
        rows = [
            f"{'topology':<16} {'throughput':>10} {'avg lat':>8} "
            f"{'p95':>5} {'local':>6} {'pJ/req':>7} {'total nJ':>9}"
        ]
        for topology, result in sorted(self.results.items()):
            energy = result.energy
            per_request = energy.per_request_pj if energy is not None else 0.0
            total_nj = (energy.total_pj / 1e3) if energy is not None else 0.0
            rows.append(
                f"{topology:<16} {result.throughput:>10.3f} "
                f"{result.average_latency:>8.2f} {result.p95_latency:>5d} "
                f"{result.local_fraction:>6.2f} {per_request:>7.2f} "
                f"{total_nj:>9.2f}"
            )
        return header + "\n" + "\n".join(rows)


def default_trace_path(settings: ExperimentSettings) -> str:
    """Where the experiment's default recording lives for ``settings``.

    Scale and seed are part of the name — a full-scale trace cannot
    replay on the scaled cluster, and different seeds record different
    traffic — so switching either records a sibling file instead of
    clobbering the first.
    """
    scale = "full" if settings.full_scale else "scaled"
    return os.path.join(
        default_cache_dir(), "traces",
        f"default-{scale}-seed{settings.seed}.trace.gz",
    )


def ensure_trace(settings: ExperimentSettings) -> str:
    """The trace the experiment replays: ``settings.trace`` or the default.

    The default is recorded on first use into the result-cache directory
    and reused afterwards (its content is deterministic, so reuse and
    re-record produce identical hashes).
    """
    if settings.trace:
        return settings.trace
    path = default_trace_path(settings)
    if not os.path.exists(path):
        # Recording simulates: the one place outside a point where this
        # module needs the runner module, so it is imported here.
        from repro.evaluation.points import record_default_trace

        record_default_trace(settings, path)
    return path


def traces_sweep(
    settings: ExperimentSettings | None = None,
    topologies: tuple[str, ...] = DEFAULT_TRACE_TOPOLOGIES,
    drain_cycles: int = DEFAULT_DRAIN_CYCLES,
) -> Sweep:
    """The per-topology replay grid of one trace as a :class:`Sweep`.

    The trace's content sha256 goes into every spec's parameters, making
    the cache keys content-addressed; the load label and the replay
    window come from the trace header (the whole horizon plus
    ``drain_cycles``), so the measurement covers every recorded request.

    Everything that needs the trace file sits in the sweep's ``base``
    callable, which :meth:`Sweep.specs` evaluates: building the sweep and
    reading its ``size`` (``python -m repro.experiments list``) neither
    reads nor records a trace.
    """
    settings = settings or ExperimentSettings()

    def base() -> dict:
        trace = ensure_trace(settings)
        header = read_trace_header(trace)
        records = int(header["records"])
        cycles = int(header["cycles"])
        cores = int(header["num_cores"])
        load = records / (cores * cycles) if records and cores and cycles else 0.0
        params = settings.as_params()
        params.pop("pattern", None)
        params.pop("injector", None)
        params.update(
            trace=trace,
            trace_sha=str(header["sha256"]),
            load=round(load, 6),
            warmup_cycles=0,
            measure_cycles=cycles + drain_cycles,
            # The catalogue's contract is latency + throughput + energy.
            energy=True,
        )
        return params

    return Sweep(
        runner="repro.evaluation.points:simulate_trace_point",
        grid={"topology": tuple(topologies)},
        base=base,
        name="traces",
    )


def assemble_traces(
    specs: list[ExperimentSpec], results: list[TrafficResult]
) -> TraceCatalogueResult:
    """Fold per-point results back into a :class:`TraceCatalogueResult`."""
    if specs:
        params = specs[0].params
        header = read_trace_header(params["trace"])
        catalogue = TraceCatalogueResult(
            trace=params["trace"],
            trace_sha=params["trace_sha"],
            records=int(header["records"]),
            cycles=int(header["cycles"]),
            load=params["load"],
        )
    else:
        catalogue = TraceCatalogueResult(
            trace="", trace_sha="", records=0, cycles=0, load=0.0
        )
    for spec, result in zip(specs, results):
        catalogue.results[spec.params["topology"]] = result
    return catalogue


def run_traces(
    settings: ExperimentSettings | None = None,
    topologies: tuple[str, ...] = DEFAULT_TRACE_TOPOLOGIES,
    executor: Executor | None = None,
) -> TraceCatalogueResult:
    """Run the trace-replay catalogue sweep.

    Examples
    --------
    >>> result = run_traces(topologies=("mesh", "torus"))
    >>> result.latency("mesh") > 0.0 and result.energy_per_request("torus") > 0.0
    True
    """
    sweep = traces_sweep(settings, topologies)
    specs = sweep.specs()
    results = (executor or Executor()).run(specs)
    return assemble_traces(specs, results)
