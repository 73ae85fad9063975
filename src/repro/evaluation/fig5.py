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
from typing import TYPE_CHECKING

from repro.evaluation.series import collect_series
from repro.evaluation.settings import ExperimentSettings
from repro.experiments import ExperimentSpec, Sweep
from repro.utils.ascii_plot import ascii_plot
from repro.utils.tables import format_series

if TYPE_CHECKING:
    from repro.traffic import TrafficResult

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


def fig5_sweep(
    settings: ExperimentSettings | None = None,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    topologies: tuple[str, ...] = FIG5_TOPOLOGIES,
) -> Sweep:
    """The (load x topology) grid of Figure 5 as a :class:`Sweep`.

    Load-major: a load's topologies run back to back and replay one drawn
    window (see :mod:`repro.engine.traffic`), and progress lines and the
    service's ``point`` events follow that order.  At 256 cores the grid
    stays topology-major: a process keeps one compiled 256-core network,
    and recompiling it per point costs more than the replays save.
    """
    settings = settings or ExperimentSettings()
    axes = [("load", tuple(loads)), ("topology", tuple(topologies))]
    return Sweep(
        runner="repro.evaluation.points:simulate_fig5_point",
        grid=dict(axes[::-1] if settings.full_scale else axes),
        base=settings.as_params(),
        name="fig5",
    )


def assemble_fig5(
    specs: list[ExperimentSpec], results: list[TrafficResult]
) -> Fig5Result:
    """Group per-point traffic results back into a :class:`Fig5Result`."""
    loads, grouped = collect_series(specs, results, "topology")
    return Fig5Result(loads=loads, results=grouped)
