"""Figure 6: TopH under the hybrid addressing scheme, for several ``p_local``.

The traffic generator sends a request to the issuing core's own tile (its
sequential region) with probability ``p_local`` and to a uniformly random
bank otherwise.  The paper's observations:

* throughput increases monotonically with ``p_local`` (local requests bypass
  the global interconnect entirely);
* average latency drops accordingly — an application making 25 % of its
  accesses to a local stack can gain on the order of 50 % in performance
  without any code change.
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

#: Local-access probabilities shown in the figure.
DEFAULT_P_LOCAL = (0.0, 0.25, 0.5, 1.0)
#: Injected loads swept by default.
DEFAULT_LOADS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class Fig6Result:
    """Per-``p_local`` throughput/latency series for TopH."""

    loads: tuple[float, ...]
    results: dict[float, list[TrafficResult]] = field(default_factory=dict)

    def throughput(self, p_local: float) -> list[float]:
        """Accepted-throughput series for ``p_local``, one value per load."""
        return [result.throughput for result in self.results[p_local]]

    def latency(self, p_local: float) -> list[float]:
        """Average-latency series for ``p_local``, one value per load."""
        return [result.average_latency for result in self.results[p_local]]

    def saturation_throughput(self, p_local: float) -> float:
        """Highest accepted throughput observed for ``p_local``."""
        return max(self.throughput(p_local))

    def report(self) -> str:
        """Textual rendering of Figures 6a (throughput) and 6b (latency)."""
        labels = {f"p_local={p:.0%}": self.throughput(p) for p in self.results}
        throughput = format_series(
            "injected load", list(self.loads), labels,
            title="Figure 6a: TopH throughput with the hybrid addressing scheme",
        )
        labels = {f"p_local={p:.0%}": self.latency(p) for p in self.results}
        latency = format_series(
            "injected load", list(self.loads), labels,
            title="Figure 6b: TopH average latency with the hybrid addressing scheme",
        )
        return f"{throughput}\n\n{latency}"

    def plot(self) -> str:
        """ASCII rendering of Figure 6a (throughput vs injected load per p_local)."""
        return ascii_plot(
            list(self.loads),
            {f"p_local={p:.0%}": self.throughput(p) for p in self.results},
            x_label="injected load (request/core/cycle)",
            y_label="thr",
            title="Figure 6a (ASCII): TopH throughput with the hybrid addressing scheme",
        )


def fig6_sweep(
    settings: ExperimentSettings | None = None,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    p_locals: tuple[float, ...] = DEFAULT_P_LOCAL,
) -> Sweep:
    """The (p_local x load) parameter grid of Figure 6 as a :class:`Sweep`."""
    settings = settings or ExperimentSettings()
    base = settings.as_params()
    # fig6's destination pattern is the experiment itself (local_biased
    # with the swept p_local); only the injection process is a knob.
    base.pop("pattern", None)
    return Sweep(
        runner="repro.evaluation.points:simulate_fig6_point",
        grid={"p_local": tuple(p_locals), "load": tuple(loads)},
        base=base,
        name="fig6",
    )


def assemble_fig6(
    specs: list[ExperimentSpec], results: list[TrafficResult]
) -> Fig6Result:
    """Group per-point traffic results back into a :class:`Fig6Result`."""
    loads, grouped = collect_series(specs, results, "p_local")
    return Fig6Result(loads=loads, results=grouped)
