"""Figure 7: benchmark performance relative to the ideal-crossbar baseline.

For every benchmark (matmul, 2dconv, dct) and every topology (Top1, Top4,
TopH) — with and without the scrambling logic — the kernel is simulated and
its runtime is normalised to the corresponding ideal-crossbar baseline (TopX
without scrambling, TopXS with scrambling).  Paper observations reproduced
here:

* TopH generally beats Top4 and both outperform Top1 (by about 3x in the
  extreme cases, matmul in particular);
* TopH stays within ~20 % of the ideal baseline even for the remote-heavy
  matmul;
* the scrambling logic gains up to ~20 % on the benchmarks with local data
  (2dconv, dct) and makes all topologies perform nearly identically on dct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.evaluation.settings import ExperimentSettings
from repro.experiments import ExperimentSpec, Sweep
from repro.utils.tables import format_table

if TYPE_CHECKING:
    from repro.kernels import KernelResult

#: Topologies of the figure; ``topx`` is the baseline.
FIG7_TOPOLOGIES = ("top1", "top4", "toph", "topx")
FIG7_KERNELS = ("matmul", "2dconv", "dct")


@dataclass
class Fig7Result:
    """Kernel cycle counts and relative performance per configuration."""

    #: cycles[(kernel, topology, scrambling)] -> simulated cycles
    cycles: dict[tuple[str, str, bool], int] = field(default_factory=dict)
    #: kernel results (for correctness flags and activity counters)
    results: dict[tuple[str, str, bool], KernelResult] = field(default_factory=dict)

    def relative_performance(self, kernel: str, topology: str, scrambling: bool) -> float:
        """Runtime of the ideal baseline divided by this configuration's runtime."""
        baseline = self.cycles[(kernel, "topx", scrambling)]
        return baseline / self.cycles[(kernel, topology, scrambling)]

    def speedup_over_top1(self, kernel: str, topology: str, scrambling: bool) -> float:
        """How much faster ``topology`` is than Top1 on ``kernel``."""
        return self.cycles[(kernel, "top1", scrambling)] / self.cycles[
            (kernel, topology, scrambling)
        ]

    def scrambling_gain(self, kernel: str, topology: str) -> float:
        """Speedup the scrambling logic brings to ``topology`` on ``kernel``."""
        return self.cycles[(kernel, topology, False)] / self.cycles[(kernel, topology, True)]

    def all_correct(self) -> bool:
        """Whether every kernel run verified against its numpy reference."""
        return all(result.correct for result in self.results.values())

    def _present(self, candidates, index) -> list[str]:
        """The kernels/topologies actually present in the recorded cycles."""
        return [
            name
            for name in candidates
            if any(key[index] == name for key in self.cycles)
        ]

    def report(self) -> str:
        """Textual rendering of the Figure 7 relative-performance table."""
        kernels = self._present(FIG7_KERNELS, 0)
        topologies = self._present(FIG7_TOPOLOGIES, 1)
        headers = ["benchmark"]
        for topology in topologies:
            headers.append(topology)
            headers.append(f"{topology}S")
        rows = []
        for kernel in kernels:
            row: list[object] = [kernel]
            for topology in topologies:
                row.append(self.relative_performance(kernel, topology, False))
                row.append(self.relative_performance(kernel, topology, True))
            rows.append(row)
        return format_table(
            headers,
            rows,
            title="Figure 7: performance relative to the ideal-crossbar baseline "
            "(TopX / TopXS); 'S' columns use the scrambling logic",
        )


def fig7_sweep(
    settings: ExperimentSettings | None = None,
    kernels: tuple[str, ...] = FIG7_KERNELS,
    topologies: tuple[str, ...] = FIG7_TOPOLOGIES,
    verify: bool = True,
) -> Sweep:
    """The (topology x scrambling x kernel) grid of Figure 7 as a :class:`Sweep`.

    Configuration-major, so consecutive points of a serial run share one
    compiled network (:func:`repro.engine.compile.shared_network`).
    """
    settings = settings or ExperimentSettings()
    return Sweep(
        runner="repro.evaluation.points:simulate_fig7_point",
        grid={
            "topology": tuple(topologies),
            "scrambling": (False, True),
            "kernel": tuple(kernels),
        },
        base={
            "full_scale": settings.full_scale,
            "seed": settings.seed,
            "verify": verify,
            "engine": settings.engine,
        },
        name="fig7",
    )


def assemble_fig7(
    specs: list[ExperimentSpec], results: list[KernelResult]
) -> Fig7Result:
    """Index per-point kernel results back into a :class:`Fig7Result`."""
    outcome = Fig7Result()
    for spec, result in zip(specs, results):
        key = (spec.params["kernel"], spec.params["topology"], spec.params["scrambling"])
        outcome.cycles[key] = result.cycles
        outcome.results[key] = result
    return outcome
