"""Registry of the paper's experiments, as sweeps the engine can run.

Each figure/table of the paper is registered as an
:class:`ExperimentDefinition`: a sweep builder (settings -> :class:`Sweep`)
plus an assembler that folds the per-point results back into the figure's
result object (which knows how to :meth:`report` itself).  The registry is
what both command-line entry points (``python -m repro.experiments`` and
``python -m repro.evaluation``) iterate over, and it is the natural place
to register new experiments as the reproduction grows.

Importing this module imports no experiment: a definition *names* the
:mod:`repro.evaluation` module that holds its sweep builder and
assembler and imports it on first use, so listing names and titles
(``--help``, the service's unknown-experiment message) costs nothing.
The builder modules in turn only name their point functions
(``"repro.evaluation.points:..."``), so the simulator is loaded when a
point is about to run and not before.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.experiments.executor import Executor
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import Sweep

if TYPE_CHECKING:
    from repro.evaluation.settings import ExperimentSettings


@dataclass(frozen=True)
class ExperimentDefinition:
    """One registered experiment: how to build its sweep and fold results.

    Parameters
    ----------
    name : str
        Registry key (e.g. ``"fig7"``), also used on the command line.
    title : str
        One-line description shown by ``python -m repro.experiments list``.
    module : str
        The module defining ``<name>_sweep`` and ``assemble_<name>``,
        imported when :attr:`build_sweep` or :attr:`assemble` is first
        read.
    """

    name: str
    title: str
    module: str

    @cached_property
    def build_sweep(self) -> Callable[..., Sweep]:
        """Maps :class:`ExperimentSettings` to the experiment's :class:`Sweep`."""
        return getattr(importlib.import_module(self.module), f"{self.name}_sweep")

    @cached_property
    def assemble(self) -> Callable[[list[ExperimentSpec], list[Any]], Any]:
        """Maps ``(specs, results)`` to the figure's result object.

        The object must expose a ``report() -> str`` method.
        """
        return getattr(importlib.import_module(self.module), f"assemble_{self.name}")

    def run(self, settings: ExperimentSettings, executor: Executor) -> Any:
        """Expand the sweep, run it on ``executor`` and assemble the result.

        Examples
        --------
        >>> from repro.evaluation.settings import ExperimentSettings
        >>> from repro.experiments.registry import EXPERIMENTS
        >>> definition = EXPERIMENTS["fig10"]
        >>> result = definition.run(ExperimentSettings(), Executor())
        >>> "Figure 10" in result.report()
        True
        """
        specs = self.build_sweep(settings).specs()
        return self.assemble(specs, executor.run(specs))


def resolve_selection(names: Sequence[str]) -> tuple[list[str], str | None]:
    """Validate a CLI experiment selection against the registry.

    Parameters
    ----------
    names : sequence of str
        The names the user asked for; empty selects every experiment.

    Returns
    -------
    selected : list of str
        The validated selection (empty on error).
    error : str or None
        A printable error message naming the unknown experiments, or
        ``None`` when the selection is valid.

    Examples
    --------
    >>> resolve_selection(["fig10"])
    (['fig10'], None)
    >>> selected, error = resolve_selection(["nope"])
    >>> error.splitlines()[0]
    'unknown experiments: nope'
    """
    selected = list(names) or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        return [], (
            f"unknown experiments: {', '.join(unknown)}\n"
            f"available: {', '.join(EXPERIMENTS)}"
        )
    return selected, None


def run_experiments(
    selected: Sequence[str],
    settings: ExperimentSettings,
    executor: Executor,
) -> Iterator[tuple[str, Any, float]]:
    """Run experiments one by one, yielding ``(name, result, elapsed_s)``.

    The shared run loop of both command-line front-ends
    (``python -m repro.experiments`` and ``python -m repro.evaluation``);
    each caller formats the yielded results its own way.
    """
    for name in selected:
        start = time.perf_counter()
        result = EXPERIMENTS[name].run(settings, executor)
        yield name, result, time.perf_counter() - start


#: Every experiment of the paper, keyed by its CLI name.
EXPERIMENTS: dict[str, ExperimentDefinition] = {
    name: ExperimentDefinition(name, title, f"repro.evaluation.{module}")
    for name, title, module in (
        ("fig5", "throughput/latency of Top1/Top4/TopH vs injected load", "fig5"),
        ("fig6", "TopH under the hybrid addressing scheme (p_local sweep)", "fig6"),
        ("fig7", "benchmark performance relative to the ideal crossbar", "fig7"),
        ("fig10", "energy per instruction of the TopH tile", "fig10"),
        ("power", "tile/cluster power while running matmul (Section VI-D)",
         "power_table"),
        ("physical", "tile/cluster area, timing and congestion (Sections VI-B/C)",
         "physical_tables"),
        ("workloads", "workload catalogue: every pattern x injector on one topology",
         "workloads"),
        ("topologies", "topology catalogue: every registered family at one load",
         "topologies"),
        ("traces", "trace catalogue: one recorded trace replayed per topology family",
         "traces"),
    )
}
