"""Shared assembly helper of the traffic-sweep figures (Figures 5 and 6).

Both figures sweep (group-key x load) grids whose points return
:class:`~repro.traffic.simulation.TrafficResult`; this module folds the
flat per-point result list back into the per-group series the figure
result objects hold, reconstructing the load axis in first-seen order.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.experiments import ExperimentSpec


def collect_series(
    specs: Sequence[ExperimentSpec],
    results: Sequence[Any],
    group_key: str,
) -> tuple[tuple[float, ...], dict[Hashable, list[Any]]]:
    """Group sweep results by ``group_key`` and recover the load axis.

    Parameters
    ----------
    specs, results : sequence
        The expanded sweep specs and their results, index-aligned.
    group_key : str
        The spec parameter that names the series (``"topology"`` for
        Figure 5, ``"p_local"`` for Figure 6).

    Returns
    -------
    loads : tuple of float
        The distinct ``load`` values in first-seen (sweep) order.
    grouped : dict
        Each group's results, in load order.

    Examples
    --------
    >>> specs = [ExperimentSpec("x:y", {"topology": "toph", "load": l})
    ...          for l in (0.1, 0.2)]
    >>> loads, grouped = collect_series(specs, ["a", "b"], "topology")
    >>> loads, grouped["toph"]
    ((0.1, 0.2), ['a', 'b'])
    """
    grouped: dict[Hashable, list[Any]] = {}
    for spec, result in zip(specs, results):
        grouped.setdefault(spec.params[group_key], []).append(result)
    # The grid is (group x load), nested either way, so the specs of any
    # one group list the load axis verbatim — including repeated values,
    # which de-duplication would desynchronise from the series lengths.
    if specs:
        first_group = specs[0].params[group_key]
        loads = tuple(
            spec.params["load"]
            for spec in specs
            if spec.params[group_key] == first_group
        )
    else:
        loads = ()
    return loads, grouped
