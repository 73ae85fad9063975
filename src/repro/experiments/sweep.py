"""Parameter-grid expansion: from a grid description to experiment specs.

A :class:`Sweep` describes a full factorial sweep over a parameter grid.
It pairs a runner (see :mod:`repro.experiments.spec`) with *base*
parameters shared by every point and a *grid* mapping parameter names to
the sequences of values to sweep.  Expansion is deterministic: the first
grid key varies slowest (outermost loop), the last key varies fastest —
the same order the seed evaluation scripts used for their nested loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence, Union

from repro.experiments.spec import ExperimentSpec


@dataclass(frozen=True)
class Sweep:
    """A full factorial parameter sweep over one runner.

    Parameters
    ----------
    runner : str
        ``"module:function"`` path of the point function.
    grid : Mapping[str, Sequence]
        Parameter names mapped to the values to sweep.  The cartesian
        product of the value sequences is taken in key order (first key
        outermost).  An empty grid yields exactly one spec (the base
        parameters alone).
    base : Mapping or callable
        Parameters shared by every point (e.g. seeds and scale knobs).  A
        zero-argument callable returning the mapping is evaluated by
        :meth:`specs`, once per expansion: a sweep whose shared parameters
        need an input file (the ``traces`` experiment hashes its trace
        into them) can then be built and counted without that file.
    name : str
        Display name used by the CLI and by spec labels.

    Examples
    --------
    >>> sweep = Sweep(
    ...     runner="repro.experiments.demo:multiply",
    ...     grid={"a": (4, 6), "b": (2, 3)},
    ...     name="multiply-demo",
    ... )
    >>> sweep.size
    4
    >>> [spec.params for spec in sweep.specs()]  # doctest: +NORMALIZE_WHITESPACE
    [{'a': 4, 'b': 2}, {'a': 4, 'b': 3}, {'a': 6, 'b': 2}, {'a': 6, 'b': 3}]
    """

    runner: str
    grid: Mapping[str, Sequence] = field(default_factory=dict)
    base: Union[Mapping, Callable[[], Mapping]] = field(default_factory=dict)
    name: str = ""

    @property
    def size(self) -> int:
        """Number of points the grid expands to."""
        product = 1
        for values in self.grid.values():
            product *= len(values)
        return product

    def specs(self) -> list[ExperimentSpec]:
        """Expand the grid into one :class:`ExperimentSpec` per point.

        Returns
        -------
        list of ExperimentSpec
            ``size`` specs in deterministic order: the first grid key is
            the outermost loop, the last the innermost.
        """
        keys = list(self.grid)
        combos = itertools.product(*(self.grid[key] for key in keys))
        base = dict(self.base() if callable(self.base) else self.base)
        return [
            ExperimentSpec(
                runner=self.runner,
                params={**base, **dict(zip(keys, combo))},
                name=self.name,
            )
            for combo in combos
        ]

    def __iter__(self) -> Iterator[ExperimentSpec]:
        """Iterate over the expanded specs (same order as :meth:`specs`)."""
        return iter(self.specs())

    def __len__(self) -> int:
        """Alias of :attr:`size` so ``len(sweep)`` works."""
        return self.size
