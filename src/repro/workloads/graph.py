"""Graph-derived destination patterns: power-law and preferential attachment.

Real shared-memory applications do not spread accesses uniformly: a few
structures (locks, work queues, hub vertices of an input graph) absorb a
disproportionate share of the traffic.  The mean-first-passage-time
analysis of scale-free networks (arXiv:0908.0976) predicts such
degree-skewed load stresses an interconnect qualitatively differently
from uniform traffic — hub contention grows with the skew exponent while
most destinations go nearly idle.  These two patterns reproduce that
regime over MemPool's banks:

* :class:`ScaleFreePattern` draws each destination from an explicit
  power-law *rank* distribution ``P(rank r) ∝ (r + 1)^-exponent``, with
  ranks interleaved across tiles so the hottest banks do not all share
  one tile's arbiter.
* :class:`DegreeSkewedPattern` first grows a deterministic
  preferential-attachment (Barabási–Albert) graph over the *tiles*, then
  targets tiles proportionally to ``degree^beta`` — the emergent-hub
  version of the same skew, where which tiles become hubs is itself an
  outcome of the random growth process.

Both draw exclusively from the per-core RNG substreams of
:mod:`repro.workloads.rng` (the graph itself comes from a dedicated
``"graph"`` substream), so scalar/batched draws are identical and two
cores never alias — the standard contract every engine depends on.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.core.config import MemPoolConfig
from repro.utils.validation import check_in_range, check_positive
from repro.workloads.base import DestinationPattern
from repro.workloads.rng import substream


def _bank_of_rank(config: MemPoolConfig, rank: int) -> int:
    """Global bank of popularity rank ``rank``, interleaved across tiles.

    Rank 0 is bank 0 of tile 0, rank 1 is bank 0 of tile 1, …: the hot
    head of the distribution lands on *different* tiles, so the skew
    stresses the interconnect rather than a single tile arbiter.  A
    bijection of ``[0, num_banks)`` (mixed-radix digit swap).
    """
    return (rank % config.num_tiles) * config.banks_per_tile + rank // config.num_tiles


class ScaleFreePattern(DestinationPattern):
    """Power-law destination popularity: ``P(rank r) ∝ (r + 1)^-exponent``.

    ``exponent = 0`` degenerates to uniform; the paper-relevant regime is
    1–3, where a handful of banks receive most of the traffic.  One
    uniform draw per request from the issuing core's substream, inverted
    through the precomputed CDF.
    """

    name = "scale_free"

    def __init__(
        self, config: MemPoolConfig, exponent: float = 2.0, seed: int = 0
    ) -> None:
        super().__init__(config, seed)
        check_in_range("exponent", exponent, 0.0, 16.0)
        self.exponent = exponent
        weights = [
            (rank + 1) ** -exponent for rank in range(config.num_banks)
        ]
        total = sum(weights)
        cdf: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight
            cdf.append(acc / total)
        cdf[-1] = 1.0
        self._cdf = cdf
        self._bank_of_rank = [
            _bank_of_rank(config, rank) for rank in range(config.num_banks)
        ]

    def destination(self, core_id: int) -> int:
        """A power-law-ranked bank, from ``core_id``'s substream."""
        rank = bisect_right(self._cdf, self.core_rng(core_id).random())
        return self._bank_of_rank[min(rank, len(self._cdf) - 1)]

    def destinations(self, core_ids) -> np.ndarray:
        """Batched draws, bit-identical to per-request :meth:`destination`.

        One ``random()`` per request against the issuing core's substream
        — the same single draw the scalar path consumes — with the CDF
        inversion and both tables bound locally.
        """
        if self._core_rngs is None:
            self.core_rng(0)
        rngs = self._core_rngs
        cdf = self._cdf
        bank_of_rank = self._bank_of_rank
        last = len(cdf) - 1
        out: list[int] = []
        append = out.append
        for core in core_ids:
            rank = bisect_right(cdf, rngs[core].random())
            append(bank_of_rank[rank if rank < last else last])
        return np.asarray(out, dtype=np.int64)


class DegreeSkewedPattern(DestinationPattern):
    """Targets tiles proportionally to their preferential-attachment degree.

    A Barabási–Albert graph is grown over the tiles from a dedicated
    deterministic substream (``(seed, "pattern", "DegreeSkewedPattern",
    "graph")``): starting from an ``m+1``-clique, each further tile
    attaches ``m`` edges to existing tiles with probability proportional
    to their current degree.  Requests then pick a destination *tile*
    with probability ∝ ``degree^beta`` (so early attachers — the hubs —
    absorb most traffic, more sharply as ``beta`` grows) and a uniform
    bank within it.  ``m`` is clamped to ``num_tiles - 1`` on clusters
    too small for the requested clique; a single-tile cluster degrades
    to uniform over that tile.
    """

    name = "degree_skewed"

    def __init__(
        self,
        config: MemPoolConfig,
        m: int = 2,
        beta: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(config, seed)
        check_positive("m", m)
        check_in_range("beta", beta, 0.0, 8.0)
        self.m = m
        self.beta = beta
        degrees = self._grow_degrees(config.num_tiles, m, seed)
        weights = [float(degree) ** beta for degree in degrees]
        total = sum(weights)
        cdf: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight
            cdf.append(acc / total)
        cdf[-1] = 1.0
        self._cdf = cdf
        self.degrees = tuple(degrees)

    @staticmethod
    def _grow_degrees(num_tiles: int, m: int, seed: int) -> list[int]:
        """Degree sequence of the deterministic BA graph over the tiles."""
        if num_tiles == 1:
            return [1]
        m = min(m, num_tiles - 1)
        rng = substream(seed, "pattern", "DegreeSkewedPattern", "graph")
        # Repeated-nodes list: each tile appears once per incident edge,
        # so a uniform pick over it IS preferential attachment.
        targets: list[int] = []
        for node in range(m + 1):
            for other in range(m + 1):
                if node != other:
                    targets.append(node)
        degrees = [m] * (m + 1) + [0] * (num_tiles - m - 1)
        for node in range(m + 1, num_tiles):
            chosen: set[int] = set()
            while len(chosen) < m:
                candidate = targets[rng.randrange(len(targets))]
                chosen.add(candidate)
            for neighbour in chosen:
                degrees[neighbour] += 1
                targets.append(neighbour)
            degrees[node] = m
            targets.extend([node] * m)
        return degrees

    def destination(self, core_id: int) -> int:
        """A degree-weighted tile's uniform bank, from ``core_id``'s substream."""
        rng = self.core_rng(core_id)
        tile = bisect_right(self._cdf, rng.random())
        tile = min(tile, len(self._cdf) - 1)
        config = self.config
        return tile * config.banks_per_tile + rng.randrange(config.banks_per_tile)
