"""Shard planning: split an expanded sweep into distributable work units.

A :class:`Shard` is the unit the work-stealing scheduler hands to a
worker: a set of indices into the dispatcher's spec list.  Every point
runs on its own engine instance, so nothing couples the members of a
shard and the plan is plain slicing: the cache misses, in sweep order,
cut into consecutive chunks of at most ``max_points``.  The bound trades
the per-shard round trip against stealing granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Shard:
    """One distributable work unit: indices into the dispatcher's spec list.

    Parameters
    ----------
    shard_id : int
        Stable identifier within one run; lease bookkeeping and the
        wire protocol refer to shards by this id.
    indices : tuple of int
        Positions of the member specs in the dispatcher's spec list,
        in original sweep order.
    """

    shard_id: int
    indices: tuple

    @property
    def size(self) -> int:
        """Number of specs in the shard."""
        return len(self.indices)


def plan_shards(miss_indices: Sequence[int], max_points: int) -> list[Shard]:
    """Cut the cache misses of a sweep into scheduler-ready shards.

    Parameters
    ----------
    miss_indices : sequence of int
        Indices (into the expanded sweep) that actually need computing —
        the cache scan's misses, in sweep order.
    max_points : int
        Upper bound on specs per shard; must be positive.

    Returns
    -------
    list of Shard
        Consecutive slices of ``miss_indices``, in sweep order; every
        miss appears in exactly one shard and ids are dense.

    Examples
    --------
    >>> [shard.indices for shard in plan_shards([0, 2, 3, 5, 8], 2)]
    [(0, 2), (3, 5), (8,)]
    """
    if max_points < 1:
        raise ValueError(f"max_points must be positive, got {max_points}")
    return [
        Shard(shard_id=shard_id, indices=tuple(miss_indices[start:start + max_points]))
        for shard_id, start in enumerate(range(0, len(miss_indices), max_points))
    ]
