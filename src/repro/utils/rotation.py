"""Fair iteration schedules for per-cycle arbitration.

Visiting contenders in a fixed list order (even with a rotating start offset)
is pairwise unfair: of two requesters that conflict every cycle, the one that
appears earlier in the list wins almost every time.  Persistent losers back
up and — through shared upstream resources such as MemPool's per-direction
tile ports — can idle capacity for everyone.  :class:`PermutationSchedule`
provides a cheap approximation of unbiased arbitration: a pool of
pre-computed random permutations of the contenders, indexed by cycle, so that
over time every pairwise order is equally likely.
"""

from __future__ import annotations

import random


#: Memo of generated permutation pools, keyed by ``(count, seed,
#: pool_size)``.  Pools are immutable tuples, so instances can share them;
#: sweeps build thousands of schedules from a handful of distinct keys
#: (every point re-derives the same pool from the same seed), and the
#: ~``pool_size * count`` RNG shuffles are a measurable share of a short
#: simulation's set-up time.  Bounded FIFO: a long-lived process sweeping
#: many distinct seeds evicts the oldest pools instead of growing without
#: limit.
_pool_cache: dict[tuple[int, int, int], tuple[tuple[int, ...], ...]] = {}
_POOL_CACHE_LIMIT = 64


class PermutationSchedule:
    """A pool of fixed random permutations of ``range(count)`` indexed by cycle."""

    def __init__(self, count: int, seed: int = 0, pool_size: int = 97) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if pool_size < 1:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.count = count
        self.pool_size = pool_size
        key = (count, seed, pool_size)
        permutations = _pool_cache.get(key)
        if permutations is None:
            # ``random.shuffle`` inlined: the same Fisher-Yates swaps over
            # the same ``getrandbits`` draws (CPython's ``_randbelow``
            # rejection loop: ``k = n.bit_length()``, redraw while the
            # draw is ``>= n``), without a ``_randbelow`` call per element.
            getrandbits = random.Random(seed).getrandbits
            swaps = [(i, i + 1, (i + 1).bit_length()) for i in range(count - 1, 0, -1)]
            base = list(range(count))
            generated = []
            for _ in range(pool_size):
                order = base[:]
                for i, bound, bits in swaps:
                    j = getrandbits(bits)
                    while j >= bound:
                        j = getrandbits(bits)
                    order[i], order[j] = order[j], order[i]
                generated.append(tuple(order))
            while len(_pool_cache) >= _POOL_CACHE_LIMIT:
                del _pool_cache[next(iter(_pool_cache))]
            permutations = _pool_cache[key] = tuple(generated)
        self._permutations = permutations

    def order(self, cycle: int) -> tuple[int, ...]:
        """The visiting order to use during ``cycle``."""
        return self._permutations[cycle % self.pool_size]

    def __len__(self) -> int:
        return self.count
