"""Core MemPool system model: configuration, cluster, tiles, banks, simulator."""

from repro._lazy import lazy_exports

#: Public name -> defining submodule, resolved on first access:
#: ``repro.core.config`` is on every command's import path, the cluster
#: and the simulator only on the simulating ones.
_EXPORTS = {
    "MemPoolConfig": "config",
    "TimingParameters": "config",
    "MemPoolCluster": "cluster",
    "Tile": "cluster",
    "MemPoolSystem": "system",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
