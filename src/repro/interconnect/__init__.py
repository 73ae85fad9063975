"""Interconnect substrate: flits, crossbars, butterflies and cluster topologies."""

from repro.interconnect.resources import (
    ArbitrationPoint,
    Flit,
    RegisterStage,
    Resource,
    StageNetwork,
)
from repro.interconnect.crossbar import CrossbarSwitch
from repro.interconnect.butterfly import ButterflyNetwork
from repro.interconnect.topology import ClusterTopology, IdealTopology, build_topology

__all__ = [
    "Resource",
    "RegisterStage",
    "ArbitrationPoint",
    "Flit",
    "StageNetwork",
    "CrossbarSwitch",
    "ButterflyNetwork",
    "ClusterTopology",
    "IdealTopology",
    "build_topology",
]
