"""Pluggable interconnect topologies: the parameterized families.

The interconnect topology is selected by name everywhere a topology
appears, from the ``TOPOLOGIES`` table of :mod:`repro.catalogue`.  The
paper's Top1, Top4 and TopH are named points of the families here
(``top1``/``top4`` of ``butterfly``, ``toph`` of ``hierarchical``); TopX
is the one paper entry with a class of its own
(:class:`~repro.interconnect.topology.IdealTopology`).  Every consumer
goes through the catalogue:

* ``MemPoolConfig(topology="mesh", topology_params={"width": 8})``
  validates the selection at construction time;
* :func:`repro.interconnect.topology.build_topology` builds the selected
  row, so clusters, the traffic layers and every engine consume any
  family with no changes;
* the CLI accepts ``--topology name:k=v,k2=v2`` and the ``topologies``
  experiment sweeps the whole catalogue.

To add a family, write its class in :mod:`repro.topologies.families`
(routing and pipeline-level construction) and add a row to
``repro/catalogue.py``.
"""

from repro.topologies.families import (
    ButterflyTopology,
    FullyConnectedTopology,
    HierarchicalTopology,
    MeshTopology,
    RingTopology,
    TorusTopology,
    default_grid_dims,
)

__all__ = [
    "ButterflyTopology",
    "FullyConnectedTopology",
    "HierarchicalTopology",
    "MeshTopology",
    "RingTopology",
    "TorusTopology",
    "default_grid_dims",
]
