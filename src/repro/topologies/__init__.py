"""Pluggable interconnect topologies: registry, paper entries, families.

This package makes the interconnect topology a registry of parameterized
families, selected by name everywhere a topology appears.  The paper's
Top1, Top4 and TopH are named points of these families (``top1``/``top4``
of ``butterfly``, ``toph`` of ``hierarchical``); TopX is the one paper
entry with a class of its own
(:class:`~repro.interconnect.topology.IdealTopology`).  Every consumer
goes through the registry:

* ``MemPoolConfig(topology="mesh", topology_params={"width": 8})``
  validates the selection at construction time;
* :func:`repro.interconnect.topology.build_topology` builds through
  :func:`make_topology`, so clusters, the traffic layers and every engine
  consume any registered family with no changes;
* the CLI accepts ``--topology name:k=v,k2=v2`` and the ``topologies``
  experiment sweeps the whole catalogue.

See :mod:`repro.topologies.registry` for the catalogue and
:mod:`repro.topologies.families` for the routing and pipeline-level
construction of each family.
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
from repro.topologies.registry import (
    TopologyEntry,
    available_topologies,
    make_topology,
    parse_topology_spec,
    register_topology,
    topology_catalogue,
    validate_topology,
)

__all__ = [
    "ButterflyTopology",
    "FullyConnectedTopology",
    "HierarchicalTopology",
    "MeshTopology",
    "RingTopology",
    "TorusTopology",
    "TopologyEntry",
    "available_topologies",
    "default_grid_dims",
    "make_topology",
    "parse_topology_spec",
    "register_topology",
    "topology_catalogue",
    "validate_topology",
]
