"""Per-instruction energy model (Figure 10).

The paper reports, for the TopH tile in GF 22FDX at typical conditions:

====================  =====  ============  ======  =====
instruction           core   interconnect  banks   total
====================  =====  ============  ======  =====
``add``               3.7    —             —       3.7
``mul``               7.0    —             —       7.0
local load            1.8    4.5           2.1     8.4
remote load           1.8    13.0          2.1     16.9
====================  =====  ============  ======  =====

Most of that table is calibrated, not reproduced: ``add``, ``mul``, the core
and bank parts of both loads and the local interconnect (4.5 pJ, the tile
crossbars) are each one :class:`EnergyParameters` field, so the local load's
8.4 pJ is too.  The one number built from structure is a remote load's
interconnect energy: every register boundary and switch stage its path
crosses costs ``register_crossing_pj`` or ``switch_traversal_pj``.  Those two
constants were fitted to the paper's 13.0 pJ for TopH (the model gives
12.96 pJ); on another topology the same constants price another path.
``tests/test_provenance.py`` computes which printed number is which.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cluster import MemPoolCluster
from repro.interconnect.resources import RegisterStage


@dataclass(frozen=True)
class EnergyParameters:
    """Calibrated per-event energies in picojoules."""

    #: Core datapath energy of a simple ALU instruction (add, branch, ...).
    core_alu_pj: float = 3.7
    #: Core datapath energy of a multiply.
    core_mul_pj: float = 7.0
    #: Core (LSU + ROB) share of a load or store.
    core_memory_pj: float = 1.8
    #: Energy of one SPM bank access.
    bank_access_pj: float = 2.1
    #: Energy of traversing the tile-local request + response crossbars.
    tile_crossbar_pj: float = 4.5
    #: Energy of crossing one register boundary (including its wiring).
    register_crossing_pj: float = 1.4
    #: Energy of traversing one remote crossbar switch stage.
    switch_traversal_pj: float = 1.0
    #: Energy of one instruction fetch from the shared L1 instruction cache.
    icache_fetch_pj: float = 6.4


@dataclass(frozen=True)
class InstructionEnergy:
    """Energy of one instruction split by component (all in pJ)."""

    name: str
    core_pj: float
    interconnect_pj: float = 0.0
    bank_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        """Energy of the whole instruction."""
        return self.core_pj + self.interconnect_pj + self.bank_pj


@dataclass
class EnergyBreakdown:
    """Total energy of a simulation split by component (picojoules)."""

    core_pj: float = 0.0
    interconnect_pj: float = 0.0
    bank_pj: float = 0.0
    icache_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        """Energy of the whole program."""
        return self.core_pj + self.interconnect_pj + self.bank_pj + self.icache_pj

    @property
    def total_uj(self) -> float:
        """Energy of the whole program in microjoules."""
        return self.total_pj * 1e-6


class EnergyModel:
    """Derives per-access and per-program energy for one cluster configuration."""

    def __init__(
        self, cluster: MemPoolCluster, parameters: EnergyParameters | None = None
    ) -> None:
        self.cluster = cluster
        self.parameters = parameters or EnergyParameters()

    # ------------------------------------------------------------------ #
    # Per-access interconnect energy (path-derived)
    # ------------------------------------------------------------------ #

    def interconnect_energy_pj(self, core_id: int, bank_id: int) -> float:
        """Interconnect energy of one load from ``core_id`` to ``bank_id``."""
        parameters = self.parameters
        path = self.cluster.topology.build_path(core_id, bank_id, needs_response=True)
        energy = parameters.tile_crossbar_pj
        for resource in path:
            if isinstance(resource, RegisterStage):
                if resource.level == 3:  # the bank itself is counted separately
                    continue
                energy += parameters.register_crossing_pj
            else:
                energy += parameters.switch_traversal_pj
        # The per-core response arbiter is part of the tile crossbars already.
        energy -= parameters.switch_traversal_pj
        return energy

    def average_remote_interconnect_pj(self) -> float:
        """Average interconnect energy of a remote access from core 0 (uniform destinations)."""
        banks_per_tile = self.cluster.config.banks_per_tile
        energies = [
            self.interconnect_energy_pj(0, tile * banks_per_tile)
            for tile in range(1, self.cluster.config.num_tiles)
        ]
        return sum(energies) / len(energies) if energies else 0.0

    def local_interconnect_pj(self) -> float:
        """Interconnect energy of an access from core 0 to its own tile."""
        return self.interconnect_energy_pj(0, 0)

    # ------------------------------------------------------------------ #
    # Figure 10: energy per instruction
    # ------------------------------------------------------------------ #

    def instruction_energies(self) -> list[InstructionEnergy]:
        """The per-instruction breakdown of Figure 10 for this configuration."""
        parameters = self.parameters
        return [
            InstructionEnergy("add", core_pj=parameters.core_alu_pj),
            InstructionEnergy("mul", core_pj=parameters.core_mul_pj),
            InstructionEnergy(
                "local load",
                core_pj=parameters.core_memory_pj,
                interconnect_pj=self.local_interconnect_pj(),
                bank_pj=parameters.bank_access_pj,
            ),
            InstructionEnergy(
                "remote load",
                core_pj=parameters.core_memory_pj,
                interconnect_pj=self.average_remote_interconnect_pj(),
                bank_pj=parameters.bank_access_pj,
            ),
        ]

    # ------------------------------------------------------------------ #
    # Whole-program energy from activity counters
    # ------------------------------------------------------------------ #

    def program_energy(self, total_stats) -> EnergyBreakdown:
        """Energy of a program run described by aggregated ``CoreStats``."""
        parameters = self.parameters
        adds = total_stats.compute_cycles - total_stats.mul_instructions
        memory_ops = total_stats.loads + total_stats.stores
        local_ops = total_stats.local_loads + total_stats.local_stores
        remote_ops = total_stats.remote_loads + total_stats.remote_stores
        core = (
            adds * parameters.core_alu_pj
            + total_stats.mul_instructions * parameters.core_mul_pj
            + memory_ops * parameters.core_memory_pj
        )
        interconnect = (
            local_ops * self.local_interconnect_pj()
            + remote_ops * self.average_remote_interconnect_pj()
        )
        return EnergyBreakdown(
            core_pj=core,
            interconnect_pj=interconnect,
            bank_pj=memory_ops * parameters.bank_access_pj,
            icache_pj=total_stats.instructions * parameters.icache_fetch_pj,
        )
