"""Tests of the energy and power models (Figure 10, Section VI-D)."""

import pytest

from repro.core.agents import Compute, Load, Store, TraceAgent, Use
from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.core.system import MemPoolSystem
from repro.energy import EnergyModel, EnergyParameters, PowerModel
from repro.energy.power import PowerParameters


@pytest.fixture
def full_toph_cluster():
    return MemPoolCluster(MemPoolConfig.full("toph"))


class TestInstructionEnergies:
    def test_figure10_values(self, full_toph_cluster):
        """The remote load, derived from TopH's paths, matches Figure 10."""
        model = EnergyModel(full_toph_cluster)
        energies = {entry.name: entry for entry in model.instruction_energies()}
        assert energies["remote load"].total_pj == pytest.approx(16.9, abs=1.0)

    def test_remote_interconnect_ratio(self, full_toph_cluster):
        """Remote accesses use ~2.9x the interconnect energy of local ones."""
        model = EnergyModel(full_toph_cluster)
        ratio = model.average_remote_interconnect_pj() / model.local_interconnect_pj()
        assert 2.4 <= ratio <= 3.2

    def test_remote_load_uses_about_twice_the_energy_of_local(self, full_toph_cluster):
        model = EnergyModel(full_toph_cluster)
        energies = {entry.name: entry for entry in model.instruction_energies()}
        ratio = energies["remote load"].total_pj / energies["local load"].total_pj
        assert 1.7 <= ratio <= 2.2

    def test_ideal_topology_has_cheap_remote_accesses(self):
        cluster = MemPoolCluster(MemPoolConfig.full("topx"))
        model = EnergyModel(cluster)
        assert model.average_remote_interconnect_pj() == pytest.approx(
            model.local_interconnect_pj()
        )

    def test_same_group_cheaper_than_remote_group_for_toph(self, full_toph_cluster):
        model = EnergyModel(full_toph_cluster)
        config = full_toph_cluster.config
        same_group = model.interconnect_energy_pj(0, 5 * config.banks_per_tile)
        other_group = model.interconnect_energy_pj(0, 40 * config.banks_per_tile)
        assert same_group < other_group

    def test_custom_parameters_respected(self, full_toph_cluster):
        parameters = EnergyParameters(core_alu_pj=1.0)
        model = EnergyModel(full_toph_cluster, parameters)
        energies = {entry.name: entry for entry in model.instruction_energies()}
        assert energies["add"].total_pj == pytest.approx(1.0)


class TestProgramEnergy:
    def _run_small_program(self, scrambling=True):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph", scrambling_enabled=scrambling))
        local = cluster.layout.stack_pointer(0) - 8
        remote = 2 * cluster.config.seq_region_bytes_per_tile + 16
        operations = [
            Compute(4, muls=1),
            Load(local, tag="l"),
            Use("l"),
            Load(remote, tag="r"),
            Use("r"),
            Store(local),
        ]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        return cluster, system.run()

    def test_breakdown_components_are_positive(self):
        cluster, result = self._run_small_program()
        breakdown = EnergyModel(cluster).program_energy(result.total)
        assert breakdown.core_pj > 0
        assert breakdown.interconnect_pj > 0
        assert breakdown.bank_pj > 0
        assert breakdown.icache_pj > 0
        assert breakdown.total_pj == pytest.approx(
            breakdown.core_pj + breakdown.interconnect_pj + breakdown.bank_pj + breakdown.icache_pj
        )

    def test_bank_energy_counts_every_access(self):
        cluster, result = self._run_small_program()
        model = EnergyModel(cluster)
        breakdown = model.program_energy(result.total)
        assert breakdown.bank_pj == pytest.approx(3 * model.parameters.bank_access_pj)

    def test_remote_accesses_cost_more_interconnect_energy(self):
        cluster, result = self._run_small_program()
        model = EnergyModel(cluster)
        local_only = result.total
        breakdown = model.program_energy(local_only)
        expected = (
            2 * model.local_interconnect_pj() + model.average_remote_interconnect_pj()
        )
        assert breakdown.interconnect_pj == pytest.approx(expected)


class TestPowerModel:
    def _matmul_result(self):
        from repro.kernels import MatmulKernel

        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        kernel = MatmulKernel(cluster, size=8)
        return cluster, kernel.run(verify=False)

    def test_tile_power_breakdown_orders_components_like_the_paper(self):
        cluster, result = self._matmul_result()
        breakdown = PowerModel(cluster).breakdown(result.system)
        assert breakdown.icache_mw > breakdown.cores_mw > breakdown.spm_mw
        assert breakdown.tile_total_mw > 0

    def test_component_shares_sum_to_one(self):
        cluster, result = self._matmul_result()
        breakdown = PowerModel(cluster).breakdown(result.system)
        assert sum(share for _, _, share in breakdown.rows()) == pytest.approx(1.0)

    def test_power_scales_with_frequency(self):
        cluster, result = self._matmul_result()
        slow = PowerModel(cluster, frequency_hz=250e6).breakdown(result.system)
        fast = PowerModel(cluster, frequency_hz=500e6).breakdown(result.system)
        assert fast.tile_total_mw > slow.tile_total_mw

    def test_zero_cycle_result_rejected(self):
        cluster, result = self._matmul_result()
        result.system.cycles = 0
        with pytest.raises(ValueError):
            PowerModel(cluster).breakdown(result.system)

    def test_custom_background_parameters(self):
        cluster, result = self._matmul_result()
        quiet = PowerParameters(tile_overhead_mw=0.0)
        breakdown = PowerModel(cluster, power_parameters=quiet).breakdown(result.system)
        assert breakdown.other_mw == 0.0
