"""Tests of the analytical physical models (area, timing, floorplan)."""

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.physical import AreaModel, FloorplanModel, TimingModel
from repro.physical.area import AreaParameters
from repro.physical.timing import (
    CLUSTER_CRITICAL_PATH,
    TILE_CRITICAL_PATH,
    TimingParametersPhysical,
)


@pytest.fixture
def full_cluster():
    return MemPoolCluster(MemPoolConfig.full("toph"))


class TestTileArea:
    def test_tile_macro_matches_the_paper(self, full_cluster):
        tile = AreaModel(full_cluster).tile_breakdown()
        assert tile.macro_side_um == pytest.approx(425, abs=10)
        assert tile.total_kge == pytest.approx(908, rel=0.05)

    def test_spm_and_icache_dominate_the_area(self, full_cluster):
        tile = AreaModel(full_cluster).tile_breakdown()
        assert tile.share(tile.spm_um2) == pytest.approx(0.402, abs=0.03)
        assert tile.share(tile.icache_um2) == pytest.approx(0.236, abs=0.03)

    def test_component_shares_sum_to_one(self, full_cluster):
        tile = AreaModel(full_cluster).tile_breakdown()
        components = (
            tile.cores_um2, tile.spm_um2, tile.icache_um2, tile.interconnect_um2, tile.misc_um2
        )
        assert sum(tile.share(area) for area in components) == pytest.approx(1.0)

    def test_snitch_core_area_follows_its_kge(self, full_cluster):
        parameters = AreaParameters()
        tile = AreaModel(full_cluster, parameters).tile_breakdown()
        expected = 4 * parameters.snitch_core_kge * 1000 * parameters.ge_um2
        assert tile.cores_um2 == pytest.approx(expected)

    def test_top1_tile_interconnect_is_smaller_than_toph(self):
        toph = AreaModel(MemPoolCluster(MemPoolConfig.full("toph"))).tile_breakdown()
        top1 = AreaModel(MemPoolCluster(MemPoolConfig.full("top1"))).tile_breakdown()
        assert top1.interconnect_um2 < toph.interconnect_um2


class TestClusterArea:
    def test_cluster_side_matches_the_paper(self, full_cluster):
        report = AreaModel(full_cluster).cluster_report()
        assert report.cluster_side_mm == pytest.approx(4.6, abs=0.15)

    def test_tiles_area_is_fraction_of_cluster(self, full_cluster):
        report = AreaModel(full_cluster).cluster_report()
        assert report.tiles_um2 / report.cluster_um2 == pytest.approx(report.tile_coverage)


class TestTiming:
    def test_wire_dominates_the_cluster_path(self):
        model = TimingModel()
        tile = model.wire_fraction(TILE_CRITICAL_PATH, "worst")
        assert tile < 0.1
        assert tile < model.wire_fraction(CLUSTER_CRITICAL_PATH, "worst")

    def test_typical_corner_is_faster_than_worst(self):
        model = TimingModel()
        for path in (TILE_CRITICAL_PATH, CLUSTER_CRITICAL_PATH):
            assert model.frequency_mhz(path, "typical") > model.frequency_mhz(path, "worst")

    def test_unknown_corner_rejected(self):
        with pytest.raises(ValueError):
            TimingModel().path_delay_ns(TILE_CRITICAL_PATH, "nominal")

    def test_custom_parameters(self):
        parameters = TimingParametersPhysical(margin_ns=0.5)
        slow = TimingModel(parameters).frequency_mhz(TILE_CRITICAL_PATH, "typical")
        fast = TimingModel().frequency_mhz(TILE_CRITICAL_PATH, "typical")
        assert slow < fast


class TestFloorplan:
    def test_top4_is_infeasible_and_others_are_not(self, full_cluster):
        reports = FloorplanModel(full_cluster).compare_topologies()
        assert not reports["top4"].feasible
        assert reports["top1"].feasible
        assert reports["toph"].feasible

    def test_top4_centre_congestion_is_about_four_times_top1(self, full_cluster):
        reports = FloorplanModel(full_cluster).compare_topologies()
        ratio = reports["top4"].centre_utilisation / reports["top1"].centre_utilisation
        assert 3.5 <= ratio <= 4.5

    def test_toph_spreads_its_wiring(self, full_cluster):
        """TopH uses more total wire but far less of the central channel than Top4."""
        reports = FloorplanModel(full_cluster).compare_topologies()
        assert reports["toph"].centre_utilisation < reports["top4"].centre_utilisation
        assert reports["toph"].total_wire_mm > reports["top1"].total_wire_mm

    def test_tile_positions_are_inside_the_die(self, full_cluster):
        model = FloorplanModel(full_cluster)
        extent = model.grid_side * model.tile_pitch_mm
        for tile in range(full_cluster.config.num_tiles):
            x, y = model.tile_position_mm(tile)
            assert 0 <= x <= extent
            assert 0 <= y <= extent

    def test_groups_form_quadrants(self, full_cluster):
        model = FloorplanModel(full_cluster)
        centres = [model._group_centre_mm(group) for group in range(4)]
        xs = sorted({round(x, 3) for x, _ in centres})
        ys = sorted({round(y, 3) for _, y in centres})
        assert len(xs) == 2 and len(ys) == 2

    def test_all_tiles_have_unique_positions(self, full_cluster):
        model = FloorplanModel(full_cluster)
        positions = {
            model.tile_position_mm(tile) for tile in range(full_cluster.config.num_tiles)
        }
        assert len(positions) == full_cluster.config.num_tiles
