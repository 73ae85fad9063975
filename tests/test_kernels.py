"""Tests of the three benchmark kernels (functional correctness and locality)."""

import numpy as np
import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.kernels import Conv2dKernel, DctKernel, MatmulKernel, PAPER_KERNELS, split_evenly
from repro.kernels.dct import dct_1d, dct_2d
from repro.kernels.runtime import load_use_block, mac_compute


def tiny_cluster(topology="toph", scrambling=True):
    return MemPoolCluster(MemPoolConfig.tiny(topology, scrambling_enabled=scrambling))


class TestWorkSplitting:
    def test_split_evenly_covers_everything_without_overlap(self):
        slices = split_evenly(100, 7)
        assert slices[0][0] == 0
        assert slices[-1][1] == 100
        for (_, end), (start, _) in zip(slices, slices[1:]):
            assert start == end

    def test_split_sizes_differ_by_at_most_one(self):
        sizes = [end - start for start, end in split_evenly(101, 8)]
        assert max(sizes) - min(sizes) <= 1

    def test_split_with_more_parts_than_items(self):
        slices = split_evenly(3, 8)
        assert sum(end - start for start, end in slices) == 3

    def test_split_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            split_evenly(10, 0)
        with pytest.raises(ValueError):
            split_evenly(-1, 2)

    def test_load_use_block_yields_loads_then_uses(self):
        operations = list(load_use_block([0, 4, 8], "x"))
        kinds = [type(operation).__name__ for operation in operations]
        assert kinds == ["Load", "Load", "Load", "Use", "Use", "Use"]

    def test_mac_compute_counts_muls(self):
        compute = mac_compute(4)
        assert compute.muls == 4
        assert compute.cycles == 10


class TestMatmulKernel:
    def test_result_matches_numpy(self):
        kernel = MatmulKernel(tiny_cluster(), size=8)
        result = kernel.run()
        assert result.correct
        assert np.array_equal(kernel.result(), kernel.reference())

    def test_accesses_are_predominantly_remote(self):
        # Use the 64-core cluster and a 32x32 matrix: with rows spanning
        # multiple tiles the interleaved operands are overwhelmingly remote,
        # as the paper states for matmul.
        cluster = MemPoolCluster(MemPoolConfig.scaled("toph"))
        kernel = MatmulKernel(cluster, size=32)
        result = kernel.run(verify=False)
        assert result.local_fraction < 0.3

    def test_every_core_contributes(self):
        kernel = MatmulKernel(tiny_cluster(), size=8)
        result = kernel.run()
        assert result.system.active_cores == 16

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            MatmulKernel(tiny_cluster(), size=6)

    def test_ideal_topology_is_fastest(self):
        cycles = {}
        for topology in ("top1", "toph", "topx"):
            kernel = MatmulKernel(tiny_cluster(topology), size=8)
            cycles[topology] = kernel.run(verify=False).cycles
        assert cycles["topx"] <= cycles["toph"] <= cycles["top1"]


class TestConv2dKernel:
    def test_result_matches_numpy(self):
        kernel = Conv2dKernel(tiny_cluster(), width=16)
        result = kernel.run()
        assert result.correct

    def test_accesses_are_mostly_local_with_scrambling(self):
        kernel = Conv2dKernel(tiny_cluster(scrambling=True), width=16)
        result = kernel.run(verify=False)
        assert result.local_fraction > 0.8

    def test_accesses_spread_without_scrambling(self):
        kernel = Conv2dKernel(tiny_cluster(scrambling=False), width=16)
        result = kernel.run(verify=False)
        assert result.local_fraction < 0.5

    def test_functional_result_is_independent_of_scrambling(self):
        with_scrambling = Conv2dKernel(tiny_cluster(scrambling=True), width=16)
        without_scrambling = Conv2dKernel(tiny_cluster(scrambling=False), width=16)
        with_scrambling.run()
        without_scrambling.run()
        assert np.array_equal(with_scrambling.result(), without_scrambling.result())

    def test_height_must_divide_into_tiles(self):
        with pytest.raises(ValueError):
            Conv2dKernel(tiny_cluster(), height=30, width=16)

    def test_border_pixels_pass_through(self):
        kernel = Conv2dKernel(tiny_cluster(), width=16)
        kernel.run()
        assert np.array_equal(kernel.result()[0, :], kernel.image[0, :])

    @pytest.mark.parametrize("seed, height, width", [(1, 16, 3), (2, 16, 7), (3, 32, 20)])
    def test_reference_matches_the_per_pixel_loop(self, seed, height, width):
        kernel = Conv2dKernel(tiny_cluster(), height=height, width=width, seed=seed)
        # The oracle: the window sum spelled out pixel by pixel, borders copied.
        expected = kernel.image.copy()
        for row in range(1, height - 1):
            for col in range(1, width - 1):
                window = kernel.image[row - 1 : row + 2, col - 1 : col + 2]
                expected[row, col] = int(np.sum(window * kernel.WEIGHTS))
        reference = kernel.reference()
        assert reference.dtype == expected.dtype
        assert np.array_equal(reference, expected)


class TestDctKernel:
    def test_dct1d_matches_direct_formula(self):
        values = np.arange(8, dtype=np.int64) * 3 - 5
        from repro.kernels.dct import COS_TABLE
        expected = (COS_TABLE @ values) >> 6
        assert np.array_equal(dct_1d(values), expected)

    def test_dct2d_dc_coefficient_of_constant_block(self):
        block = np.full((8, 8), 4, dtype=np.int64)
        transformed = dct_2d(block)
        assert transformed[0, 0] > 0
        assert np.all(transformed[1:, 1:] == 0)

    def test_result_matches_reference(self):
        kernel = DctKernel(tiny_cluster())
        result = kernel.run()
        assert result.correct

    def test_all_accesses_local_with_scrambling(self):
        kernel = DctKernel(tiny_cluster(scrambling=True))
        result = kernel.run(verify=False)
        assert result.local_fraction == pytest.approx(1.0)

    def test_accesses_remote_without_scrambling(self):
        kernel = DctKernel(tiny_cluster(scrambling=False))
        result = kernel.run(verify=False)
        assert result.local_fraction < 0.5

    def test_scrambling_speeds_up_dct(self):
        fast = DctKernel(tiny_cluster(scrambling=True)).run(verify=False).cycles
        slow = DctKernel(tiny_cluster(scrambling=False)).run(verify=False).cycles
        assert fast < slow

    def test_multiple_blocks_per_core(self):
        kernel = DctKernel(tiny_cluster(), blocks_per_core=2)
        result = kernel.run()
        assert result.correct
        assert len(kernel.blocks) == 32

    def test_invalid_blocks_per_core(self):
        with pytest.raises(ValueError):
            DctKernel(tiny_cluster(), blocks_per_core=0)


class TestKernelRegistry:
    def test_paper_kernels_mapping(self):
        assert set(PAPER_KERNELS) == {"matmul", "2dconv", "dct"}

    def test_kernel_result_metadata(self):
        kernel = MatmulKernel(tiny_cluster("top4"), size=8)
        result = kernel.run(verify=False)
        assert result.topology == "top4"
        assert result.scrambling is True
        assert result.instructions > 0
