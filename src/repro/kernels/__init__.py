"""Parallel benchmark kernels used in the paper's evaluation (Section V-C)."""

from repro.kernels.runtime import Kernel, KernelResult, split_evenly
from repro.kernels.matmul import MatmulKernel
from repro.kernels.conv2d import Conv2dKernel
from repro.kernels.dct import DctKernel

#: The three benchmarks of Figure 7, keyed by their paper names.
PAPER_KERNELS = {
    "matmul": MatmulKernel,
    "2dconv": Conv2dKernel,
    "dct": DctKernel,
}

__all__ = [
    "Kernel",
    "KernelResult",
    "split_evenly",
    "MatmulKernel",
    "Conv2dKernel",
    "DctKernel",
    "PAPER_KERNELS",
]
