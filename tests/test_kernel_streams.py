"""Pinned operation streams of the five kernels: the programs, not just their timing.

``tests/data/kernel_streams.json`` was recorded at commit 330b9a1 — the last
one whose kernels built every address through per-element method calls, read
each word through ``memory.read_signed`` and formatted a tag prefix per loop
iteration — and must pass unchanged on every later tree.  Per kernel and
addressing scheme on ``MemPoolConfig.tiny`` it holds a sha256 per core of the
normalised operation stream — ``("L", address)``, ``("U", ordinal of the load
it consumes)``, ``("S", address)``, ``("C", cycles, muls)``, ``("B", id)`` —
and a sha256 of the functional memory words after the run.  Tag *names* are
excluded on purpose: which load a ``Use`` waits for is the program, what the
tag is called is not.

``PYTHONPATH=src python tests/test_kernel_streams.py --write`` re-records the
file (only when a kernel's *program* changes on purpose).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.agents import Barrier, Compute, Load, Store, TraceAgent, Use
from repro.core.cluster import MemPoolCluster
from repro.core.config import WORD_BYTES, MemPoolConfig
from repro.core.system import MemPoolSystem
from repro.kernels import (
    AxpyKernel,
    Conv2dKernel,
    DctKernel,
    DotProductKernel,
    MatmulKernel,
)
from repro.kernels.runtime import load_use_block

STREAMS_PATH = Path(__file__).parent / "data" / "kernel_streams.json"

#: The pinned problem sizes (250 leaves ragged last chunks), and a second,
#: larger size per kernel for the tag-table check.
KERNELS = {
    "matmul": lambda cluster: MatmulKernel(cluster, size=8),
    "2dconv": lambda cluster: Conv2dKernel(cluster, width=16),
    "dct": lambda cluster: DctKernel(cluster, blocks_per_core=1),
    "axpy": lambda cluster: AxpyKernel(cluster, length=250),
    "dotprod": lambda cluster: DotProductKernel(cluster, length=250),
}
LARGER = {
    "matmul": lambda cluster: MatmulKernel(cluster, size=16),
    "2dconv": lambda cluster: Conv2dKernel(cluster, width=24),
    "dct": lambda cluster: DctKernel(cluster, blocks_per_core=2),
    "axpy": lambda cluster: AxpyKernel(cluster, length=500),
    "dotprod": lambda cluster: DotProductKernel(cluster, length=500),
}
CASES = [
    f"{name}-{'scrambled' if scrambling else 'interleaved'}"
    for name in KERNELS
    for scrambling in (True, False)
]


def normalise(operations) -> list[tuple]:
    """One core's operations with every tag replaced by the load it names."""
    stream: list[tuple] = []
    load_of_tag: dict[object, int] = {}
    loads = 0
    for operation in operations:
        kind = type(operation)
        if kind is Load:
            if operation.tag is not None:
                load_of_tag[operation.tag] = loads
            loads += 1
            stream.append(("L", operation.address))
        elif kind is Use:
            stream.append(("U", load_of_tag[operation.tag]))
        elif kind is Store:
            stream.append(("S", operation.address))
        elif kind is Compute:
            stream.append(("C", operation.cycles, operation.muls))
        else:
            assert kind is Barrier, operation
            stream.append(("B", operation.barrier_id))
    return stream


def run_recorded(build, scrambling: bool):
    """Run a kernel on the tiny cluster; ``(system, per-core operation lists)``."""
    cluster = MemPoolCluster(MemPoolConfig.tiny("toph", scrambling_enabled=scrambling))
    kernel = build(cluster)
    recorded: list[list] = [[] for _ in range(cluster.config.num_cores)]

    def tee(core_id):
        for operation in kernel.core_program(core_id):
            recorded[core_id].append(operation)
            yield operation

    system = MemPoolSystem(
        cluster, {core_id: TraceAgent(tee(core_id)) for core_id in range(len(recorded))}
    )
    system.run()
    return system, recorded


def digest(case: str) -> dict:
    """The sha256s of one ``<kernel>-<scheme>`` case."""
    name, scheme = case.rsplit("-", 1)
    system, recorded = run_recorded(KERNELS[name], scheme == "scrambled")
    memory = system.cluster.memory
    words = memory.read_words(0, memory.config.l1_bytes // WORD_BYTES, signed=False)
    return {
        "cores": [
            hashlib.sha256(
                json.dumps(normalise(operations), separators=(",", ":")).encode()
            ).hexdigest()
            for operations in recorded
        ],
        "memory": hashlib.sha256(words.tobytes()).hexdigest(),
    }


@pytest.mark.parametrize("case", CASES)
def test_kernel_program_matches_the_recorded_stream(case):
    recorded = json.loads(STREAMS_PATH.read_text())
    assert sorted(recorded) == sorted(CASES)
    assert digest(case) == recorded[case]


def test_load_use_block_is_loads_then_uses_each_resolving_to_its_own_load():
    # Blocks of different lengths behind one prefix: the tags are shared.
    for addresses in ([0, 4, 8], [64, 32], [12], [8, 4, 0, 16]):
        operations = load_use_block(addresses, "x")
        count = len(addresses)
        assert [type(operation) for operation in operations] == [Load] * count + [Use] * count
        assert normalise(operations) == [("L", address) for address in addresses] + [
            ("U", ordinal) for ordinal in range(count)
        ]
    first, second = load_use_block([0, 4], "x"), load_use_block([8, 12], "y")
    assert {operation.tag for operation in first}.isdisjoint(
        operation.tag for operation in second
    )


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_tag_table_is_a_constant_of_the_call_sites_not_of_the_trip_counts(name):
    def largest_table(build):
        system, _ = run_recorded(build, scrambling=True)
        return max(len(core._tag_to_sequence) for core in system.cores)

    assert largest_table(KERNELS[name]) == largest_table(LARGER[name])


def test_bulk_read_returns_the_scalar_reads_and_raises_their_errors():
    memory = MemPoolCluster(MemPoolConfig.tiny("toph")).memory
    memory.write_words(0, [5, -7, 2**31 - 1, -(2**31)])
    addresses = [12, 0, 4, 8, 0]
    assert memory.read_signed_block(addresses) == [
        memory.read_signed(address) for address in addresses
    ]
    assert memory.read_signed_block([]) == []
    for bad in (2, -4, memory.config.l1_bytes):
        with pytest.raises(ValueError) as scalar:
            memory.read_signed(bad)
        with pytest.raises(ValueError) as bulk:
            memory.read_signed_block([0, bad, 4])
        assert str(bulk.value) == str(scalar.value)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    STREAMS_PATH.parent.mkdir(exist_ok=True)
    STREAMS_PATH.write_text(
        json.dumps({case: digest(case) for case in CASES}, indent=1) + "\n"
    )
    print(f"wrote {len(CASES)} cases to {STREAMS_PATH}")
