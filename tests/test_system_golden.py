"""Golden ``SystemResult``s of the execution-driven simulator.

Both engines run through one ``MemPoolSystem`` loop, so cross-engine
equality alone cannot tell whether that loop is right.  The goldens in
``tests/data/system_golden.json`` were recorded at commit 71c7935 from the
per-cycle loop that preceded the event-driven one (every core stepped every
cycle, one ``Flit`` per request, ``legacy`` engine); every engine must
reproduce them exactly: cycle count, barrier episodes, request counts and
every ``CoreStats`` field of every core.  The two ``snitch-stack-spill``
cases were added at commit f889595 (``legacy`` engine, the commit before the
core model stopped building an object per address decode) and the two
``axpy`` cases at commit 330b9a1 (``legacy`` engine, the commit before the
kernels built their programs a loop body at a time); the forty-eight
``random-<selection>-<layout>`` cases, one random program per valid tiny
topology selection and address layout, at commit e816df7 (``legacy`` engine;
``vector`` and the since-deleted ``compiled`` engine reproduced every one);
the three ``fig7-*`` cases, the benchmark's own Figure 7 configuration, at
commit 9cd151e (``legacy`` engine, the commit before the core model folded
its reorder buffer into a window of sequence numbers); the fifty original
entries are byte-for-byte the first recording.

``PYTHONPATH=src python tests/test_system_golden.py --write`` re-records them
(only when the *model* changes on purpose).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import ENGINES, MemPoolConfig
from repro.core.coremodel import CoreStats
from repro.core.system import MemPoolSystem
from repro.evaluation.fig7 import FIG7_KERNELS
from repro.evaluation.points import simulate_fig7_point
from repro.kernels import (
    AxpyKernel,
    Conv2dKernel,
    DctKernel,
    DotProductKernel,
    MatmulKernel,
)
from repro.snitch import assemble
from repro.snitch.agent import make_snitch_agents
from repro.validation.fuzz import SystemCase, run_system_case, topology_selections

GOLDEN_PATH = Path(__file__).parent / "data" / "system_golden.json"
FIELDS = [field.name for field in dataclasses.fields(CoreStats)]

KERNELS = {
    "matmul": lambda cluster: MatmulKernel(cluster, size=8),
    "2dconv": lambda cluster: Conv2dKernel(cluster, width=16),
    "dct": lambda cluster: DctKernel(cluster, blocks_per_core=1),
    # The paper's three never synchronise; this one reduces behind a barrier.
    "dotprod": lambda cluster: DotProductKernel(cluster, length=256),
}

#: Every core sums a strided slice of a shared buffer into its own slot.
SNITCH_SOURCE = """
    la   t0, buf
    slli t1, a0, 2
    add  t0, t0, t1
    li   t2, 0
    li   t3, 0
loop:
    lw   t4, 0(t0)
    add  t2, t2, t4
    addi t0, t0, 64
    addi t3, t3, 1
    li   t5, 4
    blt  t3, t5, loop
    la   t6, out
    add  t6, t6, t1
    sw   t2, 0(t6)
    ecall
"""


def _kernel_case(build, topology, scrambling):
    def run(engine):
        config = MemPoolConfig.tiny(topology, scrambling_enabled=scrambling)
        result = build(MemPoolCluster(config, engine=engine)).run()
        assert result.correct
        return result.system

    return run


def _random_case(index):
    topology = ("top1", "toph", "topx", "ring")[index % 4]
    case = SystemCase(
        topology, seed=1000 + index, scrambling=index % 3 != 0,
        rob_depth=2 if index % 2 else 8,
    )
    return lambda engine: run_system_case(case, engine)


#: Every valid tiny ``(topology, params)`` selection, scrambled and
#: interleaved; the ROB depth cycles through the fuzz campaign's 1, 2, 8.
SELECTION_CASES = [
    SystemCase(
        topology, seed=2000 + index, topology_params=tuple(params.items()),
        scrambling=index % 2 == 0, rob_depth=(1, 2, 8)[index % 3],
    )
    for index, (topology, params) in enumerate(
        selection
        for selection in topology_selections("tiny")
        for _ in range(2)
    )
]


def _selection_name(case):
    params = "".join(f"-{key}{value}" for key, value in case.topology_params)
    layout = "scrambled" if case.scrambling else "interleaved"
    return f"random-{case.topology}{params}-{layout}"


def _selection_case(case):
    return lambda engine: run_system_case(case, engine)


def _synthetic_case(engine):
    cluster = MemPoolCluster(MemPoolConfig.tiny("toph"), engine=engine)
    return MemPoolSystem.synthetic(
        cluster, 0.3, pattern="hotspot", injector="bursty",
        requests_per_core=12, seed=5,
    ).run()


#: Spill and reload the core id through the stack: the one access of the
#: Snitch program that the address map places (own tile when scrambled).
SNITCH_SPILL = """
    sw   a0, -4(sp)
    lw   a0, -4(sp)
"""


def _snitch_case(engine, prologue="", scrambling=True):
    config = MemPoolConfig.tiny("toph", scrambling_enabled=scrambling)
    cluster = MemPoolCluster(config, engine=engine)
    buffer = cluster.layout.alloc_shared("buf", 4 * 64)
    out = cluster.layout.alloc_shared("out", 64)
    cluster.memory.write_words(buffer.base, range(64))
    program = assemble(prologue + SNITCH_SOURCE, symbols={"buf": buffer.base, "out": out.base})
    agents = make_snitch_agents(
        cluster, program, argument_builder=lambda core: {10: core}
    )
    result = MemPoolSystem(cluster, agents).run()
    assert cluster.memory.read_signed(out.base + 4 * 3) == 3 + 19 + 35 + 51
    return result


CASES = {
    **{
        f"{name}-{topology}-{'scrambled' if scrambling else 'interleaved'}":
            _kernel_case(build, topology, scrambling)
        for name, build in KERNELS.items()
        for topology in ("top1", "toph", "topx")
        for scrambling in (True, False)
    },
    # Streaming, no reuse, ragged last chunks (250 elements on 16 cores).
    **{
        f"axpy-{'scrambled' if scrambling else 'interleaved'}": _kernel_case(
            lambda cluster: AxpyKernel(cluster, length=250), "toph", scrambling
        )
        for scrambling in (True, False)
    },
    **{f"random-{index:02d}": _random_case(index) for index in range(24)},
    **{_selection_name(case): _selection_case(case) for case in SELECTION_CASES},
    "synthetic-hotspot-bursty": _synthetic_case,
    "snitch-strided-sum": _snitch_case,
    **{
        f"snitch-stack-spill-{'scrambled' if scrambling else 'interleaved'}":
            lambda engine, scrambling=scrambling: _snitch_case(
                engine, SNITCH_SPILL, scrambling
            )
        for scrambling in (True, False)
    },
}


def _fig7_case(kernel):
    def run(engine):
        result = simulate_fig7_point(
            kernel=kernel, topology="toph", scrambling=True, engine=engine
        )
        assert result.correct
        return result.system

    return run


#: The ``kernels_exec_64`` benchmark's points: Figure 7's default (64-core)
#: sizes on TopH with scrambling on.  Tier-1 checks them on ``vector``, the
#: engine the benchmark runs; the ``legacy`` leg (~2 s) runs in the nightly
#: job, under ``MEMPOOL_NIGHTLY=1``.
BENCH_CASES = {f"fig7-{kernel}-toph-scrambled": _fig7_case(kernel) for kernel in FIG7_KERNELS}


def encode(result) -> dict:
    """The whole ``SystemResult`` as JSON-ready plain data."""
    return {
        "cycles": result.cycles,
        "barrier_episodes": result.barrier_episodes,
        "injected_requests": result.injected_requests,
        "completed_requests": result.completed_requests,
        "core_stats": [
            [getattr(stats, name) for name in FIELDS] for stats in result.core_stats
        ],
    }


@pytest.fixture(scope="module")
def goldens():
    recorded = json.loads(GOLDEN_PATH.read_text())
    assert recorded["fields"] == FIELDS
    assert sorted(recorded["cases"]) == sorted({**CASES, **BENCH_CASES})
    return recorded["cases"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_system_result_matches_golden(goldens, name, engine):
    assert encode(CASES[name](engine)) == goldens[name]


@pytest.mark.parametrize("name", sorted(BENCH_CASES))
def test_benchmark_configuration_matches_golden(goldens, name):
    assert encode(BENCH_CASES[name]("vector")) == goldens[name]


@pytest.mark.skipif(
    not os.environ.get("MEMPOOL_NIGHTLY"),
    reason="the legacy leg of the benchmark configuration runs in the nightly "
    "job (set MEMPOOL_NIGHTLY=1 to run locally)",
)
@pytest.mark.parametrize("name", sorted(BENCH_CASES))
def test_benchmark_configuration_matches_golden_on_legacy(goldens, name):
    assert encode(BENCH_CASES[name]("legacy")) == goldens[name]


def test_goldens_exercise_every_stall_kind(goldens):
    """The pins are not vacuous: each bulk-charged counter is non-zero somewhere."""
    for name in ("dependency_stalls", "structural_stalls", "barrier_stalls"):
        column = FIELDS.index(name)
        assert any(
            core[column] for case in goldens.values() for core in case["core_stats"]
        ), name
    assert any(case["barrier_episodes"] > 1 for case in goldens.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    cases = {
        name: encode(run("legacy"))
        for name, run in sorted({**CASES, **BENCH_CASES}.items())
    }
    GOLDEN_PATH.write_text(
        json.dumps({"fields": FIELDS, "cases": cases}, separators=(",", ":")) + "\n"
    )
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
