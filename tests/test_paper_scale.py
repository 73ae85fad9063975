"""The paper-scale outputs: Figures 5 and 7 on the 256-core cluster.

``tests/data/paper_scale.json`` pins what ``run fig5 fig7 --full``
computes: the accepted throughput and the latencies of each of Figure 5's
33 points, and the cycle count and correctness flag of each of Figure 7's
24.  Both engines share the compiled network, the address map, the
kernels and the core model, so a change there that moves 256-core
results on both alike passes every cross-engine check; it fails this one.
Recomputing takes about a minute on two workers, so it runs in the
nightly job (``MEMPOOL_NIGHTLY=1``); tier-1 checks only that the pin
names exactly the points the two sweeps expand to.

``PYTHONPATH=src python tests/test_paper_scale.py --write`` re-records it
(only when the *model* changes on purpose).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro.evaluation.settings import ExperimentSettings
from repro.experiments.executor import Executor
from repro.experiments.registry import EXPERIMENTS

PIN_PATH = Path(__file__).parent / "data" / "paper_scale.json"
SETTINGS = ExperimentSettings(full_scale=True)


#: Per figure: a point's name from its sweep parameters, and the values
#: pinned from its result.
POINTS = {
    "fig5": (
        lambda params: f"{params['topology']}@{params['load']}",
        lambda result: {
            "throughput": result.throughput,
            "average_latency": result.average_latency,
            "p95_latency": result.p95_latency,
            "max_latency": result.max_latency,
        },
    ),
    "fig7": (
        lambda params: "/".join((
            params["kernel"], params["topology"],
            "scrambled" if params["scrambling"] else "unscrambled",
        )),
        lambda result: {"cycles": result.cycles, "correct": result.correct},
    ),
}


def _specs(name: str) -> list:
    return EXPERIMENTS[name].build_sweep(SETTINGS).specs()


def measure(workers: int = 2) -> dict:
    """Every pinned figure's points at the paper's scale, by point name."""
    executor = Executor(workers=workers)
    measured = {}
    for figure, (name, values) in POINTS.items():
        specs = _specs(figure)
        results = executor.run(specs)
        measured[figure] = {
            name(spec.params): values(result) for spec, result in zip(specs, results)
        }
    return measured


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PIN_PATH.read_text())


def test_the_pin_names_every_paper_scale_point(pinned):
    assert sorted(pinned) == sorted(POINTS)
    for figure, (name, _) in POINTS.items():
        assert sorted(pinned[figure]) == sorted(name(spec.params) for spec in _specs(figure))
    assert (len(pinned["fig5"]), len(pinned["fig7"])) == (33, 24)
    assert all(point["correct"] for point in pinned["fig7"].values())


@pytest.mark.skipif(
    not os.environ.get("MEMPOOL_NIGHTLY"),
    reason="the paper-scale recomputation runs in the nightly job "
    "(set MEMPOOL_NIGHTLY=1 to run locally)",
)
def test_paper_scale_outputs_match_the_pin(pinned):
    measured = measure(workers=2)
    changed = [
        f"{figure} {point}: {pinned[figure][point]} -> {values}"
        for figure, points in measured.items()
        for point, values in points.items()
        if pinned[figure].get(point) != values
    ]
    assert not changed, "\n".join(["paper-scale outputs changed:", *changed])
    assert measured == pinned


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    PIN_PATH.parent.mkdir(exist_ok=True)
    PIN_PATH.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}")
