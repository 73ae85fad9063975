"""Which numbers of Figure 10 and Sections VI-B/C/D are calibrated.

Those numbers come from analytic models, not from the simulator, and some
of them only restate a constant the model was calibrated with.  This test
computes, for every number ``run fig10 physical power`` prints, which
constants move it: it raises each constant of the energy, area, power,
timing and floorplan models by 10 %, one at a time, and evaluates the three
reports along the point functions' own code path.  A number is
*calibrated* when some constant moves it and no other input does — Top1's
full cluster and TopH's scaled one for the cluster models, a second kernel
for the power model — so the model computes it from constants alone.
Every other number is *derived*.

The reports declare each number's label, and the constants a calibrated
one comes from, next to its row.  The test checks that the declarations
are the computed ones, that every constant moves some printed number, and
grades each calibrated number against the paper with the tolerance its
checks had before it was labelled.
"""

import dataclasses
import math
from types import SimpleNamespace

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.energy import EnergyModel, EnergyParameters, PowerParameters
from repro.evaluation import ExperimentSettings
from repro.evaluation.fig10 import Fig10Result
from repro.evaluation.points import (
    compute_fig10_point, compute_physical_point, compute_power_point, evaluate_physical,
    evaluate_power,
)
from repro.kernels import DctKernel
from repro.physical import AreaParameters, FloorplanModel, TimingParametersPhysical
from repro.physical import timing as physical_timing

#: The factor each constant is raised by, one at a time.
RAISE = 1.1
#: The power report's operating point (the power sweep's default).
FREQUENCY_HZ = 500e6

#: The paper's value of each calibrated number, with the tightest tolerance
#: an assert gave it before it was labelled (``pytest.approx``'s default
#: where no assert gave one).  ``None``: the paper prints no such number.
PAPER = {
    ("fig10", "add core"): pytest.approx(3.7),
    ("fig10", "add total"): pytest.approx(3.7),
    ("fig10", "mul core"): pytest.approx(7.0),
    ("fig10", "mul total"): pytest.approx(7.0),
    ("fig10", "local load core"): pytest.approx(1.8),
    ("fig10", "local load interconnect"): pytest.approx(4.5, abs=0.1),
    ("fig10", "local load banks"): pytest.approx(2.1),
    ("fig10", "local load total"): pytest.approx(8.4, abs=0.2),
    ("fig10", "remote load core"): pytest.approx(1.8),
    ("fig10", "remote load banks"): pytest.approx(2.1),
    ("fig10", "local-load/add"): pytest.approx(2.3, abs=0.3),
    ("physical", "tile utilisation"): pytest.approx(0.728),
    ("physical", "tile coverage of cluster"): pytest.approx(0.55),
    ("physical", "frequency, typical (MHz)"): pytest.approx(700, abs=25),
    ("physical", "frequency, worst (MHz)"): pytest.approx(490, abs=25),
    ("physical", "cluster path gates"): 36,
    ("physical", "cluster path buffers"): 27,
    ("physical", "tile path gates"): 53,
    ("physical", "wire fraction of cluster path"): pytest.approx(0.37, abs=0.05),
    ("power", "other tile logic (mW)"): None,
    ("power", "tiles fraction"): pytest.approx(0.86, abs=0.02),
}


def _raised(name, value):
    """(name, raised value) of each entry of a constant, zeros left out."""
    if isinstance(value, dict):
        return [
            (f"{name}[{key}]", {**value, key: entry * RAISE})
            for key, entry in value.items() if entry
        ]
    return [(name, value * RAISE)] if value else []


def perturbations():
    """(constant name, model inputs) per constant, that constant raised."""
    defaults = {
        "energy": EnergyParameters(),
        "area": AreaParameters(),
        "power": PowerParameters(),
        "timing": TimingParametersPhysical(),
        "TILE_CRITICAL_PATH": physical_timing.TILE_CRITICAL_PATH,
        "CLUSTER_CRITICAL_PATH": physical_timing.CLUSTER_CRITICAL_PATH,
    }
    for key, default in defaults.items():
        is_path = key.isupper()
        prefix = f"{default.name}." if is_path else ""
        for field in dataclasses.fields(default):
            value = getattr(default, field.name)
            if isinstance(value, str):
                continue
            for name, raised in _raised(field.name, value):
                replaced = dataclasses.replace(default, **{field.name: raised})
                yield prefix + name, (
                    {"path": (key, replaced)} if is_path else {key: replaced}
                )
    for name in [name for name in vars(FloorplanModel) if name.isupper()]:
        yield name, {"floorplan": (name, getattr(FloorplanModel, name) * RAISE)}


def printed(results):
    """{(report, name): (value, declared source)} of every printed number."""
    return {
        (report, name): (value, source)
        for report, result in results.items()
        for name, value, source in result.numbers()
    }


def evaluate(design, power_run, constants=None):
    """The printed numbers of the three reports on one input."""
    constants = constants or {}
    with pytest.MonkeyPatch.context() as patch:
        if "floorplan" in constants:
            patch.setattr(FloorplanModel, *constants["floorplan"])
        if "path" in constants:
            patch.setattr(physical_timing, *constants["path"])
        return printed({
            "fig10": Fig10Result(
                EnergyModel(design, constants.get("energy")).instruction_energies()
            ),
            "physical": evaluate_physical(
                design, constants.get("area"), constants.get("timing")
            ),
            "power": evaluate_power(
                *power_run, FREQUENCY_HZ, constants.get("energy"), constants.get("power")
            ),
        })


def _changed(base, other):
    """The numbers of ``other`` that differ from ``base``."""
    return {
        key for key, (value, _) in other.items()
        if not math.isclose(value, base[key][0], rel_tol=1e-9, abs_tol=1e-12)
    }


@pytest.fixture(scope="module")
def provenance():
    """The printed numbers, what moves each, and which depend on the input."""
    settings = ExperimentSettings()
    scaled = MemPoolCluster(settings.config("toph"))
    power_point = compute_power_point()
    default_run = (scaled, power_point.kernel)
    dct = DctKernel(
        MemPoolCluster(settings.config("toph")),
        blocks_per_core=settings.dct_blocks_per_core, seed=settings.seed,
    )
    design = MemPoolCluster(MemPoolConfig.full("toph"))
    numbers = evaluate(design, default_run)
    moved_by = {key: set() for key in numbers}
    constants = []
    for name, constants_raised in perturbations():
        constants.append(name)
        for key in _changed(numbers, evaluate(design, default_run, constants_raised)):
            moved_by[key].add(name)
    design_dependent = set()
    for other_design, run in (
        (MemPoolCluster(MemPoolConfig.full("top1")), default_run),
        (scaled, default_run),
        (design, (scaled, dct.run(verify=False))),
    ):
        design_dependent |= _changed(numbers, evaluate(other_design, run))
    assert len(set(constants)) == len(constants), "two constants share a name"
    return SimpleNamespace(
        numbers=numbers,
        moved_by=moved_by,
        calibrated={
            key: moved for key, moved in moved_by.items()
            if moved and key not in design_dependent
        },
        constants=constants,
        points={
            "fig10": Fig10Result(compute_fig10_point()),
            "physical": compute_physical_point(),
            "power": power_point,
        },
    )


def test_the_evaluated_numbers_are_the_points_numbers(provenance):
    assert printed(provenance.points) == provenance.numbers


def test_every_report_declares_the_computed_source(provenance):
    calibrated = provenance.calibrated
    wrong = {
        key: (sorted(source), sorted(calibrated.get(key, ())))
        for key, (_, source) in provenance.numbers.items()
        if set(source) != calibrated.get(key, set())
    }
    assert not wrong, f"declared vs computed source: {wrong}"


def test_every_constant_moves_a_printed_number(provenance):
    read = set().union(*provenance.moved_by.values())
    assert [name for name in provenance.constants if name not in read] == []


def test_every_calibrated_number_has_a_paper_row(provenance):
    assert set(provenance.calibrated) == set(PAPER)


@pytest.mark.parametrize(
    "key", [key for key, expected in PAPER.items() if expected is not None],
    ids=lambda key: f"{key[0]}:{key[1]}",
)
def test_calibrated_number_matches_the_paper(provenance, key):
    assert provenance.numbers[key][0] == PAPER[key]
