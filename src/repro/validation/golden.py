"""Golden-band statistical validation of simulator results.

The statistical half of the validation layer: a small committed corpus of
*golden cases* — representative (topology, workload, load) points, each
measured once per seed on the ``vector`` engine — pins the simulator's
latency/throughput behaviour in ``benchmarks/GOLDEN_validation.json``.
``repro.experiments validate`` re-measures every case, computes each
metric's relative deviation from its committed mean, attaches a bootstrap
confidence interval (:mod:`repro.validation.bootstrap`) to the fresh
measurement, and classifies the deviation into the severity bands of
:mod:`repro.validation.bands`.

Because every engine is deterministic for fixed seeds, an unmodified tree
reproduces its goldens *exactly* (deviation 0.0 → ``OK``); any non-OK row
is a real behavioural change, and the band — plus the confidence interval
around the new measurement — tells the reviewer whether it is noise-sized
drift or a broken mechanism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.cluster import MemPoolCluster
from repro.traffic.simulation import TrafficSimulation
from repro.topologies.registry import validate_topology
from repro.validation.bands import BandPolicy, Severity
from repro.validation.bootstrap import BootstrapSummary, bootstrap_mean
from repro.validation.fuzz import SCALES
from repro.workloads.registry import injector_entry, pattern_entry

#: Result metrics the validator pins for every golden case.
METRICS = ("average_latency", "throughput", "p95_latency")

#: Schema tag written into (and required from) golden files.
GOLDEN_SCHEMA = "repro.validation/golden-v1"

#: Default on-disk locations, next to the BENCH baselines.
GOLDEN_PATH = Path("benchmarks") / "GOLDEN_validation.json"
REPORT_PATH = Path("benchmarks") / "VALIDATION_report.json"


@dataclass(frozen=True)
class GoldenCase:
    """One committed validation point: a workload measured over many seeds.

    The statistical sibling of
    :class:`repro.validation.fuzz.FuzzCase`: instead of one seed compared
    across engines, one configuration is measured once per seed, and the
    per-seed metric samples feed the bootstrap.  Component parameters are
    stored as sorted ``(key, value)`` tuples (hashable, JSON-stable).
    """

    name: str
    topology: str
    pattern: str
    injector: str
    load: float
    seeds: tuple = tuple(range(8))
    warmup: int = 80
    measure: int = 240
    topology_params: tuple = ()
    pattern_params: tuple = ()
    injector_params: tuple = ()
    scale: str = "tiny"

    def __post_init__(self) -> None:
        for params_field in ("topology_params", "pattern_params", "injector_params"):
            raw = getattr(self, params_field)
            pairs = raw.items() if hasattr(raw, "items") else raw
            object.__setattr__(
                self,
                params_field,
                tuple(sorted((str(key), value) for key, value in pairs)),
            )
        object.__setattr__(self, "seeds", tuple(int(seed) for seed in self.seeds))
        if not self.seeds:
            raise ValueError(f"golden case {self.name!r} needs at least one seed")
        if self.scale not in SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r} in golden case {self.name!r}; "
                f"valid: {', '.join(sorted(SCALES))}"
            )
        validate_topology(self.topology, dict(self.topology_params))
        pattern_entry(self.pattern).validate(dict(self.pattern_params))
        injector_entry(self.injector).validate(dict(self.injector_params))

    def to_dict(self) -> dict:
        """JSON-serialisable form (round-trips via :meth:`from_dict`)."""
        return {
            "name": self.name,
            "topology": self.topology,
            "topology_params": dict(self.topology_params),
            "pattern": self.pattern,
            "pattern_params": dict(self.pattern_params),
            "injector": self.injector,
            "injector_params": dict(self.injector_params),
            "load": self.load,
            "seeds": list(self.seeds),
            "warmup": self.warmup,
            "measure": self.measure,
            "scale": self.scale,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GoldenCase":
        """Rebuild a :class:`GoldenCase` from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            topology=data["topology"],
            pattern=data["pattern"],
            injector=data["injector"],
            load=data["load"],
            seeds=tuple(data["seeds"]),
            warmup=data["warmup"],
            measure=data["measure"],
            topology_params=tuple(data.get("topology_params", {}).items()),
            pattern_params=tuple(data.get("pattern_params", {}).items()),
            injector_params=tuple(data.get("injector_params", {}).items()),
            scale=data.get("scale", "tiny"),
        )


#: The committed validation corpus: one case per structurally distinct
#: regime — the paper's hierarchical topology under uniform and local
#: traffic, a single shared butterfly near saturation, an adversarial
#: constant-offset pattern on a grid, and converging hotspot bursts on a
#: torus.  Small on purpose: each case re-measures in seconds, and the
#: fuzzer (not this corpus) owns configuration-space coverage.
DEFAULT_CASES = (
    GoldenCase(
        name="toph-uniform-poisson", topology="toph",
        pattern="uniform", injector="poisson", load=0.30,
    ),
    GoldenCase(
        name="top1-uniform-heavy", topology="top1",
        pattern="uniform", injector="poisson", load=0.50,
    ),
    GoldenCase(
        name="mesh-tornado-bernoulli", topology="mesh",
        topology_params=(("width", 2), ("height", 2)),
        pattern="tornado", injector="bernoulli", load=0.40,
    ),
    GoldenCase(
        name="torus-hotspot-bursty", topology="torus",
        topology_params=(("width", 2), ("height", 2)),
        pattern="hotspot",
        pattern_params=(("p_hot", 0.7), ("num_hotspots", 2)),
        injector="bursty",
        injector_params=(("burst_len", 4.0), ("burst_rate", 0.8)),
        load=0.35,
    ),
    GoldenCase(
        name="toph-local-biased", topology="toph",
        pattern="local_biased", pattern_params=(("p_local", 0.6),),
        injector="poisson", load=0.45,
    ),
)


def measure_case(case: GoldenCase) -> dict:
    """Measure one golden case: seeds in, bootstrap summaries out.

    Runs one independent ``vector``-engine simulation per seed (the
    configuration's compiled network is shared per process, so each extra
    seed costs a run, not a compile), then bootstraps each metric's
    per-seed sample.  Returns ``{metric: BootstrapSummary}`` for
    :data:`METRICS`.
    """
    config = SCALES[case.scale](case.topology, topology_params=case.topology_params)
    results = [
        TrafficSimulation(
            MemPoolCluster(config, engine="vector"),
            case.load,
            pattern=case.pattern,
            seed=seed,
            injector=case.injector,
            pattern_params=dict(case.pattern_params) or None,
            injector_params=dict(case.injector_params) or None,
        ).run(case.warmup, case.measure)
        for seed in case.seeds
    ]
    return {
        metric: bootstrap_mean([getattr(result, metric) for result in results])
        for metric in METRICS
    }


def write_goldens(
    path=GOLDEN_PATH, cases=None, policy: BandPolicy | None = None
) -> dict:
    """Measure ``cases`` and commit them as the golden file at ``path``.

    The written document embeds the band policy alongside the measured
    bootstrap summaries, so ``validate`` applies the same thresholds the
    goldens were committed under (CLI flags can still override them).
    Returns the written document.
    """
    policy = policy or BandPolicy()
    if cases is None:
        cases = DEFAULT_CASES
    document = {
        "schema": GOLDEN_SCHEMA,
        "policy": policy.to_dict(),
        "metrics": list(METRICS),
        "cases": [
            {"case": case.to_dict(),
             "golden": {metric: summary.to_dict()
                        for metric, summary in measure_case(case).items()}}
            for case in cases
        ],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def load_goldens(path=GOLDEN_PATH):
    """Load a golden file; returns ``(records, policy)``.

    Each record is a ``(GoldenCase, {metric: BootstrapSummary})`` pair.
    Raises ``ValueError`` for a missing file (pointing at the ``--update``
    workflow) or a schema mismatch.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(
            f"golden file {path} does not exist; commit one with "
            "'python -m repro.experiments validate --update' "
            f"(or 'make validate-update')"
        )
    document = json.loads(path.read_text())
    schema = document.get("schema")
    if schema != GOLDEN_SCHEMA:
        raise ValueError(
            f"golden file {path} has schema {schema!r}, expected "
            f"{GOLDEN_SCHEMA!r}; re-commit it with --update"
        )
    records = [
        (
            GoldenCase.from_dict(entry["case"]),
            {
                metric: BootstrapSummary(**summary)
                for metric, summary in entry["golden"].items()
            },
        )
        for entry in document["cases"]
    ]
    policy = BandPolicy.from_dict(document["policy"])
    return records, policy


# --------------------------------------------------------------------------- #
# Validation report
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ValidationRow:
    """One (case, metric) comparison between golden and fresh measurement."""

    case: str
    metric: str
    golden_mean: float
    measured: BootstrapSummary
    deviation: float
    severity: Severity
    action: str

    @property
    def golden_in_ci(self) -> bool:
        """Whether the golden mean lies inside the fresh measurement's CI."""
        return self.measured.ci_low <= self.golden_mean <= self.measured.ci_high

    def to_dict(self) -> dict:
        """JSON-serialisable form for the validation report artifact."""
        return {
            "case": self.case,
            "metric": self.metric,
            "golden_mean": self.golden_mean,
            "measured": self.measured.to_dict(),
            "deviation": self.deviation,
            "severity": self.severity.name.lower(),
            "action": self.action,
            "golden_in_ci": self.golden_in_ci,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Every row of one validation run plus its overall verdict."""

    rows: tuple
    policy: BandPolicy
    golden_path: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def worst(self) -> Severity:
        """The most severe band across all rows (``OK`` when empty)."""
        return max(
            (row.severity for row in self.rows), default=Severity.OK
        )

    @property
    def verdict(self) -> str:
        """Overall ``accept``/``warn``/``reject`` (worst row wins)."""
        return self.policy.action(self.worst)

    @property
    def exit_code(self) -> int:
        """Process exit code: 0 unless the verdict is ``reject``."""
        return 1 if self.verdict == "reject" else 0

    def report(self) -> str:
        """Human-readable fixed-width table plus the verdict line."""
        header = (
            f"{'case':<24} {'metric':<16} {'golden':>12} {'measured':>12} "
            f"{'dev%':>8} {'severity':<9} action"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.case:<24} {row.metric:<16} {row.golden_mean:>12.6f} "
                f"{row.measured.mean:>12.6f} {100.0 * row.deviation:>8.3f} "
                f"{row.severity.name:<9} {row.action}"
            )
        lines.append(
            f"verdict: {self.verdict} (worst severity: {self.worst.name}, "
            f"{len(self.rows)} rows, bands "
            f"{'/'.join(str(edge) for edge in self.policy.edges)})"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable form written to ``VALIDATION_report.json``."""
        return {
            "schema": "repro.validation/report-v1",
            "golden_path": self.golden_path,
            "policy": self.policy.to_dict(),
            "rows": [row.to_dict() for row in self.rows],
            "worst": self.worst.name.lower(),
            "verdict": self.verdict,
            "exit_code": self.exit_code,
        }


def relative_deviation(measured: float, golden: float) -> float:
    """``|measured - golden| / |golden|`` with an exact-zero golden guard.

    A zero golden with a zero measurement deviates 0.0; a zero golden with
    any non-zero measurement is infinitely deviant (always ``CRITICAL``).
    """
    if golden == 0.0:
        return 0.0 if measured == 0.0 else float("inf")
    return abs(measured - golden) / abs(golden)


def validate_goldens(
    path=GOLDEN_PATH, policy: BandPolicy | None = None
) -> ValidationReport:
    """Re-measure every golden case and classify the deviations.

    Parameters
    ----------
    path : path-like
        Golden file written by :func:`write_goldens`.
    policy : BandPolicy, optional
        Threshold override; defaults to the policy committed in the file.
    """
    records, file_policy = load_goldens(path)
    policy = policy or file_policy
    rows = []
    for case, golden in records:
        fresh = measure_case(case)
        for metric in METRICS:
            deviation = relative_deviation(fresh[metric].mean, golden[metric].mean)
            severity = policy.classify(deviation)
            rows.append(
                ValidationRow(
                    case=case.name,
                    metric=metric,
                    golden_mean=golden[metric].mean,
                    measured=fresh[metric],
                    deviation=deviation,
                    severity=severity,
                    action=policy.action(severity),
                )
            )
    return ValidationReport(rows=tuple(rows), policy=policy, golden_path=str(path))
