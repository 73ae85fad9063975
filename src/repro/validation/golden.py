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

from repro.validation.bands import BandPolicy, Severity
from repro.validation.bootstrap import BootstrapSummary, bootstrap_mean
from repro.validation.fuzz import FuzzCase

#: Result metrics the validator pins for every golden case.
METRICS = ("average_latency", "throughput", "p95_latency")

#: Schema tag written into (and required from) golden files.
GOLDEN_SCHEMA = "repro.validation/golden-v1"

#: Default on-disk locations, next to the BENCH baselines.
GOLDEN_PATH = Path("benchmarks") / "GOLDEN_validation.json"
REPORT_PATH = Path("benchmarks") / "VALIDATION_report.json"


@dataclass(frozen=True)
class GoldenCase:
    """One committed validation point: a traffic case measured over many seeds.

    The statistical sibling of the differential fuzzer: instead of one
    seed compared across engines, the :class:`~repro.validation.fuzz.FuzzCase`
    ``traffic`` is measured once per seed of ``seeds`` (its own ``seed``
    is not used), and the per-seed metric samples feed the bootstrap.
    """

    name: str
    traffic: FuzzCase
    seeds: tuple = tuple(range(8))

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.seeds:
            raise ValueError(f"golden case {self.name!r} needs at least one seed")

    def to_dict(self) -> dict:
        """The golden-v1 JSON form (round-trips via :meth:`from_dict`)."""
        traffic = self.traffic
        return {
            "name": self.name,
            "topology": traffic.topology,
            "topology_params": dict(traffic.topology_params),
            "pattern": traffic.pattern,
            "pattern_params": dict(traffic.pattern_params),
            "injector": traffic.injector,
            "injector_params": dict(traffic.injector_params),
            "load": traffic.load,
            "seeds": list(self.seeds),
            "warmup": traffic.warmup,
            "measure": traffic.measure,
            "scale": traffic.scale,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GoldenCase":
        """Rebuild a :class:`GoldenCase` from :meth:`to_dict` output."""
        traffic = FuzzCase(
            topology=data["topology"],
            pattern=data["pattern"],
            injector=data["injector"],
            load=data["load"],
            warmup=data["warmup"],
            measure=data["measure"],
            topology_params=data.get("topology_params", {}),
            pattern_params=data.get("pattern_params", {}),
            injector_params=data.get("injector_params", {}),
            scale=data.get("scale", "tiny"),
        )
        return cls(data["name"], traffic, data["seeds"])


def _traffic(topology: str, pattern: str, injector: str, load: float, **params) -> FuzzCase:
    """A :data:`DEFAULT_CASES` traffic case: its window is 80 + 240 cycles."""
    return FuzzCase(
        topology, pattern, injector, load=load, warmup=80, measure=240, **params
    )


#: The committed validation corpus: one case per structurally distinct
#: regime — the paper's hierarchical topology under uniform and local
#: traffic, a single shared butterfly near saturation, an adversarial
#: constant-offset pattern on a grid, and converging hotspot bursts on a
#: torus.  Small on purpose: each case re-measures in seconds, and the
#: fuzzer (not this corpus) owns configuration-space coverage.
DEFAULT_CASES = (
    GoldenCase("toph-uniform-poisson", _traffic("toph", "uniform", "poisson", 0.30)),
    GoldenCase("top1-uniform-heavy", _traffic("top1", "uniform", "poisson", 0.50)),
    GoldenCase(
        "mesh-tornado-bernoulli",
        _traffic(
            "mesh", "tornado", "bernoulli", 0.40,
            topology_params=(("width", 2), ("height", 2)),
        ),
    ),
    GoldenCase(
        "torus-hotspot-bursty",
        _traffic(
            "torus", "hotspot", "bursty", 0.35,
            topology_params=(("width", 2), ("height", 2)),
            pattern_params=(("p_hot", 0.7), ("num_hotspots", 2)),
            injector_params=(("burst_len", 4.0), ("burst_rate", 0.8)),
        ),
    ),
    GoldenCase(
        "toph-local-biased",
        _traffic(
            "toph", "local_biased", "poisson", 0.45,
            pattern_params=(("p_local", 0.6),),
        ),
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
    traffic = case.traffic
    results = [
        traffic.simulation("vector", seed).run(traffic.warmup, traffic.measure)
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
    goldens were committed under.  Without a ``policy``, the one already
    committed at ``path`` is kept (the default one for a new file).
    Returns the written document.
    """
    if policy is None:
        try:
            policy = load_goldens(path)[1]
        except ValueError:
            policy = BandPolicy()
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


def validate_goldens(path=GOLDEN_PATH) -> ValidationReport:
    """Re-measure every golden case of ``path`` and classify the deviations.

    The bands are the policy committed in the file (see
    :func:`write_goldens`).
    """
    records, policy = load_goldens(path)
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
