"""Property-based differential fuzzing of the two timing engines.

The enumerated cross-engine golden tests (``tests/test_engine_equivalence``)
pin a grid of known configurations; this module samples the *whole* configuration space — topology x topology
parameters x destination pattern x injection process x seed x measurement
window, filtered through the topology and workload registries' own
validators — and asserts that the ``legacy`` and ``vector`` engines
produce flit-for-flit identical logs on every sampled point.

Every failing sample is reported as a **replay spec**: a one-line
``name:k=v,...`` string (the topology-spec grammar extended with the
workload and window knobs) that reconstructs the exact failing
configuration via ``python -m repro.validation --replay '<spec>'`` — so a
CI fuzz failure is reproducible on any machine without Hypothesis's
example database.  Hypothesis still shrinks failures deterministically
first, so the emitted spec is the *minimal* failing configuration it
found.

The strategy space deliberately includes degree-skewed hotspot traffic
(:func:`degree_skewed_cases`): the mean-first-passage-time analysis on
scale-free networks (arxiv 0908.0976) shows heavy-tailed destination
popularity concentrates load on few nodes, which drives the arbitration
and elastic-buffer paths that uniform traffic rarely saturates — exactly
where engine implementations are most likely to disagree.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from repro.core.agents import Barrier, Compute, Load, Store, TraceAgent, Use
from repro.core.cluster import MemPoolCluster
from repro.core.config import ENGINES, MemPoolConfig, TimingParameters
from repro.core.system import MemPoolSystem
from repro.topologies.registry import (
    available_topologies,
    parse_scalar,
    topology_entry,
    validate_topology,
)
from repro.utils.validation import is_power_of
from repro.workloads.registry import (
    available_injectors,
    available_patterns,
    injector_entry,
    pattern_entry,
)

#: Scalar result fields compared across engines (the flit log is compared
#: separately and first — it implies most of these, but a field-level
#: mismatch message is far more readable than a log diff).
COMPARED_FIELDS = (
    "topology",
    "injected_load",
    "measured_cycles",
    "num_cores",
    "generated_requests",
    "injected_requests",
    "completed_requests",
    "average_latency",
    "p95_latency",
    "max_latency",
    "local_fraction",
)

#: Cluster scales a fuzz case may run at (kept small: the point of the
#: fuzzer is configuration coverage, not cluster size).
SCALES = {"tiny": MemPoolConfig.tiny, "scaled": MemPoolConfig.scaled}

#: Environment variable naming a file that every failing case's replay
#: spec is appended to (one per line) — CI uploads it as an artifact.
REPRODUCER_FILE_ENV = "FUZZ_REPRODUCER_FILE"

#: Keys of the replay-spec grammar that are not component parameters.
_RESERVED_KEYS = (
    "pattern", "injector", "seed", "load", "warmup", "measure", "scale",
)


@dataclass(frozen=True)
class FuzzCase:
    """One sampled point of the differential-fuzz configuration space.

    Component parameters are stored as sorted ``(key, value)`` tuples so
    cases are hashable and comparable (mirroring
    :attr:`repro.core.config.MemPoolConfig.topology_params`).
    """

    topology: str
    pattern: str
    injector: str
    seed: int
    load: float
    warmup: int
    measure: int
    topology_params: tuple = ()
    pattern_params: tuple = ()
    injector_params: tuple = ()
    scale: str = "tiny"

    def __post_init__(self) -> None:
        for name in ("topology_params", "pattern_params", "injector_params"):
            raw = getattr(self, name)
            pairs = raw.items() if hasattr(raw, "items") else raw
            object.__setattr__(
                self, name, tuple(sorted((str(key), value) for key, value in pairs))
            )
        if self.scale not in SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; valid: {', '.join(sorted(SCALES))}"
            )
        if self.warmup < 0 or self.measure < 1:
            raise ValueError(
                f"windows must satisfy warmup >= 0 and measure >= 1; got "
                f"warmup={self.warmup}, measure={self.measure}"
            )
        # Filter the case through the registries' own validators: a spec
        # (or a strategy bug) with an unknown name or bad parameter fails
        # here with the registry's message, before any engine runs.
        validate_topology(self.topology, dict(self.topology_params))
        pattern_entry(self.pattern).validate(dict(self.pattern_params))
        injector_entry(self.injector).validate(dict(self.injector_params))
        # Per-parameter validation above cannot see cross-parameter
        # structure (mesh width*height must tile num_tiles, butterfly
        # radix must divide the tile count, ...); building the topology
        # once surfaces those as a clean ValueError instead of a
        # traceback two engines deep into a replay.
        from repro.interconnect.topology import build_topology

        build_topology(self.config())

    # ------------------------------------------------------------------ #
    # Replay-spec round trip
    # ------------------------------------------------------------------ #

    def to_spec(self) -> str:
        """Serialise the case as a one-line ``name:k=v,...`` replay spec.

        The grammar is the topology CLI spec extended with the reserved
        keys ``pattern``/``injector``/``seed``/``load``/``warmup``/
        ``measure`` (and ``scale`` when not ``tiny``); component
        parameters ride along flat, routed back to their owner by
        :meth:`from_spec` via the registries' accepted-parameter names.
        """
        owners = {
            "topology": dict(self.topology_params),
            "pattern": dict(self.pattern_params),
            "injector": dict(self.injector_params),
        }
        seen: dict[str, str] = {}
        for owner, params in owners.items():
            for key in params:
                if key in _RESERVED_KEYS or key in seen:
                    clash = seen.get(key, "the spec grammar")
                    raise ValueError(
                        f"parameter {key!r} of the {owner} collides with "
                        f"{clash}; the flat replay-spec grammar cannot "
                        "express it"
                    )
                seen[key] = f"the {owner}"
        items = []
        for params in owners.values():
            items.extend(f"{key}={_format_scalar(value)}" for key, value in
                         sorted(params.items()))
        items.append(f"pattern={self.pattern}")
        items.append(f"injector={self.injector}")
        items.append(f"seed={self.seed}")
        items.append(f"load={_format_scalar(self.load)}")
        items.append(f"warmup={self.warmup}")
        items.append(f"measure={self.measure}")
        if self.scale != "tiny":
            items.append(f"scale={self.scale}")
        return f"{self.topology}:{','.join(items)}"

    @classmethod
    def from_spec(cls, spec: str) -> "FuzzCase":
        """Parse a replay spec back into a :class:`FuzzCase`.

        Inverse of :meth:`to_spec`; every error names the offending key
        and lists the valid choices (the registries' own messages are
        reused for component parameters).

        Examples
        --------
        >>> case = FuzzCase.from_spec(
        ...     "mesh:width=2,height=2,pattern=hotspot,p_hot=0.5,"
        ...     "injector=poisson,seed=3,load=0.25,warmup=20,measure=80")
        >>> case.topology, dict(case.pattern_params)
        ('mesh', {'p_hot': 0.5})
        >>> FuzzCase.from_spec(case.to_spec()) == case
        True
        """
        name, _, raw = spec.partition(":")
        name = name.strip()
        if not name:
            raise ValueError(
                f"replay spec {spec!r} is missing the topology name before "
                f"':'; available: {', '.join(available_topologies())}"
            )
        values: dict[str, object] = {}
        if raw.strip():
            for item in raw.split(","):
                key, separator, value = item.partition("=")
                key = key.strip()
                value = value.strip()
                if not key or not separator or not value:
                    missing = "key" if not key else "'='" if not separator else "value"
                    raise ValueError(
                        f"malformed parameter {item.strip()!r} in replay "
                        f"spec {spec!r} (missing the {missing}); expected "
                        "name:key=value,key=value"
                    )
                if key in values:
                    raise ValueError(
                        f"duplicate parameter {key!r} in replay spec {spec!r}"
                    )
                values[key] = parse_scalar(value)
        pattern = str(values.pop("pattern", "uniform"))
        injector = str(values.pop("injector", "poisson"))
        seed = values.pop("seed", 0)
        load = values.pop("load", 0.3)
        warmup = values.pop("warmup", 50)
        measure = values.pop("measure", 150)
        scale = str(values.pop("scale", "tiny"))
        owners = (
            ("topology", set(topology_entry(name).params)),
            ("pattern", set(pattern_entry(pattern).params)),
            ("injector", set(injector_entry(injector).params)),
        )
        routed: dict[str, dict] = {owner: {} for owner, _ in owners}
        for key, value in values.items():
            accepting = [owner for owner, accepted in owners if key in accepted]
            if not accepting:
                valid = sorted(set().union(*(accepted for _, accepted in owners)))
                raise ValueError(
                    f"unknown parameter {key!r} in replay spec {spec!r}; "
                    f"accepted for {name}/{pattern}/{injector}: "
                    f"{', '.join(valid) or 'none'} (reserved: "
                    f"{', '.join(_RESERVED_KEYS)})"
                )
            if len(accepting) > 1:
                raise ValueError(
                    f"ambiguous parameter {key!r} in replay spec {spec!r}: "
                    f"accepted by {' and '.join(accepting)}"
                )
            routed[accepting[0]][key] = value
        return cls(
            topology=name,
            pattern=pattern,
            injector=injector,
            seed=int(seed),
            load=float(load),
            warmup=int(warmup),
            measure=int(measure),
            topology_params=tuple(routed["topology"].items()),
            pattern_params=tuple(routed["pattern"].items()),
            injector_params=tuple(routed["injector"].items()),
            scale=scale,
        )

    def config(self) -> MemPoolConfig:
        """The cluster configuration this case runs on."""
        return SCALES[self.scale](
            self.topology, topology_params=self.topology_params
        )


def _format_scalar(value) -> str:
    """Format one spec value so :func:`parse_scalar` round-trips it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# --------------------------------------------------------------------------- #
# Differential execution
# --------------------------------------------------------------------------- #


class DivergenceError(AssertionError):
    """Two engines disagreed on a sampled configuration.

    Carries the failing :class:`FuzzCase` and its replay spec; the
    message embeds the exact ``python -m repro.validation --replay``
    command that reproduces the divergence.
    """

    def __init__(
        self, case: FuzzCase, engine_a: str, engine_b: str, detail: str
    ) -> None:
        self.case = case
        self.replay_spec = case.to_spec()
        self.engines = (engine_a, engine_b)
        super().__init__(
            f"cross-engine divergence: {engine_a} vs {engine_b}\n"
            f"{detail}\n"
            "reproduce with:\n"
            f"  python -m repro.validation --replay '{self.replay_spec}'"
        )


def run_case(case: FuzzCase, engine: str) -> tuple:
    """Run one fuzz case on one engine: two windows, flit logs attached.

    Returns the :class:`~repro.traffic.simulation.TrafficResult` of two
    back-to-back ``run(warmup, measure)`` windows on one fresh
    cluster/simulation pair — every engine sees identical RNG substreams
    because the workload components are rebuilt per run from the case's
    seed.  The second window starts on whatever the first left behind:
    the random streams where its draws ended, the source queues' backlog,
    the flits still in the network — the hand-over a driver that draws a
    window at a time must get right.
    """
    from repro.traffic.simulation import TrafficSimulation

    cluster = MemPoolCluster(case.config(), engine=engine)
    simulation = TrafficSimulation(
        cluster,
        case.load,
        pattern=case.pattern,
        seed=case.seed,
        injector=case.injector,
        pattern_params=dict(case.pattern_params) or None,
        injector_params=dict(case.injector_params) or None,
    )
    return tuple(
        simulation.run(case.warmup, case.measure, record_flits=True)
        for _ in range(2)
    )


def _describe_mismatch(name_a: str, result_a, name_b: str, result_b) -> str | None:
    """First observable difference between two results, or None."""
    log_a, log_b = result_a.flit_log, result_b.flit_log
    if log_a != log_b:
        if len(log_a) != len(log_b):
            return (
                f"  flit-log lengths differ: {name_a} completed "
                f"{len(log_a)} flits, {name_b} completed {len(log_b)}"
            )
        for index, (entry_a, entry_b) in enumerate(zip(log_a, log_b)):
            if entry_a != entry_b:
                return (
                    f"  first differing flit-log entry at index {index} "
                    "(flit_id, core, bank, created, injected, completed):\n"
                    f"    {name_a}: {entry_a}\n"
                    f"    {name_b}: {entry_b}"
                )
    for field_name in COMPARED_FIELDS:
        value_a = getattr(result_a, field_name)
        value_b = getattr(result_b, field_name)
        if value_a != value_b:
            return (
                f"  result field {field_name!r} differs: "
                f"{name_a}={value_a!r}, {name_b}={value_b!r}"
            )
    return None


def check_case(case: FuzzCase, engines=ENGINES) -> dict:
    """Run ``case`` on every engine and assert their results agree.

    Both windows of :func:`run_case` are compared, flit log and result
    fields.  Returns the per-engine window pairs on success.  On
    divergence, appends the replay spec to ``$FUZZ_REPRODUCER_FILE``
    (when set — CI uploads that file as an artifact) and raises
    :class:`DivergenceError` whose message carries the ``--replay``
    reproducer command.
    """
    results = {engine: run_case(case, engine) for engine in engines}
    reference = engines[0]
    for other in engines[1:]:
        for window, (expected, actual) in enumerate(
            zip(results[reference], results[other]), start=1
        ):
            detail = _describe_mismatch(reference, expected, other, actual)
            if detail is not None:
                _record_reproducer(case)
                raise DivergenceError(
                    case, reference, other, f"  in window {window} of 2:\n{detail}"
                )
    return results


def _record_reproducer(case: FuzzCase) -> None:
    """Append the case's replay spec to the CI reproducer artifact file."""
    path = os.environ.get(REPRODUCER_FILE_ENV)
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(case.to_spec() + "\n")
    except OSError:  # pragma: no cover - artifact logging must never mask
        pass  # the divergence itself


# --------------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------------- #


def topology_selections(scale: str = "tiny") -> list:
    """Every valid ``(topology, params)`` selection at ``scale``.

    Enumerated (not sampled) so the strategy is valid by construction:
    grid dimensions must tile the cluster, butterfly/hierarchical radices
    must divide the tile count into whole switch layers — the same
    structural constraints the families enforce at build time.
    """
    base = SCALES[scale]()
    num_tiles = base.num_tiles
    cores_per_tile = base.cores_per_tile
    selections: list = [
        ("top1", {}), ("top4", {}), ("toph", {}), ("topx", {}),
        ("ring", {}), ("fully_connected", {}),
    ]
    grids = [
        (width, num_tiles // width)
        for width in range(1, num_tiles + 1)
        if num_tiles % width == 0
    ]
    for width, height in grids:
        selections.append(("mesh", {"width": width, "height": height}))
        selections.append(("torus", {"width": width, "height": height}))
    radices = [r for r in (2, 4) if num_tiles == 1 or is_power_of(num_tiles, r)]
    for radix in radices:
        for ports in range(1, cores_per_tile + 1):
            selections.append(("butterfly", {"radix": radix, "ports": ports}))
    divisors = [g for g in range(1, num_tiles + 1) if num_tiles % g == 0]
    for groups in divisors:
        tiles_per_group = num_tiles // groups
        for radix in (2, 4):
            if tiles_per_group == 1 and radix != 2:
                continue  # parameter-equivalent to radix=2: skip duplicates
            if tiles_per_group > 1 and not is_power_of(tiles_per_group, radix):
                continue
            selections.append(("hierarchical", {"groups": groups, "radix": radix}))
    for name, params in selections:
        validate_topology(name, params)
    return selections


def fuzzable_patterns() -> list[str]:
    """Catalogue patterns the fuzzer can instantiate from scratch.

    Entries with required parameters (the trace replay components, which
    need an existing trace file) cannot be sampled out of thin air; they
    have their own dedicated differential tests (``tests/test_trace``).
    """
    return [
        name for name in available_patterns() if not pattern_entry(name).required
    ]


def fuzzable_injectors() -> list[str]:
    """Catalogue injectors the fuzzer can instantiate from scratch."""
    return [
        name for name in available_injectors()
        if not injector_entry(name).required
    ]


def _pattern_strategy(st):
    """Strategy over ``(pattern, params)`` pairs covering the catalogue."""
    def params_for(name):
        if name == "local_biased":
            return st.fixed_dictionaries({"p_local": st.floats(0.0, 1.0)})
        if name == "hotspot":
            return st.fixed_dictionaries(
                {"p_hot": st.floats(0.0, 1.0), "num_hotspots": st.integers(1, 4)}
            )
        if name == "scale_free":
            return st.fixed_dictionaries({"exponent": st.floats(0.5, 3.5)})
        if name == "degree_skewed":
            return st.fixed_dictionaries(
                {"m": st.integers(1, 4), "beta": st.floats(0.0, 2.0)}
            )
        return st.just({})

    return st.sampled_from(fuzzable_patterns()).flatmap(
        lambda name: st.tuples(st.just(name), params_for(name))
    )


def fuzz_cases(scale: str = "tiny"):
    """Hypothesis strategy over the full differential configuration space.

    Samples (topology x topology_params x pattern x pattern_params x
    injector x injector_params x seed x load x window) with every
    component drawn from — and validated against — the production
    registries, so the fuzzer explores exactly the space users can
    configure.  Shrinking is Hypothesis's usual deterministic shrink
    towards the first/smallest choices.
    """
    import hypothesis.strategies as st

    @st.composite
    def cases(draw):
        topology, topology_params = draw(
            st.sampled_from(topology_selections(scale))
        )
        pattern, pattern_params = draw(_pattern_strategy(st))
        injector = draw(st.sampled_from(fuzzable_injectors()))
        load = draw(st.floats(0.05, 0.85))
        injector_params = {}
        if injector == "bursty":
            injector_params = {
                "burst_len": draw(st.floats(1.0, 8.0)),
                # The bursty ON state must offer at least the mean load.
                "burst_rate": draw(st.floats(min(load, 1.0), 1.0)),
            }
        return FuzzCase(
            topology=topology,
            pattern=pattern,
            injector=injector,
            seed=draw(st.integers(0, 9999)),
            load=load,
            warmup=draw(st.integers(10, 60)),
            measure=draw(st.integers(60, 240)),
            topology_params=tuple(topology_params.items()),
            pattern_params=tuple(pattern_params.items()),
            injector_params=tuple(injector_params.items()),
            scale=scale,
        )

    return cases()


def degree_skewed_cases(scale: str = "tiny"):
    """Strategy concentrating traffic on few hot banks (scale-free regime).

    The mean-first-passage-time analysis on scale-free networks
    (arxiv 0908.0976, PAPERS.md) shows degree-skewed destination
    popularity concentrates load on a handful of high-degree nodes.  The
    hotspot pattern with high ``p_hot`` and 1-2 hot banks is that regime
    on a MemPool cluster: most requests converge on one or two banks, so
    the same arbiters grant (and the same elastic buffers back-pressure)
    every cycle — arbitration paths uniform traffic never holds saturated
    long enough to stress, and historically where engine disagreements
    hide.
    """
    import hypothesis.strategies as st

    @st.composite
    def cases(draw):
        topology, topology_params = draw(
            st.sampled_from(topology_selections(scale))
        )
        return FuzzCase(
            topology=topology,
            pattern="hotspot",
            injector=draw(st.sampled_from(fuzzable_injectors())),
            seed=draw(st.integers(0, 9999)),
            load=draw(st.floats(0.3, 0.85)),
            warmup=draw(st.integers(10, 40)),
            measure=draw(st.integers(60, 200)),
            topology_params=tuple(topology_params.items()),
            pattern_params=(
                ("num_hotspots", draw(st.integers(1, 2))),
                ("p_hot", draw(st.floats(0.6, 0.98))),
            ),
            scale=scale,
        )

    return cases()


# --------------------------------------------------------------------------- #
# The execution-driven system
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SystemCase:
    """One sampled :class:`~repro.core.system.MemPoolSystem` run.

    A tiny cluster plus one seeded random operation stream per active
    core: loads (tagged, re-tagged and never used), uses, stores, compute
    gaps including zero-cycle ones, and barrier episodes that only a
    subset of the active cores takes part in.
    """

    topology: str
    seed: int
    topology_params: tuple = ()
    scrambling: bool = True
    rob_depth: int = 8

    def config(self) -> MemPoolConfig:
        """The cluster configuration this case runs on."""
        return MemPoolConfig.tiny(
            self.topology,
            topology_params=self.topology_params,
            scrambling_enabled=self.scrambling,
            timing=TimingParameters(max_outstanding_loads=self.rob_depth),
        )

    def programs(self) -> tuple[dict[int, list], set[int], int]:
        """``(operations by core, barrier participants, barrier episodes)``."""
        rng = random.Random(self.seed)
        config = self.config()
        active = rng.sample(range(config.num_cores), rng.randint(1, config.num_cores))
        participants = set(rng.sample(active, rng.randint(0, len(active))))
        episodes = rng.randint(1, 3) if participants else 0
        programs = {}
        for core in active:
            operations: list = []
            tags: set[int] = set()
            for phase in range(episodes + 1):
                for _ in range(rng.randint(0, 12)):
                    kind = rng.random()
                    address = 4 * rng.randrange(config.l1_bytes // 4)
                    if kind < 0.35:
                        tag = rng.choice((None, 0, 1, 2, 3, 4))
                        if tag is not None:
                            tags.add(tag)
                        operations.append(Load(address, tag=tag))
                    elif kind < 0.55 and tags:
                        operations.append(Use(rng.choice(sorted(tags))))
                    elif kind < 0.75:
                        operations.append(Store(address))
                    else:
                        cycles = rng.randint(0, 6)
                        operations.append(Compute(cycles, muls=rng.randint(0, cycles)))
                if core in participants and phase < episodes:
                    operations.append(Barrier(phase))
            programs[core] = operations
        return programs, participants, episodes


def run_system_case(case: SystemCase, engine: str):
    """Run one system case on one engine; returns its ``SystemResult``."""
    programs, participants, _ = case.programs()
    agents = {core: TraceAgent(operations) for core, operations in programs.items()}
    cluster = MemPoolCluster(case.config(), engine=engine)
    system = MemPoolSystem(cluster, agents, barrier_participants=participants)
    return system.run(max_cycles=100_000)


def check_system_case(case: SystemCase, engines=ENGINES) -> dict:
    """Run ``case`` on every engine; assert equal results and exact accounting.

    Beyond cross-engine equality of the whole ``SystemResult``, every core
    must satisfy ``finish_cycle == CoreStats.accounted_cycles(barriers
    issued)`` — no engine can pass that by agreeing with another.
    """
    results = {engine: run_system_case(case, engine) for engine in engines}
    reference = results[engines[0]]
    _, participants, episodes = case.programs()
    agree = all(results[engine] == reference for engine in engines[1:])
    accounted = all(
        stats.finish_cycle
        == stats.accounted_cycles(episodes if core in participants else 0)
        for core, stats in enumerate(reference.core_stats)
    )
    if not (agree and accounted):
        raise AssertionError(
            f"system case failed (engines agree: {agree}, every cycle "
            f"accounted for: {accounted}); reproduce with:\n"
            f"  repro.validation.fuzz.check_system_case({case!r})"
        )
    return results


def system_cases():
    """Hypothesis strategy over small clusters x seeded random programs."""
    import hypothesis.strategies as st

    return st.builds(
        lambda selection, seed, scrambling, rob_depth: SystemCase(
            selection[0], seed, tuple(selection[1].items()), scrambling, rob_depth
        ),
        st.sampled_from(topology_selections("tiny")),
        st.integers(0, 9999),
        st.booleans(),
        st.sampled_from((1, 2, 8)),
    )


def run_fuzz(
    budget: int,
    engines=ENGINES,
    scale: str = "tiny",
    strategy=None,
) -> int:
    """Run a bounded differential-fuzz campaign; returns cases checked.

    Drives :func:`check_case` under Hypothesis with ``max_examples=
    budget``.  On divergence Hypothesis shrinks to a minimal failing case
    deterministically, then the :class:`DivergenceError` (with its
    ``--replay`` reproducer) propagates to the caller.  The pytest
    entry point (``tests/test_fuzz_differential.py``) is the CI harness —
    this function backs ``python -m repro.validation fuzz`` for local
    exploration with an arbitrary budget.
    """
    from hypothesis import HealthCheck, given, settings

    if budget < 1:
        raise ValueError(f"fuzz budget must be positive, got {budget}")
    checked = 0

    @settings(
        max_examples=budget,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(strategy if strategy is not None else fuzz_cases(scale))
    def probe(case: FuzzCase) -> None:
        nonlocal checked
        checked += 1
        check_case(case, engines=engines)

    probe()
    return checked
