"""Trace record/replay, graph patterns and the energy attach.

The contract under test is the tentpole of the trace subsystem: a trace
recorded from *any* engine's flit log replays flit-for-flit identically
on every engine (replay draws no random numbers), malformed files fail
with messages that name the defect, the trace's content sha256 makes
sweep cache keys content-addressed, and the graph-derived patterns obey
the same scalar/batched draw-order contract as the rest of the
catalogue.
"""

from __future__ import annotations

import gzip
import hashlib
import json

import numpy as np
import pytest

from repro.catalogue import INJECTORS, PATTERNS
from repro.core.cluster import MemPoolCluster
from repro.core.config import ENGINES, MemPoolConfig
from repro.workloads import (
    ScaleFreePattern,
    TraceFormatError,
    read_trace_header,
    record_trace,
    records_from_flit_log,
    trace_sha,
    write_trace,
)


def _run(cluster, load=0.3, pattern="uniform", injector="poisson",
         pattern_params=None, injector_params=None, seed=3,
         warmup=10, measure=40):
    simulation = cluster.traffic_simulation(
        load, pattern=pattern, injector=injector, seed=seed,
        pattern_params=pattern_params, injector_params=injector_params,
    )
    return simulation.run(
        warmup_cycles=warmup, measure_cycles=measure, record_flits=True
    )


def _record(tmp_path, engine="vector", name="t.trace.gz", seed=3):
    config = MemPoolConfig.tiny("toph")
    cluster = MemPoolCluster(config, engine=engine)
    result = _run(cluster, seed=seed)
    path = str(tmp_path / name)
    sha = record_trace(result, config, path)
    return config, path, sha, result


def _replay(config, path, sha, engine, extra_cycles=256):
    cluster = MemPoolCluster(config, engine=engine)
    header = read_trace_header(path)
    replay = {"path": path, "sha": sha}
    return _run(
        cluster,
        pattern="trace", pattern_params=replay,
        injector="trace", injector_params=replay,
        warmup=0, measure=int(header["cycles"]) + extra_cycles,
    )


class TestRecordReplayIdentity:
    """A recorded trace replays identically on both engines."""

    def test_vector_recording_replays_identically_everywhere(self, tmp_path):
        config, path, sha, recording = _record(tmp_path, engine="vector")
        logs = {
            engine: _replay(config, path, sha, engine).flit_log
            for engine in ENGINES
        }
        reference = logs["legacy"]
        assert len(reference) == len(recording.flit_log)
        for engine in ENGINES[1:]:
            assert logs[engine] == reference, engine

    def test_replay_requests_match_the_recording(self, tmp_path):
        config, path, sha, recording = _record(tmp_path)
        replayed = _replay(config, path, sha, "legacy")
        # Same generation schedule: (created, core, bank) triples equal.
        assert records_from_flit_log(replayed.flit_log) == (
            records_from_flit_log(recording.flit_log)
        )

    def test_recorded_bytes_are_engine_independent(self, tmp_path):
        _, _, sha_vector, _ = _record(tmp_path, engine="vector", name="a.gz")
        _, _, sha_legacy, _ = _record(tmp_path, engine="legacy", name="b.gz")
        assert sha_vector == sha_legacy

    def test_records_from_flit_log_is_generation_ordered(self, tmp_path):
        _, _, _, recording = _record(tmp_path)
        records = records_from_flit_log(recording.flit_log)
        assert records == sorted(records, key=lambda r: (r[0], r[1]))


class TestTraceFormatErrors:
    """Malformed or stale files fail with messages naming the defect."""

    def test_not_gzip(self, tmp_path):
        path = tmp_path / "bad.trace.gz"
        path.write_text("plain text, not gzip")
        with pytest.raises(TraceFormatError, match="not a readable gzip"):
            read_trace_header(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="does not exist"):
            read_trace_header(str(tmp_path / "nope.trace.gz"))

    def test_wrong_format_field(self, tmp_path):
        path = tmp_path / "alien.trace.gz"
        with gzip.open(path, "wt") as stream:
            stream.write(json.dumps({"format": "alien", "version": 1}) + "\n")
        with pytest.raises(TraceFormatError, match="not a 'mempool-trace'"):
            read_trace_header(str(path))

    def test_future_version(self, tmp_path):
        config, path, _, _ = _record(tmp_path)
        lines = gzip.open(path, "rt").read().split("\n")
        header = json.loads(lines[0])
        header["version"] = 99
        lines[0] = json.dumps(header)
        with gzip.open(path, "wt") as stream:
            stream.write("\n".join(lines))
        with pytest.raises(TraceFormatError, match="schema version 99"):
            read_trace_header(str(path))

    def test_truncated_payload(self, tmp_path):
        config, path, sha, _ = _record(tmp_path)
        lines = gzip.open(path, "rt").read().rstrip("\n").split("\n")
        with gzip.open(path, "wt") as stream:
            stream.write("\n".join(lines[:-3]) + "\n")
        with pytest.raises(TraceFormatError, match="header promises"):
            PATTERNS.lookup("trace").build(config, path=str(path))

    def test_modified_payload_fails_verification(self, tmp_path):
        config, path, sha, _ = _record(tmp_path)
        lines = gzip.open(path, "rt").read().rstrip("\n").split("\n")
        lines[1] = "[0, 0, 0]"
        with gzip.open(path, "wt") as stream:
            stream.write("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="failed content verification"):
            PATTERNS.lookup("trace").build(config, path=str(path))

    def test_non_integer_record(self, tmp_path):
        path = str(tmp_path / "r.trace.gz")
        sha = write_trace(path, [(0, 0, 0)], num_cores=16, num_banks=64)
        lines = gzip.open(path, "rt").read().rstrip("\n").split("\n")
        bad = json.dumps([0, 0, 0.5])
        header = json.loads(lines[0])
        header["sha256"] = hashlib.sha256(bad.encode()).hexdigest()
        with gzip.open(path, "wt") as stream:
            stream.write(json.dumps(header) + "\n" + bad + "\n")
        with pytest.raises(TraceFormatError, match="record 0 must be a"):
            PATTERNS.lookup("trace").build(MemPoolConfig.tiny("toph"), path=path)

    def test_sha_pin_detects_rerecorded_file(self, tmp_path):
        config, path, sha, _ = _record(tmp_path, seed=3)
        other_config = MemPoolConfig.tiny("toph")
        other_cluster = MemPoolCluster(other_config, engine="vector")
        record_trace(_run(other_cluster, seed=4), other_config, path, force=True)
        with pytest.raises(ValueError, match="the file changed since"):
            PATTERNS.lookup("trace").build(config, path=path, sha=sha)

    def test_cluster_size_mismatch(self, tmp_path):
        config, path, sha, _ = _record(tmp_path)
        scaled = MemPoolConfig.scaled("toph")
        with pytest.raises(ValueError, match="sizes may not"):
            PATTERNS.lookup("trace").build(scaled, path=path)

    def test_exhaustion_names_the_pairing_contract(self, tmp_path):
        config, path, sha, _ = _record(tmp_path)
        pattern = PATTERNS.lookup("trace").build(config, path=path)
        with pytest.raises(ValueError, match="pair pattern='trace'"):
            while True:
                pattern.destination(0)

    def test_overwrite_refused_without_force(self, tmp_path):
        path = str(tmp_path / "w.trace.gz")
        write_trace(path, [(0, 1, 2)], num_cores=16, num_banks=64)
        with pytest.raises(FileExistsError, match="force"):
            write_trace(path, [(0, 1, 2)], num_cores=16, num_banks=64)
        # force=True overwrites and the sha round-trips.
        sha = write_trace(
            path, [(0, 1, 2)], num_cores=16, num_banks=64, force=True
        )
        assert trace_sha(path) == sha


class TestCatalogueIntegration:
    """The replay components are catalogue citizens with required params."""

    def test_trace_pattern_requires_path(self):
        entry = PATTERNS.lookup("trace")
        assert entry.required == ("path",)
        with pytest.raises(ValueError, match="requires parameter"):
            entry.validate({})
        assert INJECTORS.lookup("trace").required == ("path",)

    def test_build_pattern_without_path_raises(self):
        with pytest.raises(ValueError, match="requires parameter"):
            PATTERNS.lookup("trace").build(MemPoolConfig.tiny("toph"))

    def test_catalogue_sweeps_skip_required_entries(self):
        from repro.evaluation.workloads import workloads_sweep

        grid = workloads_sweep().grid
        assert "trace" not in grid["pattern"]
        assert "trace" not in grid["injector"]
        assert "scale_free" in grid["pattern"]

    def test_fuzz_strategies_skip_required_entries(self):
        # The fuzzer samples exactly the tables' defaults().
        assert "trace" not in PATTERNS.defaults()
        assert "trace" not in INJECTORS.defaults()
        assert "degree_skewed" in PATTERNS.defaults()


class TestCacheKeys:
    """Sweep cache keys are content-addressed by the trace sha."""

    def test_different_traces_produce_different_spec_keys(self, tmp_path):
        from repro.experiments.spec import ExperimentSpec

        def spec_for(path, sha):
            return ExperimentSpec(
                runner="repro.evaluation.points:simulate_trace_point",
                params={"topology": "mesh", "trace": "same-label",
                        "trace_sha": sha, "load": 0.25},
            )

        _, path_a, sha_a, _ = _record(tmp_path, name="a.trace.gz", seed=1)
        _, path_b, sha_b, _ = _record(tmp_path, name="b.trace.gz", seed=2)
        assert sha_a != sha_b
        # Even with an identical path label, the sha keeps keys distinct.
        assert spec_for(path_a, sha_a).key != spec_for(path_b, sha_b).key

    def test_traces_sweep_embeds_the_header_sha(self, tmp_path):
        from repro.evaluation.settings import ExperimentSettings
        from repro.evaluation.traces import traces_sweep

        _, path, sha, _ = _record(tmp_path)
        # tiny traces cannot replay on the scaled default cluster, but the
        # sweep expansion itself only reads the header.
        sweep = traces_sweep(
            ExperimentSettings(trace=path), topologies=("mesh",)
        )
        (spec,) = sweep.specs()
        assert spec.params["trace_sha"] == sha
        assert spec.params["energy"] is True
        assert spec.params["warmup_cycles"] == 0


class TestGraphPatterns:
    """scale_free / degree_skewed: cross-engine + draw-order contracts."""

    @pytest.mark.parametrize("exponent", [0.0, 0.8, 2.0, 3.5])
    def test_scale_free_cross_engine_equivalence(self, exponent):
        config = MemPoolConfig.tiny("toph")
        logs = {}
        for engine in ENGINES:
            cluster = MemPoolCluster(config, engine=engine)
            logs[engine] = _run(
                cluster, pattern="scale_free",
                pattern_params={"exponent": exponent},
            ).flit_log
        for engine in ENGINES[1:]:
            assert logs[engine] == logs["legacy"], (engine, exponent)

    @pytest.mark.parametrize("params", [{"m": 1, "beta": 0.5},
                                        {"m": 3, "beta": 1.5}])
    def test_degree_skewed_cross_engine_equivalence(self, params):
        config = MemPoolConfig.tiny("toph")
        logs = {}
        for engine in ("legacy", "vector"):
            cluster = MemPoolCluster(config, engine=engine)
            logs[engine] = _run(
                cluster, pattern="degree_skewed", pattern_params=params
            ).flit_log
        assert logs["vector"] == logs["legacy"]

    def test_scale_free_batched_matches_scalar_draws(self):
        config = MemPoolConfig.tiny("toph")
        scalar = ScaleFreePattern(config, exponent=2.0, seed=7)
        batched = ScaleFreePattern(config, exponent=2.0, seed=7)
        cores = np.arange(config.num_cores)
        for _ in range(5):
            expected = [scalar.destination(int(core)) for core in cores]
            assert batched.destinations(cores).tolist() == expected

    def test_scale_free_exponent_skews_popularity(self):
        config = MemPoolConfig.tiny("toph")
        flat = ScaleFreePattern(config, exponent=0.0, seed=0)
        skewed = ScaleFreePattern(config, exponent=3.0, seed=0)

        def top_share(pattern):
            counts = np.zeros(config.num_banks)
            for draw in range(400):
                counts[pattern.destination(draw % config.num_cores)] += 1
            return np.sort(counts)[-4:].sum() / counts.sum()

        assert top_share(skewed) > top_share(flat) + 0.2

    def test_degree_skewed_graph_is_seed_deterministic(self):
        config = MemPoolConfig.tiny("toph")
        first = PATTERNS.lookup("degree_skewed").build(config, seed=5, m=2, beta=1.0)
        second = PATTERNS.lookup("degree_skewed").build(config, seed=5, m=2, beta=1.0)
        draws_a = [first.destination(core % 16) for core in range(64)]
        draws_b = [second.destination(core % 16) for core in range(64)]
        assert draws_a == draws_b


class TestEnergyAttach:
    """The wire-energy summary is deterministic and engine-independent."""

    def test_energy_attaches_and_is_consistent(self):
        from repro.energy.traffic import traffic_energy

        config = MemPoolConfig.tiny("toph")
        cluster = MemPoolCluster(config, engine="legacy")
        result = _run(cluster)
        summary = traffic_energy(cluster, result)
        assert summary.completed_requests == result.completed_requests
        assert summary.total_pj > 0
        assert summary.per_request_pj == pytest.approx(
            summary.total_pj / summary.completed_requests
        )

    def test_energy_is_engine_independent(self):
        from repro.energy.traffic import traffic_energy

        config = MemPoolConfig.tiny("toph")
        totals = set()
        for engine in ENGINES:
            cluster = MemPoolCluster(config, engine=engine)
            totals.add(traffic_energy(cluster, _run(cluster)).total_pj)
        assert len(totals) == 1

    def test_point_function_energy_flag(self):
        from repro.evaluation.points import simulate_fig5_point

        base = dict(topology="toph", load=0.1, warmup_cycles=10,
                    measure_cycles=30)
        without = simulate_fig5_point(**base)
        with_energy = simulate_fig5_point(**base, energy=True)
        assert without.energy is None
        assert with_energy.energy is not None
        assert with_energy.energy.completed_requests == (
            with_energy.completed_requests
        )


class TestTraceCli:
    """`python -m repro.experiments trace record|info` behaviour."""

    @pytest.fixture()
    def record_args(self, tmp_path):
        path = str(tmp_path / "cli.trace.gz")
        return path, ["trace", "record", path, "--warmup", "5",
                      "--measure", "25", "--engine", "vector"]

    def test_record_info_and_force(self, record_args, capsys):
        from repro.experiments.__main__ import main

        path, args = record_args
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "sha256" in first
        # Second record without --force is refused with a clear message.
        assert main(args) == 1
        assert "--force" in capsys.readouterr().out
        assert main(args + ["--force"]) == 0
        capsys.readouterr()
        assert main(["trace", "info", path]) == 0
        info = capsys.readouterr().out
        assert "payload verified" in info
        assert trace_sha(path) in info

    def test_info_on_malformed_file(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = tmp_path / "junk.trace.gz"
        path.write_text("junk")
        assert main(["trace", "info", str(path)]) == 1
        assert "not a readable gzip" in capsys.readouterr().out
