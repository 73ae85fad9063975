"""Malformed-input error paths of the CLI and the catalogue behind it.

Every bad ``--topology`` spec, pattern/injector name, parameter value or
out-of-range number must fail with a message that names the offending key
(and, for names, lists the valid choices) — at parse time on the CLI
(exit code 1, no sweep expansion, no traceback), and with the same
contextual wording from the catalogue that every other layer routes
through.
"""

from __future__ import annotations

import gzip
import struct
import zlib

import pytest

from repro.catalogue import INJECTORS, PATTERNS, TOPOLOGIES
from repro.core.config import MemPoolConfig
from repro.evaluation.settings import ExperimentSettings


class TestTopologySpecParsing:
    """``name[:k=v,...]`` parsing errors, through ``ExperimentSettings``."""

    def test_empty_name_lists_catalogue(self):
        with pytest.raises(
            ValueError, match="missing the topology name.*toph"
        ):
            ExperimentSettings(topology=":width=2")

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(ValueError, match="unknown topology 'warp'.*mesh"):
            ExperimentSettings(topology="warp")

    def test_item_missing_equals_names_the_part(self):
        with pytest.raises(
            ValueError, match="malformed parameter 'width'.*missing the '='"
        ):
            ExperimentSettings(topology="mesh:width")

    def test_item_missing_value_names_the_part(self):
        with pytest.raises(
            ValueError, match="malformed parameter 'width='.*missing the value"
        ):
            ExperimentSettings(topology="mesh:width=")

    def test_item_missing_key_names_the_part(self):
        with pytest.raises(ValueError, match="missing the key"):
            ExperimentSettings(topology="mesh:=2")

    def test_malformed_item_lists_accepted_params(self):
        with pytest.raises(ValueError, match="accepted parameters for 'mesh'"):
            ExperimentSettings(topology="mesh:width")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter 'width'"):
            ExperimentSettings(topology="mesh:width=2,width=4")

    def test_unknown_param_names_key_and_lists_accepted(self):
        with pytest.raises(
            ValueError,
            match="unknown parameter\\(s\\) depth for topology 'mesh'; "
                  "accepted: height, width",
        ):
            ExperimentSettings(topology="mesh:depth=2")

    def test_invalid_value_names_key_and_family(self):
        with pytest.raises(
            ValueError,
            match="invalid value for parameter 'width' of topology 'mesh'",
        ):
            ExperimentSettings(topology="mesh:width=0,height=2")

    def test_parameterless_family_rejects_any_param(self):
        with pytest.raises(
            ValueError, match="for topology 'ring'; accepted: none"
        ):
            ExperimentSettings(topology="ring:width=2")


class TestWorkloadCatalogueErrors:
    """``PATTERNS`` / ``INJECTORS`` contextual error messages."""

    def test_unknown_pattern_lists_catalogue(self):
        with pytest.raises(
            ValueError, match="unknown destination pattern 'nope'.*uniform"
        ):
            PATTERNS.lookup("nope").build(MemPoolConfig.tiny())

    def test_unknown_injector_lists_catalogue(self):
        with pytest.raises(
            ValueError, match="unknown injection process 'nope'.*poisson"
        ):
            INJECTORS.lookup("nope").build(4, 0.3)

    def test_unknown_pattern_param_names_key(self):
        with pytest.raises(
            ValueError,
            match="unknown parameter\\(s\\) p_local for workload 'uniform'; "
                  "accepted: none",
        ):
            PATTERNS.lookup("uniform").build(MemPoolConfig.tiny(), p_local=0.5)

    def test_invalid_pattern_value_names_key_and_workload(self):
        with pytest.raises(
            ValueError,
            match="invalid value for parameter 'p_local' of workload "
                  "'local_biased'",
        ):
            PATTERNS.lookup("local_biased").build(MemPoolConfig.tiny(), p_local=2.0)

    def test_invalid_hotspot_count_names_key(self):
        with pytest.raises(
            ValueError,
            match="invalid value for parameter 'num_hotspots' of workload "
                  "'hotspot'",
        ):
            PATTERNS.lookup("hotspot").build(MemPoolConfig.tiny(), num_hotspots=0)

    def test_invalid_injector_value_names_key_and_workload(self):
        with pytest.raises(
            ValueError,
            match="invalid value for parameter 'burst_rate' of workload "
                  "'bursty'",
        ):
            INJECTORS.lookup("bursty").build(4, 0.3, burst_rate=1.5)


#: Every catalogue parameter by type; a new parameter must join one.
INT_PARAMS = {"groups", "height", "m", "num_hotspots", "ports", "radix", "width"}
REAL_PARAMS = {"beta", "burst_len", "burst_rate", "exponent", "p_hot", "p_local"}
TEXT_PARAMS = {"path", "sha"}


def _wrongly_typed_values():
    """``(entry, parameter, value)`` for every value of the wrong type.

    str, None and bool everywhere a string is not expected; a float where
    an int is.
    """
    for label, table in (
        ("topology", TOPOLOGIES), ("pattern", PATTERNS), ("injector", INJECTORS)
    ):
        for entry in table.values():
            for param in sorted(entry.params):
                assert param in INT_PARAMS | REAL_PARAMS | TEXT_PARAMS, param
                values = [None, True] + ([2.5] if param not in REAL_PARAMS else [])
                if param not in TEXT_PARAMS:
                    values.append("x")
                for value in values:
                    yield pytest.param(
                        entry, param, value,
                        id=f"{label}-{entry.name}-{param}-{value!r}",
                    )


@pytest.mark.parametrize("entry, param, value", _wrongly_typed_values())
def test_wrongly_typed_parameter_names_the_parameter(entry, param, value):
    params = {name: "t.trace.gz" for name in entry.required}
    params[param] = value
    with pytest.raises(
        ValueError,
        match=f"invalid value for parameter '{param}' of {entry.kind} '{entry.name}'",
    ):
        entry.validate(params)


#: Malformed --topology specs and a fragment their error must contain.
BAD_TOPOLOGY_SPECS = (
    ("warp", "unknown topology 'warp'"),
    ("mesh:width", "missing the '='"),
    ("mesh:width=", "missing the value"),
    ("mesh:=2", "missing the key"),
    ("mesh:width=2,width=4", "duplicate parameter 'width'"),
    ("mesh:depth=2", "unknown parameter(s) depth"),
    ("mesh:width=0,height=2", "invalid value for parameter 'width'"),
    ("ring:width=2", "accepted: none"),
)


@pytest.fixture(params=["run", "trace-record"])
def command(request, tmp_path):
    """The argv prefix of each command that takes the settings flags."""
    if request.param == "run":
        return ["run", "fig10", "--no-cache"]
    return ["trace", "record", str(tmp_path / "t.trace.gz")]


class TestExperimentsCliTopologyErrors:
    """``run`` / ``trace record`` with a bad settings flag exit with context."""

    @pytest.mark.parametrize("spec, fragment", BAD_TOPOLOGY_SPECS)
    def test_bad_spec_fails_before_running(self, capsys, command, spec, fragment):
        from repro.experiments.__main__ import main

        assert main([*command, "--topology", spec]) == 1
        assert fragment in capsys.readouterr().out

    def test_structurally_invalid_spec_fails_at_probe(self, capsys, command):
        from repro.experiments.__main__ import main

        # width*height misses the tile count — only buildable checks catch it.
        assert main([*command, "--topology", "mesh:width=3,height=3"]) == 1
        assert "mesh" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [("--pattern", "nope"), ("--injector", "nope"),
         ("--engine", "batch"), ("--engine", "compiled")],
        ids=["pattern", "injector", "engine-batch", "engine-compiled"],
    )
    def test_unknown_choice_exits_two(self, command, flag, value, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main([*command, flag, value])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_unknown_experiment_name_exits_one(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "fig99", "--no-cache"]) == 1
        assert "fig99" in capsys.readouterr().out


#: Out-of-range numbers and the one-line message each must exit 1 with.
BAD_NUMBERS = (
    (["trace", "record", "{trace}", "--warmup", "-3"],
     "warmup_cycles must be a non-negative integer, got -3"),
    (["trace", "record", "{trace}", "--measure", "0"],
     "measure_cycles must be positive"),
    (["trace", "record", "{trace}", "--measure", "-3"],
     "measure_cycles must be a non-negative integer, got -3"),
    (["serve", "--max-jobs", "0", "--port", "0"],
     "max_jobs must be positive, got 0"),
    (["serve", "--port", "70000", "--cache", "none"],
     "port must be in 0..65535, got 70000"),
    (["serve", "--port", "-1", "--cache", "none"],
     "port must be in 0..65535, got -1"),
)


@pytest.mark.parametrize(
    "argv, message", BAD_NUMBERS,
    ids=["warmup-negative", "measure-zero", "measure-negative", "max-jobs-zero",
         "port-too-large", "port-negative"],
)
def test_bad_number_exits_one_with_a_message(argv, message, capsys, tmp_path):
    from repro.experiments.__main__ import main

    trace = tmp_path / "t.trace.gz"
    assert main([arg.format(trace=trace) for arg in argv]) == 1
    assert message in capsys.readouterr().out
    assert not trace.exists()


def write_damaged_trace(path):
    """A gzip trace whose header line inflates but whose body does not.

    The header line is deflated on its own; the body is deflated against a
    preset dictionary holding the body itself, so it inflates to
    back-references past the start of the stream ("invalid distance too
    far back").  The gzip trailer keeps the intact text's CRC and length.
    """
    from repro.workloads.trace import write_trace

    write_trace(str(path), [(cycle, cycle % 16, cycle % 64) for cycle in range(200)],
                num_cores=16, num_banks=64)
    text = gzip.decompress(path.read_bytes())
    split = text.index(b"\n")
    head = zlib.compressobj(9, zlib.DEFLATED, -15)
    body = zlib.compressobj(9, zlib.DEFLATED, -15, zdict=text[split:])
    raw = (head.compress(text[:split]) + head.flush(zlib.Z_FULL_FLUSH)
           + body.compress(text[split:]) + body.flush())
    path.write_bytes(
        b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff" + raw
        + struct.pack("<II", zlib.crc32(text), len(text))
    )
    inflate, inflated = zlib.decompressobj(-15), b""
    with pytest.raises(zlib.error, match="too far back"):
        for start in range(len(raw)):
            inflated += inflate.decompress(raw[start:start + 1])
    assert inflated.startswith(text[:split])


@pytest.mark.parametrize("command", [["trace", "info"], ["trace", "replay", "--no-cache"]],
                         ids=["info", "replay"])
def test_damaged_gzip_body_exits_one_with_a_message(command, capsys, tmp_path):
    from repro.experiments.__main__ import main

    trace = tmp_path / "t.trace.gz"
    write_damaged_trace(trace)
    assert main([*command[:2], str(trace), *command[2:]]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and "is not a readable gzip trace" in out[0], out
    assert "too far back" in out[0]
