"""Malformed-spec error paths of both CLIs and the registries behind them.

Every bad ``--topology`` spec, pattern/injector name or parameter value
must fail with a message that names the offending key and lists the valid
choices — at spec-parse time on the CLIs (exit code 1, no sweep
expansion), and with the same contextual wording from the registry
helpers that every other layer routes through.
"""

from __future__ import annotations

import pytest

from repro.core.config import MemPoolConfig
from repro.topologies.registry import parse_topology_spec
from repro.workloads.registry import make_injector, make_pattern


class TestTopologySpecParsing:
    """Registry-level ``name[:k=v,...]`` parsing errors."""

    def test_empty_name_lists_catalogue(self):
        with pytest.raises(
            ValueError, match="missing the topology name.*toph"
        ):
            parse_topology_spec(":width=2")

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(ValueError, match="unknown topology 'warp'.*mesh"):
            parse_topology_spec("warp")

    def test_item_missing_equals_names_the_part(self):
        with pytest.raises(
            ValueError, match="malformed parameter 'width'.*missing the '='"
        ):
            parse_topology_spec("mesh:width")

    def test_item_missing_value_names_the_part(self):
        with pytest.raises(
            ValueError, match="malformed parameter 'width='.*missing the value"
        ):
            parse_topology_spec("mesh:width=")

    def test_item_missing_key_names_the_part(self):
        with pytest.raises(ValueError, match="missing the key"):
            parse_topology_spec("mesh:=2")

    def test_malformed_item_lists_accepted_params(self):
        with pytest.raises(ValueError, match="accepted parameters for 'mesh'"):
            parse_topology_spec("mesh:width")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter 'width'"):
            parse_topology_spec("mesh:width=2,width=4")

    def test_unknown_param_names_key_and_lists_accepted(self):
        with pytest.raises(
            ValueError,
            match="unknown parameter\\(s\\) depth for topology 'mesh'; "
                  "accepted: height, width",
        ):
            parse_topology_spec("mesh:depth=2")

    def test_invalid_value_names_key_and_family(self):
        with pytest.raises(
            ValueError,
            match="invalid value for parameter 'width' of topology 'mesh'",
        ):
            parse_topology_spec("mesh:width=0,height=2")

    def test_parameterless_family_rejects_any_param(self):
        with pytest.raises(
            ValueError, match="for topology 'ring'; accepted: none"
        ):
            parse_topology_spec("ring:width=2")


class TestWorkloadRegistryErrors:
    """``make_pattern`` / ``make_injector`` contextual error messages."""

    def test_unknown_pattern_lists_catalogue(self):
        with pytest.raises(
            ValueError, match="unknown destination pattern 'nope'.*uniform"
        ):
            make_pattern("nope", MemPoolConfig.tiny())

    def test_unknown_injector_lists_catalogue(self):
        with pytest.raises(
            ValueError, match="unknown injection process 'nope'.*poisson"
        ):
            make_injector("nope", 4, 0.3)

    def test_unknown_pattern_param_names_key(self):
        with pytest.raises(
            ValueError,
            match="unknown parameter\\(s\\) p_local for workload 'uniform'; "
                  "accepted: none",
        ):
            make_pattern("uniform", MemPoolConfig.tiny(), p_local=0.5)

    def test_invalid_pattern_value_names_key_and_workload(self):
        with pytest.raises(
            ValueError,
            match="invalid value for parameter 'p_local' of workload "
                  "'local_biased'",
        ):
            make_pattern("local_biased", MemPoolConfig.tiny(), p_local=2.0)

    def test_invalid_hotspot_count_names_key(self):
        with pytest.raises(
            ValueError,
            match="invalid value for parameter 'num_hotspots' of workload "
                  "'hotspot'",
        ):
            make_pattern("hotspot", MemPoolConfig.tiny(), num_hotspots=0)

    def test_invalid_injector_value_names_key_and_workload(self):
        with pytest.raises(
            ValueError,
            match="invalid value for parameter 'burst_rate' of workload "
                  "'bursty'",
        ):
            make_injector("bursty", 4, 0.3, burst_rate=1.5)


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


class TestEvaluationCliTopologyErrors:
    """``python -m repro.evaluation --topology <bad>`` exits 1 with context."""

    @pytest.mark.parametrize("spec, fragment", BAD_TOPOLOGY_SPECS)
    def test_bad_spec_fails_before_running(self, capsys, spec, fragment):
        from repro.evaluation.__main__ import main

        assert main(["fig10", "--topology", spec]) == 1
        assert fragment in capsys.readouterr().out

    def test_structurally_invalid_spec_fails_at_probe(self, capsys):
        from repro.evaluation.__main__ import main

        # width*height misses the tile count — only buildable checks catch it.
        assert main(["fig10", "--topology", "mesh:width=3,height=3"]) == 1
        assert "mesh" in capsys.readouterr().out

    def test_unknown_pattern_choice_exits_two(self):
        from repro.evaluation.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["fig10", "--pattern", "nope"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("engine", ["batch", "compiled"])
    def test_unknown_engine_choice_exits_two(self, engine):
        from repro.evaluation.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["fig5", "--engine", engine])
        assert excinfo.value.code == 2

    def test_unknown_injector_choice_exits_two(self):
        from repro.evaluation.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["fig10", "--injector", "nope"])
        assert excinfo.value.code == 2


class TestExperimentsCliTopologyErrors:
    """``python -m repro.experiments run --topology <bad>`` mirrors it."""

    @pytest.mark.parametrize("spec, fragment", BAD_TOPOLOGY_SPECS)
    def test_bad_spec_fails_before_running(self, capsys, spec, fragment):
        from repro.experiments.__main__ import main

        assert main(["run", "fig10", "--no-cache", "--topology", spec]) == 1
        assert fragment in capsys.readouterr().out

    def test_unknown_pattern_choice_exits_two(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig10", "--pattern", "nope"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("engine", ["batch", "compiled"])
    def test_unknown_engine_choice_exits_two(self, engine):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig5", "--engine", engine])
        assert excinfo.value.code == 2

    def test_unknown_experiment_name_exits_one(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "fig99", "--no-cache"]) == 1
        assert "fig99" in capsys.readouterr().out
