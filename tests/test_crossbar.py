"""Tests of the single-stage crossbar switch building block (Section III-A)."""

import pytest

from repro.interconnect.crossbar import CrossbarSwitch
from repro.interconnect.resources import ArbitrationPoint, RegisterStage


class TestConstruction:
    def test_combinational_outputs_are_arbitration_points(self):
        switch = CrossbarSwitch("xbar", 4, 4)
        assert switch.num_outputs == 4
        assert all(isinstance(output, ArbitrationPoint) for output in switch.outputs)

    def test_registered_outputs_are_register_stages(self):
        switch = CrossbarSwitch("xbar", 4, 4, registered_outputs=True, level=2)
        assert all(isinstance(output, RegisterStage) for output in switch.outputs)
        assert all(output.level == 2 for output in switch.outputs)

    def test_output_names_include_the_switch_name(self):
        switch = CrossbarSwitch("group0.req", 16, 16)
        assert switch.output(3).name == "group0.req.out3"

    def test_rectangular_switch(self):
        switch = CrossbarSwitch("concentrator", 4, 1)
        assert switch.num_inputs == 4
        assert switch.num_outputs == 1
        assert switch.crosspoints == 4

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            CrossbarSwitch("bad", 0, 4)

    def test_output_index_bounds(self):
        switch = CrossbarSwitch("xbar", 2, 2)
        with pytest.raises(ValueError):
            switch.output(2)
