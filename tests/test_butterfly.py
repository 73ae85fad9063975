"""Tests of the radix-4 butterfly construction and routing (Figure 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.interconnect.butterfly import ButterflyNetwork
from repro.interconnect.resources import ArbitrationPoint, RegisterStage


class TestStructure:
    def test_sixteen_port_radix4_has_two_layers_of_four_switches(self):
        butterfly = ButterflyNetwork("b", 16, radix=4)
        assert butterfly.num_layers == 2
        assert butterfly.num_switches == 8
        assert all(len(layer) == 4 for layer in butterfly.switches)

    def test_sixtyfour_port_radix4_has_three_layers_of_sixteen_switches(self):
        butterfly = ButterflyNetwork("b", 64, radix=4)
        assert butterfly.num_layers == 3
        assert butterfly.num_switches == 48

    def test_single_port_network_is_a_wire(self):
        butterfly = ButterflyNetwork("b", 1, radix=4)
        assert butterfly.num_layers == 0
        assert butterfly.route(0, 0) == []
        assert butterfly.output_resource(0) is None

    def test_non_power_of_radix_rejected(self):
        with pytest.raises(ValueError):
            ButterflyNetwork("b", 24, radix=4)

    def test_registered_layer_outputs_are_register_stages(self):
        butterfly = ButterflyNetwork("b", 16, radix=4, registered_layers=(0,))
        for switch in butterfly.switches[0]:
            assert all(isinstance(output, RegisterStage) for output in switch.outputs)
        for switch in butterfly.switches[1]:
            assert all(isinstance(output, ArbitrationPoint) for output in switch.outputs)

    def test_invalid_registered_layer_rejected(self):
        with pytest.raises(ValueError):
            ButterflyNetwork("b", 16, radix=4, registered_layers=(5,))


class TestRouting:
    @pytest.mark.parametrize("ports,radix", [(16, 4), (64, 4), (16, 2), (8, 2)])
    def test_every_pair_is_routable_and_path_length_is_num_layers(self, ports, radix):
        butterfly = ButterflyNetwork("b", ports, radix=radix)
        for source in range(ports):
            for destination in range(ports):
                hops = butterfly.route_hops(source, destination)
                assert len(hops) == butterfly.num_layers

    def test_route_ends_at_the_destination_output(self):
        butterfly = ButterflyNetwork("b", 64, radix=4)
        for source in (0, 13, 37, 63):
            for destination in (0, 1, 31, 62):
                resources = butterfly.route(source, destination)
                assert resources[-1] is butterfly.output_resource(destination)

    def test_routing_is_oblivious_single_path(self):
        """The same source/destination pair always takes the same path."""
        butterfly = ButterflyNetwork("b", 16, radix=4)
        assert butterfly.route_hops(3, 9) == butterfly.route_hops(3, 9)

    def test_different_sources_to_same_destination_share_the_last_hop(self):
        butterfly = ButterflyNetwork("b", 16, radix=4)
        last_hops = {butterfly.route_hops(source, 7)[-1] for source in range(16)}
        assert len(last_hops) == 1

    def test_out_of_range_ports_rejected(self):
        butterfly = ButterflyNetwork("b", 16, radix=4)
        with pytest.raises(ValueError):
            butterfly.route(16, 0)
        with pytest.raises(ValueError):
            butterfly.route(0, -1)

    @given(
        source=st.integers(min_value=0, max_value=63),
        destination=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=200, deadline=None)
    def test_hops_are_within_bounds(self, source, destination):
        butterfly = ButterflyNetwork("b", 64, radix=4)
        for layer, switch, output in butterfly.route_hops(source, destination):
            assert 0 <= layer < 3
            assert 0 <= switch < 16
            assert 0 <= output < 4

    def test_uniform_traffic_spreads_over_first_layer_outputs(self):
        """No single first-layer output should carry all the traffic."""
        butterfly = ButterflyNetwork("b", 16, radix=4)
        usage = {}
        for source in range(16):
            for destination in range(16):
                hop = butterfly.route_hops(source, destination)[0]
                usage[hop] = usage.get(hop, 0) + 1
        assert max(usage.values()) <= 16
        assert len(usage) == 16
