"""Radix-r butterfly (omega) networks built from crossbar switches.

Figure 1 of the paper shows the 16x16 radix-4 butterfly used between tiles:
``log4(N)`` layers of ``N/4`` fully connected 4x4 switches.  MemPool uses the
minimal, oblivious variant — there is exactly one path between every
master/slave pair, selected digit-by-digit from the destination index.

The implementation uses the omega-network formulation: before each switching
layer the ports undergo a radix-``r`` perfect shuffle (a left-rotation of the
base-``r`` digit string), and each layer's switch forwards the request to the
output selected by the next most-significant digit of the destination.
"""

from __future__ import annotations

from repro.interconnect.crossbar import CrossbarSwitch
from repro.interconnect.resources import Resource
from repro.utils.validation import log_base_int


class ButterflyNetwork:
    """An N x N radix-``r`` butterfly network made of r x r crossbar switches."""

    def __init__(
        self,
        name: str,
        num_ports: int,
        radix: int = 4,
        registered_layers: tuple[int, ...] = (),
        buffer_depth: int = 2,
        registered_level: int = 0,
    ) -> None:
        self.name = name
        self.num_ports = num_ports
        self.radix = radix
        self.registered_layers = tuple(sorted(set(registered_layers)))
        if num_ports == 1:
            # Degenerate single-port network: a plain wire, no switches.
            self.num_layers = 0
            self.switches: list[list[CrossbarSwitch]] = []
        else:
            self.num_layers = log_base_int(num_ports, radix)
            for layer in self.registered_layers:
                if not 0 <= layer < self.num_layers:
                    raise ValueError(
                        f"registered layer {layer} out of range "
                        f"[0, {self.num_layers}) for {name!r}"
                    )
            switches_per_layer = num_ports // radix
            self.switches = [
                [
                    CrossbarSwitch(
                        f"{name}.l{layer}.s{switch}",
                        num_inputs=radix,
                        num_outputs=radix,
                        registered_outputs=layer in self.registered_layers,
                        buffer_depth=buffer_depth,
                        level=registered_level,
                    )
                    for switch in range(switches_per_layer)
                ]
                for layer in range(self.num_layers)
            ]

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def _shuffle(self, port: int) -> int:
        """Radix-``r`` perfect shuffle: rotate the base-r digit string left."""
        most_significant_digit = port // (self.num_ports // self.radix)
        return (port * self.radix) % self.num_ports + most_significant_digit

    def _destination_digit(self, destination: int, layer: int) -> int:
        """Base-r digit of ``destination`` consumed at ``layer`` (MSB first)."""
        shift = self.num_layers - 1 - layer
        return (destination // (self.radix**shift)) % self.radix

    def route_hops(self, source: int, destination: int) -> list[tuple[int, int, int]]:
        """Return the (layer, switch, output) hops from ``source`` to ``destination``."""
        self._check_port(source)
        self._check_port(destination)
        hops: list[tuple[int, int, int]] = []
        line = source
        for layer in range(self.num_layers):
            line = self._shuffle(line)
            switch = line // self.radix
            out_digit = self._destination_digit(destination, layer)
            hops.append((layer, switch, out_digit))
            line = switch * self.radix + out_digit
        if self.num_layers and line != destination:
            raise RuntimeError(
                f"butterfly routing error in {self.name!r}: "
                f"{source} -> {destination} ended at {line}"
            )
        return hops

    def route(self, source: int, destination: int) -> list[Resource]:
        """Return the timing resources traversed from ``source`` to ``destination``."""
        return [
            self.switches[layer][switch].output(out_digit)
            for layer, switch, out_digit in self.route_hops(source, destination)
        ]

    def output_resource(self, destination: int) -> Resource | None:
        """The final-layer output resource feeding ``destination`` (None if no switches)."""
        self._check_port(destination)
        if self.num_layers == 0:
            return None
        last_layer = self.num_layers - 1
        switch = destination // self.radix
        return self.switches[last_layer][switch].output(destination % self.radix)

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.num_ports:
            raise ValueError(
                f"port {port} out of range [0, {self.num_ports}) for {self.name!r}"
            )

    # ------------------------------------------------------------------ #
    # Structural figures used by the physical models
    # ------------------------------------------------------------------ #

    @property
    def num_switches(self) -> int:
        """Number of radix x radix switches over all layers."""
        return sum(len(layer) for layer in self.switches)

    @property
    def crosspoints(self) -> int:
        """Total crosspoints of every switch (area proxy)."""
        return sum(switch.crosspoints for layer in self.switches for switch in layer)

    @property
    def all_switches(self) -> list[CrossbarSwitch]:
        """Every switch, layer by layer."""
        return [switch for layer in self.switches for switch in layer]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ButterflyNetwork({self.name!r}, {self.num_ports}x{self.num_ports}, "
            f"radix={self.radix}, layers={self.num_layers})"
        )
