"""Single-stage m x n crossbar switch — the basic interconnect building block.

Section III-A: *"The basic element of both interconnects is a single-stage
m x n crossbar switch, connecting m masters to n slaves.  An optional elastic
buffer can be inserted at each output of the switch, after address decoding
and round-robin arbitration, to break any combinational paths crossing the
switch."*

The timing behaviour of a crossbar is fully captured by its per-output
resources: a :class:`~repro.interconnect.resources.RegisterStage` when the
output carries an elastic buffer (registered output), otherwise an
:class:`~repro.interconnect.resources.ArbitrationPoint`.  The switch object
itself records the structural information (port counts) that the area, power
and congestion models consume.
"""

from __future__ import annotations

from repro.interconnect.resources import ArbitrationPoint, RegisterStage, Resource


class CrossbarSwitch:
    """An m x n single-stage crossbar with round-robin output arbitration."""

    def __init__(
        self,
        name: str,
        num_inputs: int,
        num_outputs: int,
        registered_outputs: bool = False,
        buffer_depth: int = 2,
        level: int = 0,
    ) -> None:
        if num_inputs < 1 or num_outputs < 1:
            raise ValueError(
                f"crossbar {name!r} needs at least one input and one output, "
                f"got {num_inputs}x{num_outputs}"
            )
        self.name = name
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.registered_outputs = registered_outputs
        self.buffer_depth = buffer_depth
        self._outputs: list[Resource] = []
        for index in range(num_outputs):
            output_name = f"{name}.out{index}"
            if registered_outputs:
                self._outputs.append(
                    RegisterStage(output_name, level=level, depth=buffer_depth)
                )
            else:
                self._outputs.append(ArbitrationPoint(output_name))

    def output(self, index: int) -> Resource:
        """The timing resource guarding output port ``index``."""
        if not 0 <= index < self.num_outputs:
            raise ValueError(
                f"output index {index} out of range [0, {self.num_outputs}) "
                f"for crossbar {self.name!r}"
            )
        return self._outputs[index]

    @property
    def outputs(self) -> tuple[Resource, ...]:
        """The timing resource of every output port, in port order."""
        return tuple(self._outputs)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "registered" if self.registered_outputs else "combinational"
        return (
            f"CrossbarSwitch({self.name!r}, {self.num_inputs}x{self.num_outputs}, "
            f"{kind})"
        )
