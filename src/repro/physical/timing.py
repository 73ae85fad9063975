"""Critical-path timing model (Section VI-B / VI-C).

The paper reports two critical paths:

* inside the tile: 53 gates from a register after the instruction cache,
  through the second Snitch core and the request interconnect, into an SPM
  bank;
* at the cluster level (TopH): 36 gates of which 27 are buffers or inverter
  pairs, with wire propagation accounting for 37 % of the path delay — the
  path starts at a local-group boundary, crosses the centre of the cluster
  and ends at the ROB of a Snitch core.

The TopH cluster closes timing at 500 MHz in the worst case corner
(SS / 0.72 V / 125 C) and runs at 700 MHz in typical conditions
(TT / 0.80 V / 25 C); worst-case operation reaches 480 MHz.

The model keeps per-corner gate and wire delays (calibrated for GF 22FDX) and
evaluates named paths made of logic gates, buffers and millimetres of
buffered wire.  It reads no design: the two paths are typed in from the
paper, so both frequencies, the gate counts and the 37 % wire fraction are
calibrated numbers — each follows from these constants alone, whatever the
topology or the cluster size.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TimingParametersPhysical:
    """Per-corner delay coefficients."""

    #: Average delay of a logic gate on the critical path, per corner (ns).
    gate_delay_ns: dict[str, float] = field(
        default_factory=lambda: {"typical": 0.025, "worst": 0.036}
    )
    #: Average delay of a buffer / inverter-pair stage, per corner (ns).
    buffer_delay_ns: dict[str, float] = field(
        default_factory=lambda: {"typical": 0.022, "worst": 0.033}
    )
    #: Delay of one millimetre of buffered top-level wire, per corner (ns).
    wire_delay_ns_per_mm: dict[str, float] = field(
        default_factory=lambda: {"typical": 0.115, "worst": 0.16}
    )
    #: Clock uncertainty + setup margin (ns).
    margin_ns: float = 0.08


@dataclass(frozen=True)
class CriticalPath:
    """A named critical path: logic gates, buffer stages and wire length."""

    name: str
    logic_gates: int
    buffer_gates: int
    wire_mm: float = 0.0

    @property
    def total_gates(self) -> int:
        """Logic and buffer gates together."""
        return self.logic_gates + self.buffer_gates


#: The tile-level critical path: I$ output register -> Snitch core 2 ->
#: request interconnect -> SPM bank (53 gates, no top-level wire).
TILE_CRITICAL_PATH = CriticalPath("tile", logic_gates=44, buffer_gates=9)

#: The TopH cluster critical path: group boundary -> centre of the cluster ->
#: another group -> ROB of a Snitch core (36 gates, 27 of them buffers).
CLUSTER_CRITICAL_PATH = CriticalPath("cluster", logic_gates=9, buffer_gates=27, wire_mm=4.5)


class TimingModel:
    """Evaluates critical paths and achievable frequencies per corner."""

    CORNERS = ("typical", "worst")

    def __init__(self, parameters: TimingParametersPhysical | None = None) -> None:
        self.parameters = parameters or TimingParametersPhysical()

    def path_delay_ns(self, path: CriticalPath, corner: str) -> float:
        """Total delay of ``path`` at ``corner`` (including margin)."""
        self._check_corner(corner)
        parameters = self.parameters
        logic = path.logic_gates * parameters.gate_delay_ns[corner]
        buffers = path.buffer_gates * parameters.buffer_delay_ns[corner]
        wire = path.wire_mm * parameters.wire_delay_ns_per_mm[corner]
        return logic + buffers + wire + parameters.margin_ns

    def wire_fraction(self, path: CriticalPath, corner: str) -> float:
        """Fraction of the path delay spent in wire propagation."""
        self._check_corner(corner)
        total = self.path_delay_ns(path, corner) - self.parameters.margin_ns
        wire = path.wire_mm * self.parameters.wire_delay_ns_per_mm[corner]
        return wire / total if total else 0.0

    def frequency_mhz(self, path: CriticalPath, corner: str) -> float:
        """Maximum clock frequency the path allows at ``corner``."""
        return 1000.0 / self.path_delay_ns(path, corner)

    def cluster_frequencies(self) -> dict[str, float]:
        """Achievable cluster frequency (MHz) per corner, limited by the slower path."""
        return {
            corner: min(
                self.frequency_mhz(TILE_CRITICAL_PATH, corner),
                self.frequency_mhz(CLUSTER_CRITICAL_PATH, corner),
            )
            for corner in self.CORNERS
        }

    def _check_corner(self, corner: str) -> None:
        if corner not in self.CORNERS:
            raise ValueError(f"unknown corner {corner!r}; expected one of {self.CORNERS}")
