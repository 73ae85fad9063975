"""Severity-banded classification of metric deviations.

The accept/warn/reject gate of the statistical result validator: a
measured metric's relative deviation from its committed golden value is
classified into one of five severity bands — ``OK`` / ``MINOR`` /
``MODERATE`` / ``SEVERE`` / ``CRITICAL`` — and each band maps to an
action.  The idiom follows the severity-banded date validator of the
retrieval corpus (OK/leve/medio/grave/critico): small deviations are
accepted, mid-size ones accepted with a warning, large ones rejected —
with every threshold read from the golden file's ``policy`` block rather
than hardwired into the gate.

Deviations here are *relative* (``|measured - golden| / |golden|``), so
one policy covers latency in cycles, throughput in requests/core/cycle
and percentiles alike.  Because every engine is deterministic for fixed
seeds, an unmodified tree reproduces its goldens exactly (deviation 0.0,
severity ``OK``); any non-OK band is a real behavioural change, and the
bands grade how bad it is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.IntEnum):
    """Deviation severity, ordered from harmless to catastrophic."""

    OK = 0
    MINOR = 1
    MODERATE = 2
    SEVERE = 3
    CRITICAL = 4

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        """Parse a severity from its (case-insensitive) name.

        Examples
        --------
        >>> Severity.from_name("moderate")
        <Severity.MODERATE: 2>
        >>> Severity.from_name("lethal")
        Traceback (most recent call last):
            ...
        ValueError: unknown severity 'lethal'; valid: ok, minor, moderate, severe, critical
        """
        try:
            return cls[name.strip().upper()]
        except KeyError:
            valid = ", ".join(member.name.lower() for member in cls)
            raise ValueError(
                f"unknown severity {name!r}; valid: {valid}"
            ) from None


#: The three actions a band can map to.
ACTIONS = ("accept", "warn", "reject")


@dataclass(frozen=True)
class BandPolicy:
    """Configurable severity bands and their accept/warn/reject mapping.

    Parameters
    ----------
    ok, minor, moderate, severe : float
        Upper edges (inclusive) of the relative-deviation bands: a
        deviation ``d`` classifies as ``OK`` when ``d <= ok``, ``MINOR``
        when ``d <= minor``, and so on; anything above ``severe`` is
        ``CRITICAL``.  Must be strictly increasing and non-negative.
    warn_from : Severity
        First severity that triggers a warning instead of silent accept.
    reject_from : Severity
        First severity that rejects the result (must not precede
        ``warn_from``).

    Examples
    --------
    >>> policy = BandPolicy()
    >>> policy.classify(0.0)
    <Severity.OK: 0>
    >>> policy.classify(0.05)
    <Severity.MODERATE: 2>
    >>> policy.action(policy.classify(0.5))
    'reject'
    """

    ok: float = 0.01
    minor: float = 0.03
    moderate: float = 0.08
    severe: float = 0.20
    warn_from: Severity = Severity.MODERATE
    reject_from: Severity = Severity.SEVERE

    def __post_init__(self) -> None:
        edges = (self.ok, self.minor, self.moderate, self.severe)
        if any(edge < 0 for edge in edges) or not all(
            low < high for low, high in zip(edges, edges[1:])
        ):
            raise ValueError(
                "band edges must be non-negative and strictly increasing "
                f"(ok < minor < moderate < severe); got {edges}"
            )
        if self.reject_from < self.warn_from:
            raise ValueError(
                f"reject_from ({self.reject_from.name}) cannot precede "
                f"warn_from ({self.warn_from.name}): a rejected severity "
                "is at least warning-worthy"
            )

    @property
    def edges(self) -> tuple[float, float, float, float]:
        """The four band edges, in ascending severity order."""
        return (self.ok, self.minor, self.moderate, self.severe)

    def classify(self, deviation: float) -> Severity:
        """Severity band of a relative deviation (``abs`` applied)."""
        deviation = abs(deviation)
        for severity, edge in zip(Severity, self.edges):
            if deviation <= edge:
                return severity
        return Severity.CRITICAL

    def action(self, severity: Severity) -> str:
        """``accept``, ``warn`` or ``reject`` for one severity band."""
        if severity >= self.reject_from:
            return "reject"
        if severity >= self.warn_from:
            return "warn"
        return "accept"

    def to_dict(self) -> dict:
        """JSON-serialisable form (round-trips via :meth:`from_dict`)."""
        return {
            "bands": list(self.edges),
            "warn_from": self.warn_from.name.lower(),
            "reject_from": self.reject_from.name.lower(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BandPolicy":
        """Rebuild a :class:`BandPolicy` from :meth:`to_dict` output."""
        ok, minor, moderate, severe = data["bands"]
        return cls(
            ok=ok,
            minor=minor,
            moderate=moderate,
            severe=severe,
            warn_from=Severity.from_name(data["warn_from"]),
            reject_from=Severity.from_name(data["reject_from"]),
        )

