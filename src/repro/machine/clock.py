"""Clock model.

The SX-4 in the paper's benchmark runs had a 9.2 ns clock; the production
machine runs at 8.0 ns ("we anticipate an additional 15% performance
improvement ... running on a system with an 8.0 ns clock").  Everything in
the machine model is expressed in clock cycles and converted to wall time
through a :class:`Clock`, so that 9.2 ns → 8.0 ns ablations are a
one-parameter change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine import costs
from repro.units import NS, hz_from_period_ns

__all__ = ["Clock"]


@dataclass(frozen=True)
class Clock:
    """An ideal clock defined by its period in nanoseconds."""

    period_ns: float

    def __post_init__(self) -> None:
        if self.period_ns <= 0:
            raise ValueError(f"clock period must be positive, got {self.period_ns} ns")

    @property
    def frequency_hz(self) -> float:
        """Clock frequency in Hz (108.7 MHz for the 9.2 ns machine)."""
        return hz_from_period_ns(self.period_ns)

    @property
    def period_s(self) -> float:
        """Clock period in seconds."""
        return self.period_ns * NS

    def seconds(self, cycles: float) -> float:
        """Wall-clock seconds for a (possibly fractional) cycle count."""
        if cycles < 0:
            raise ValueError(f"cycle counts cannot be negative, got {cycles}")
        return costs.seconds(cycles, self.period_ns)

    def cycles(self, seconds: float) -> float:
        """Cycle count corresponding to a duration in seconds."""
        if seconds < 0:
            raise ValueError(f"durations cannot be negative, got {seconds}")
        return seconds / self.period_s

    def scaled(self, period_ns: float) -> "Clock":
        """A clock with a different period (e.g. the 8.0 ns production part)."""
        return Clock(period_ns=period_ns)
