"""A periodic timer device.

The kernel's scheduler tick and the network stack's retransmission timers
are driven from this device's tick counter."""

from __future__ import annotations


class Timer:
    """A tick counter."""

    def __init__(self) -> None:
        self.ticks = 0

    def tick(self, count: int = 1) -> None:
        """Advance time by `count` ticks."""
        if count < 0:
            raise ValueError("cannot tick backwards")
        self.ticks += count
