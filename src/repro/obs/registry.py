"""The process-wide instrument registry.

``registry()`` returns the singleton every instrumented layer shares;
lookups are by ``(name, labels)``, creating the instrument on first use:

    from repro import obs
    obs.counter("block.io_retries").inc()
    obs.histogram("fs.op_seconds", op="write_at").record(dt)

The singleton object is never replaced (module-level instrument handles
stay valid for the life of the process); tests and the CLI reset its
*state* with :meth:`Registry.reset`, which zeroes every instrument in
place and clears the bus.
"""

from __future__ import annotations

from repro.obs.events import EventBus
from repro.obs.instruments import Counter, Gauge, Histogram
from repro.obs.span import Span


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Registry:
    """Labeled instrument lookup plus the event bus of a scope."""

    def __init__(self) -> None:
        self._instruments: dict[tuple, object] = {}
        self.bus = EventBus()

    # -- lookup -------------------------------------------------------------

    def _get(self, kind, name: str, labels: dict):
        key = (kind.__name__, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = kind(name=name, labels=_label_key(labels))
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def span(self, name: str, clock=None, histogram: str | None = None,
             labels: dict | None = None, **fields) -> Span:
        """A span wired to this registry's bus.

        When `histogram` is given, the duration also lands in that
        histogram, labeled by `labels` only — `fields` (which may be
        high-cardinality, e.g. a VC name) go to the trace event but
        never mint new instruments."""
        labels = labels or {}
        hist = self.histogram(histogram, **labels) if histogram else None
        return Span(name, clock=clock, histogram=hist, bus=self.bus,
                    **labels, **fields)

    # -- enumeration --------------------------------------------------------

    def instruments(self) -> list:
        """Every registered instrument, in deterministic (key) order."""
        return [self._instruments[key]
                for key in sorted(self._instruments)]

    def counters(self) -> list[Counter]:
        return [i for i in self.instruments() if isinstance(i, Counter)]

    def gauges(self) -> list[Gauge]:
        return [i for i in self.instruments() if isinstance(i, Gauge)]

    def histograms(self) -> list[Histogram]:
        return [i for i in self.instruments() if isinstance(i, Histogram)]

    def snapshot(self) -> dict:
        """A JSON-ready dump of every instrument's current state."""
        out: dict = {}
        for instrument in self.instruments():
            label = ",".join(f"{k}={v}" for k, v in instrument.labels)
            key = f"{instrument.name}{{{label}}}" if label else instrument.name
            if isinstance(instrument, Histogram):
                out[key] = instrument.snapshot()
            elif isinstance(instrument, Gauge):
                out[key] = {"value": instrument.value,
                            "high_water": instrument.high_water}
            else:
                out[key] = instrument.value
        return out

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument *in place* (handles stay valid)."""
        for instrument in self._instruments.values():
            instrument.reset()


_GLOBAL = Registry()


def registry() -> Registry:
    """The process-wide registry (a true singleton)."""
    return _GLOBAL
