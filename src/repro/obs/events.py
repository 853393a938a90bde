"""The structured event bus: typed, frozen records with JSONL export.

Design points:

* **frozen records** — an :class:`Event` is immutable once emitted;
  attributes beyond the two required fields (`name`, `t`) live in a
  sorted tuple of key/value pairs, so equal events compare and hash
  equal and JSONL serialisation is canonical (deterministic runs export
  byte-identical traces);
* **off by default** — ``emit`` on a bus with no subscribers is a few
  instruction no-op, so instrumented hot paths (block driver, RDP,
  filesystem) cost nothing until someone turns tracing on (``--trace``
  on the CLIs, or a test subscribing a sink).  The bus keeps nothing
  itself: a subscriber that wants the events appends them to a list;
* **one schema** — every line of an exported trace validates against
  :func:`validate_record`, which is what ``python -m repro trace
  validate`` and the CI trace job enforce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: JSON scalar types an event field may carry.
_SCALARS = (str, int, float, bool, type(None))


def _canonical_fields(fields: dict) -> tuple:
    return tuple(sorted(fields.items()))


@dataclass(frozen=True)
class Event:
    """One observed fact: a name, a timestamp, and scalar attributes.

    `t` is in the emitter's clock domain — wall-clock seconds since the
    run started for real work, simulated integer nanoseconds when the
    emitter runs under :class:`repro.sim.kernel.Simulator`'s virtual
    clock.  The ``clock`` field says which ("wall" or "sim").
    """

    name: str
    t: int | float = 0
    clock: str = "wall"
    fields: tuple = ()

    def get(self, key: str, default=None):
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def to_dict(self) -> dict:
        record = {"name": self.name, "t": self.t, "clock": self.clock}
        for key, value in self.fields:
            record[key] = value
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


def make_event(name: str, t: int | float = 0, clock: str = "wall",
               **fields) -> Event:
    """Build a frozen :class:`Event`, validating field values early."""
    for key, value in fields.items():
        if not isinstance(value, _SCALARS):
            raise TypeError(
                f"event field {key!r} must be a JSON scalar, "
                f"got {type(value).__name__}")
    return Event(name=name, t=t, clock=clock,
                 fields=_canonical_fields(fields))


class EventBus:
    """Fans events out to subscribers.

    A bus with no subscriber drops every event: always-on
    instrumentation is free when nobody is watching, and the bus holds
    no memory in long library runs.
    """

    def __init__(self) -> None:
        self._subscribers: list = []

    # -- lifecycle ----------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._subscribers)

    def subscribe(self, sink) -> None:
        """`sink` is called with every subsequent :class:`Event`."""
        self._subscribers.append(sink)

    def unsubscribe(self, sink) -> None:
        self._subscribers.remove(sink)

    # -- emission -----------------------------------------------------------

    def emit(self, name: str, t: int | float = 0, clock: str = "wall",
             **fields) -> Event | None:
        """Emit one event; returns it, or None when the bus is inactive."""
        if not self._subscribers:
            return None
        event = make_event(name, t=t, clock=clock, **fields)
        for sink in self._subscribers:
            sink(event)
        return event


class JsonlWriter:
    """A subscriber that streams events straight to a JSONL file.

    Line-buffered on purpose: every event is flushed as one write, so a
    forked worker process (the prover's process pool inherits the bus and
    this writer) never duplicates a parent's half-flushed buffer and
    never tears a line — worker-side spans simply append to the same
    trace.  `count` is per-process; the file may hold more lines than
    the parent counted."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.count = 0
        self._fh = open(path, "w", encoding="utf-8", buffering=1)

    def __call__(self, event: Event) -> None:
        self._fh.write(event.to_json() + "\n")
        self.count += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


# ---------------------------------------------------------------------------
# The trace schema
# ---------------------------------------------------------------------------

#: Required keys of every trace record and their accepted types.
SCHEMA_REQUIRED = {
    "name": (str,),
    "t": (int, float),
    "clock": (str,),
}

#: Accepted values of the `clock` discriminator.
CLOCK_DOMAINS = ("wall", "sim")


def validate_record(record: object) -> list[str]:
    """Validate one parsed JSONL record; returns a list of problems
    (empty = valid).  This is the schema the CI trace job enforces."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    for key, types in SCHEMA_REQUIRED.items():
        if key not in record:
            problems.append(f"missing required key {key!r}")
        elif not isinstance(record[key], types) or isinstance(record[key],
                                                              bool):
            problems.append(
                f"key {key!r} has type {type(record[key]).__name__}")
    if isinstance(record.get("name"), str) and not record["name"]:
        problems.append("empty event name")
    if "clock" in record and record.get("clock") not in CLOCK_DOMAINS:
        problems.append(f"unknown clock domain {record.get('clock')!r}")
    if isinstance(record.get("t"), (int, float)) \
            and not isinstance(record.get("t"), bool) and record["t"] < 0:
        problems.append(f"negative timestamp {record['t']}")
    for key, value in record.items():
        if not isinstance(key, str):
            problems.append(f"non-string key {key!r}")
        elif key not in SCHEMA_REQUIRED and not isinstance(value, _SCALARS):
            problems.append(
                f"field {key!r} is not a JSON scalar "
                f"({type(value).__name__})")
    return problems


def validate_jsonl_line(line: str) -> list[str]:
    """Parse + validate one line of a trace file."""
    try:
        record = json.loads(line)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    return validate_record(record)
