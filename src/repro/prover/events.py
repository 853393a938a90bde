"""Typed events of a scheduled proof run, carried by :mod:`repro.obs`.

Every VC's lifecycle is observable: ``queued`` when the scheduler accepts
it, ``cache-hit`` when the persistent proof cache already holds a verdict,
``started``/``finished`` around an actual discharge (with the attempt
number of the retry ladder), and ``run-finished`` with the run totals.

:class:`ProofEvent` is the typed, frozen record; :class:`EventLog` keeps
the run's own (bounded) list for report summaries *and* republishes every
event on the process-wide :func:`repro.obs.bus` as ``prover.<kind>`` —
which is how ``python -m repro prove --trace out.jsonl`` lands prover
events in the same JSONL stream as SMT-phase spans and kernel-path
counters, instead of the private stream this module used to maintain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.obs.events import Event

QUEUED = "queued"
STARTED = "started"
FINISHED = "finished"
CACHE_HIT = "cache-hit"
RUN_FINISHED = "run-finished"


@dataclass(frozen=True)
class ProofEvent:
    kind: str
    vc: str = ""
    category: str = ""
    #: Seconds since the run started (monotonic, relative).
    t: float = 0.0
    #: Wall-clock duration of the discharge (``finished`` events).
    seconds: float = 0.0
    #: Time inside the solving pipeline (rewrite + blast + SAT).
    solver_seconds: float = 0.0
    #: Which lane executed the VC: "inline" or "proc".
    worker: str = ""
    #: Result status for ``finished`` events ("proved", "failed", ...).
    status: str = ""
    #: 1-based attempt number in the conflict-budget retry ladder.
    attempt: int = 0

    def to_obs_event(self) -> Event:
        """This record as a bus event (name ``prover.<kind>``), carrying
        only the fields that are meaningful for the kind."""
        fields: dict = {}
        if self.vc:
            fields["vc"] = self.vc
        if self.category:
            fields["category"] = self.category
        if self.worker:
            fields["worker"] = self.worker
        if self.kind in (FINISHED, RUN_FINISHED):
            fields["dur"] = self.seconds
            fields["solver_seconds"] = self.solver_seconds
        if self.status:
            fields["status"] = self.status
        if self.attempt:
            fields["attempt"] = self.attempt
        return obs.make_event(f"prover.{self.kind}", t=self.t, **fields)


@dataclass
class EventLog:
    """The run's event record: a bounded typed list for summaries, with
    every event republished on the shared :mod:`repro.obs` bus (free when
    nobody is tracing) and to an optional per-run callable sink."""

    events: list[ProofEvent] = field(default_factory=list)
    sink: object = None  # callable(ProofEvent) | None

    def emit(self, event: ProofEvent) -> None:
        self.events.append(event)
        shared = obs.bus()
        if shared.active:
            shared.emit_event(event.to_obs_event())
        if self.sink is not None:
            self.sink(event)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def of_kind(self, kind: str) -> list[ProofEvent]:
        return [e for e in self.events if e.kind == kind]
