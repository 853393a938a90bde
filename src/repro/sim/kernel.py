"""The discrete-event simulation kernel.

Simulated processes are Python generators that yield *commands*:

* ``Delay(ns)`` — advance this process's local time,
* ``Acquire(lock)`` / ``Release(lock)`` — FIFO mutual exclusion,
* ``Wait(event)`` — block until the event fires,
* ``Fire(event, value)`` — wake all waiters, delivering `value`.

Time is in integer nanoseconds.  The kernel is deterministic: two events
at the same time run in the order their processes were *spawned* (by
pid), whenever and in whatever order they were scheduled.  A process has
at most one pending event, so ``(time, pid)`` orders the queue totally,
and the order of a tie is a function of the two events alone, not of the
run's history: a process may take a step that touches no shared state
without yielding (charging its cost with the next `Delay`) and no other
event moves.  That is what lets `repro.nr.timed` fold a lost combine
attempt and its backoff into one event.

Commands are immutable values: the kernel reads a command's fields while
it handles the yield and keeps no reference to it afterwards, so a process
may yield the same instance any number of times and share it with others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush, heappushpop
from typing import Generator


@dataclass(frozen=True)
class Delay:
    ns: int


@dataclass(frozen=True)
class Acquire:
    lock: "object"


@dataclass(frozen=True)
class Release:
    lock: "object"


@dataclass(frozen=True)
class Wait:
    event: "Event"


@dataclass(frozen=True)
class Fire:
    event: "Event"
    value: object = None


@dataclass
class Event:
    """A broadcast event processes can wait on."""

    name: str = ""
    waiters: list = field(default_factory=list)


class _Process:
    __slots__ = ("gen", "pid", "name")

    def __init__(self, gen: Generator, pid: int, name: str) -> None:
        self.gen = gen
        self.pid = pid
        self.name = name


class SimulationError(Exception):
    """A process yielded an unknown command or misused a resource."""


class Simulator:
    """The event loop."""

    def __init__(self) -> None:
        self.now = 0
        #: (when, pid, process, value); pid breaks ties, so `process`
        #: and `value` are never compared.
        self._queue: list[tuple[int, int, _Process, object]] = []
        #: Entries ever scheduled (the count behind `events`).
        self._seq = 0
        self._next_pid = 0
        self.completed = 0

    def spawn(self, gen: Generator, name: str = "", at: int | None = None):
        """Schedule a new process; returns its pid."""
        process = _Process(gen, self._next_pid, name or f"proc{self._next_pid}")
        self._next_pid += 1
        self._schedule(at if at is not None else self.now, process, None)
        return process.pid

    def _schedule(self, when: int, process: _Process, value) -> None:
        heappush(self._queue, (when, process.pid, process, value))
        self._seq += 1

    @property
    def events(self) -> int:
        """Events dispatched so far (every event ever scheduled was
        counted; the ones not dispatched are still queued)."""
        return self._seq - len(self._queue)

    def run(self, until: int | None = None) -> None:
        """Run until the queue drains (or simulated time passes `until`).

        One event is: take the earliest entry, resume its process, act on
        the command it yields.  Nearly every event of a timed run is a
        plain non-negative `Delay`, so that case is handled here, and it
        pushes the process's next entry and takes the earliest one in a
        single `heappushpop`; every other command, and every malformed
        one, goes to `_execute`."""
        queue = self._queue
        if not queue:
            return
        entry = heappop(queue)
        while True:
            when, pid, process, value = entry
            if until is not None and when > until:
                heappush(queue, entry)
                return
            self.now = when
            try:
                command = process.gen.send(value)
            except StopIteration:
                self.completed += 1
            else:
                if command.__class__ is Delay and command.ns >= 0:
                    self._seq += 1
                    entry = heappushpop(
                        queue, (when + command.ns, pid, process, None))
                    continue
                self._execute(process, command)
            if not queue:
                return
            entry = heappop(queue)

    def _execute(self, process: _Process, command) -> None:
        if isinstance(command, Delay):
            if command.ns < 0:
                raise SimulationError(f"negative delay {command.ns}")
            self._schedule(self.now + command.ns, process, None)
        elif isinstance(command, Acquire):
            command.lock._acquire(self, process)
        elif isinstance(command, Release):
            command.lock._release(self, process)
        elif isinstance(command, Wait):
            command.event.waiters.append(process)
        elif isinstance(command, Fire):
            waiters = command.event.waiters
            command.event.waiters = []
            for waiter in waiters:
                self._schedule(self.now, waiter, command.value)
            self._schedule(self.now, process, None)
        else:
            raise SimulationError(f"unknown command {command!r}")
