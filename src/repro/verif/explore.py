"""Bounded state-space exploration (explicit-state model checking).

Used to discharge inductive-invariant and simulation obligations over the
small representative configurations the proof enumerates — the "lightweight
formal methods" flavour of the paper's refinement proof.

The second half is the kit a proof layer builds its spec obligations from
(:mod:`repro.verif.schedproof`, :mod:`repro.verif.rgproof`): an
:class:`Explored` machine shared across the layer's VC family, the coverage
VC over it, :func:`check_inductive` for induction and per-action stability,
and the vacuity VC that keeps the invariants honest.  :func:`interleave`
is the kit's schedule-replay driver: every obligation that runs real step
generators under an adversarial seeded scheduler (NR linearizability, the
two race replays) is a `step` function handed to it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.verif.statemachine import SpecStateMachine
from repro.verif.vc import VC


@dataclass
class ExploreResult:
    """Result of a bounded reachability run."""

    states: list = field(default_factory=list)
    truncated: bool = False
    violation: tuple | None = None  # (invariant_name, state, trace)

    @property
    def ok(self) -> bool:
        return self.violation is None


def reachable_states(
    machine: SpecStateMachine,
    max_states: int = 10_000,
    max_depth: int | None = None,
) -> ExploreResult:
    """BFS over the machine's reachable states, checking invariants.

    Traces to violations are recorded so VC counterexamples are replayable.
    On a violation, `states` holds every state discovered so far in BFS
    order (checked or still queued), so the result does not depend on
    the hash seed.
    """
    result = ExploreResult()
    seen: set = set()
    queue: deque = deque()
    for init in machine.init_states:
        if init in seen:
            continue
        seen.add(init)
        queue.append((init, 0, ()))

    while queue:
        state, depth, trace = queue.popleft()
        violated = machine.check_invariants(state)
        if violated is not None:
            result.violation = (violated, state, trace)
            result.states += [state] + [queued for queued, _, _ in queue]
            return result
        result.states.append(state)
        if max_depth is not None and depth >= max_depth:
            result.truncated = True
            continue
        for name, args, successor in machine.enabled_steps(state):
            if successor in seen:
                continue
            if len(seen) >= max_states:
                result.truncated = True
                continue
            seen.add(successor)
            queue.append((successor, depth + 1, trace + ((name, args),)))
    return result


def check_inductive(
    machine: SpecStateMachine,
    states,
    invariant_name: str,
    action: str | None = None,
) -> tuple | None:
    """Check that one invariant is inductive over a given set of states:
    if it holds in `s` it holds after every enabled step — or, with
    `action`, after every enabled step of that one transition (the
    invariant is *stable* under the action; the machine's memoised
    transition relation is filtered, not recomputed).  Verdicts come
    from the machine's memo (`SpecStateMachine.violated`), so a state
    judged by exploration or by a sibling induction VC is not judged
    again.  Returns a counterexample (state, transition, args,
    successor) or None."""
    if invariant_name not in machine.invariants:
        raise KeyError(invariant_name)
    violated = machine.violated
    for state in states:
        if invariant_name in violated(state):
            continue  # vacuous: induction only cares about inv states
        for name, args, successor in machine.enabled_steps(state):
            if action is not None and name != action:
                continue
            if invariant_name in violated(successor):
                return (state, name, args, successor)
    return None


@dataclass
class Explored:
    """A spec machine and its reachable set, built and explored once on
    first use and shared across the VC family that closes over it."""

    build: Callable[[], SpecStateMachine]
    cap: int   # `max_states`; hitting it fails the coverage VC

    @cached_property
    def machine(self) -> SpecStateMachine:
        return self.build()

    @cached_property
    def result(self) -> ExploreResult:
        return reachable_states(self.machine, max_states=self.cap)


def explored_vc(explored: Explored, name: str, category: str,
                description: str) -> VC:
    """Coverage: exploration reached a fixed point under the cap with
    every invariant holding in every state."""

    def check():
        result = explored.result
        if result.truncated:
            return ("state space exceeded the exploration cap",
                    explored.cap)
        if not result.ok:
            invariant, state, trace = result.violation
            return (invariant, trace, state)
        return None

    return VC(name=name, category=category, check=check,
              description=description)


def vacuity_vc(name: str, category: str, description: str,
               broken: Callable[[], dict], flags: Callable) -> VC:
    """Vacuity guard: `broken()` maps invariant names to hand-built states
    that violate them, and `flags(invariant, state)` must say so."""

    def check():
        for invariant, state in broken().items():
            if not flags(invariant, state):
                return ("broken state not flagged", invariant, state)
        return None

    return VC(name=name, category=category, check=check,
              description=description)


class SchedulingError(Exception):
    """The scheduler could not finish (livelock beyond the step budget)."""


def interleave(runners, seed: int, step: Callable[[object], bool],
               max_steps: int) -> None:
    """Seeded adversarial schedule replay: until no runner is live, pick
    one with ``rng.choice`` and advance it by ``step(runner)``, which
    returns whether the runner is still live.  The pick that finishes a
    runner is consumed like any other, and live runners keep their
    relative order, so a seed names one schedule exactly."""
    rng = random.Random(seed)
    active = list(runners)
    steps = 0
    while active:
        steps += 1
        if steps > max_steps:
            raise SchedulingError(
                f"interleaving did not finish within {max_steps} steps")
        runner = rng.choice(active)
        if not step(runner):
            active.remove(runner)
