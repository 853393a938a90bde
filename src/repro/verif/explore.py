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

    Traces to violations are recorded so VC counterexamples are replayable:
    each discovered state keeps one parent link (the state and step it
    was first reached by), and the trace is rebuilt from the links only
    when there is a violation.  On a violation, `states` holds every
    state discovered so far in BFS order (checked or still queued), so
    the result does not depend on the hash seed.  `truncated` means some
    state was left undiscovered: the cap was hit, or a state at
    `max_depth` has a successor the run has not seen.
    """
    result = ExploreResult()
    seen: set[int] = set()
    order: list[int] = []   # discovered ids, in BFS order
    links: list = []        # per index in `order`: (parent index, step index)
    for init in machine.init_states:
        sid = machine.intern(init)
        if sid not in seen:
            seen.add(sid)
            order.append(sid)
            links.append(None)

    successors_of, verdict_of = machine.successors_of, machine.verdict_of
    depth, level_end = 0, len(order)
    for index, sid in enumerate(order):   # sees the ids appended below
        if index == level_end:
            depth, level_end = depth + 1, len(order)
        verdict = verdict_of(sid)
        if verdict:
            result.violation = (verdict[0], machine.state_of(sid),
                                _trace(machine, order, links, index))
            break
        if max_depth is not None and depth >= max_depth:
            if not result.truncated:
                result.truncated = any(successor not in seen
                                       for successor in successors_of(sid))
            continue
        for k, successor in enumerate(successors_of(sid)):
            if successor in seen:
                continue
            if len(seen) >= max_states:
                result.truncated = True
                continue
            seen.add(successor)
            order.append(successor)
            links.append((index, k))
    result.states = [machine.state_of(sid) for sid in order]
    return result


def _trace(machine: SpecStateMachine, order: list, links: list,
           index: int) -> tuple:
    """The (name, args) steps from an initial state to `order[index]`,
    following parent links."""
    trace = []
    while links[index] is not None:
        index, k = links[index]
        name, args, _ = machine.steps_of(order[index])[k]
        trace.append((name, args))
    return tuple(reversed(trace))


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
    transition relation is filtered, not recomputed).  Each candidate is
    interned once and its successors are walked by id, so verdicts come
    from the machine's memo (`SpecStateMachine.violated`) without
    rehashing a state: a state judged by exploration or by a sibling
    induction VC is not judged again.  Returns a counterexample (state,
    transition, args, successor) or None; an unknown invariant or action
    raises `KeyError`."""
    if invariant_name not in machine.invariants:
        raise KeyError(invariant_name)
    if action is not None:
        machine.transition(action)
    intern, verdict_of = machine.intern, machine.verdict_of
    steps_of, successors_of = machine.steps_of, machine.successors_of
    for state in states:
        sid = intern(state)
        if invariant_name in verdict_of(sid):
            continue  # vacuous: induction only cares about inv states
        for (name, args, successor), successor_id in zip(
                steps_of(sid), successors_of(sid)):
            if action is not None and name != action:
                continue
            if invariant_name in verdict_of(successor_id):
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
