"""Specification state machines.

The paper (Section 3) specifies the OS as a state machine whose transitions
are the system calls and memory operations a process can observe.  This
module provides the abstraction: immutable (hashable) states, labelled
transitions with enabling conditions, and invariants.

States are whatever hashable objects the spec author chooses; transitions
are pure functions.  Argument generators make bounded exploration and
obligation generation possible.  A machine interns the states it meets
(one id and one canonical object per distinct state) and keys its
transition and verdict memos by id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass(frozen=True)
class Transition:
    """A labelled transition of a specification state machine.

    Attributes:
        name: label, e.g. ``"map"`` or ``"read"``.
        enabled: predicate ``(state, args) -> bool``; the transition may
            only fire from states where this holds.
        apply: pure update ``(state, args) -> state``.
        args: generator of argument tuples used for bounded exploration,
            either an iterable or a callable ``(state) -> iterable``.
    """

    name: str
    enabled: Callable
    apply: Callable
    args: object = ((),)

    def arg_tuples(self, state) -> Iterable[tuple]:
        if callable(self.args):
            return self.args(state)
        return self.args


@dataclass
class SpecStateMachine:
    """A specification state machine with invariants.

    Attributes:
        name: machine name for reporting.
        init_states: the (small, representative) set of initial states used
            by bounded exploration.
        transitions: the labelled transition relation.
        invariants: named predicates expected to hold in every reachable
            state.
    """

    name: str
    init_states: list
    transitions: list[Transition]
    invariants: dict[str, Callable] = field(default_factory=dict)
    _ids: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)
    _states: list = field(default_factory=list, init=False, repr=False,
                          compare=False)
    _steps: list = field(default_factory=list, init=False, repr=False,
                         compare=False)
    _successors: list = field(default_factory=list, init=False,
                              repr=False, compare=False)
    _verdicts: list = field(default_factory=list, init=False, repr=False,
                            compare=False)

    def transition(self, name: str) -> Transition:
        for t in self.transitions:
            if t.name == name:
                return t
        raise KeyError(f"{self.name} has no transition {name!r}")

    def step(self, state, name: str, args: tuple = ()):
        """Fire a transition by name, checking its enabling condition."""
        t = self.transition(name)
        if not t.enabled(state, args):
            raise ValueError(
                f"transition {name!r} not enabled with args {args!r}"
            )
        return t.apply(state, args)

    # -- the intern table ---------------------------------------------------

    def intern(self, state) -> int:
        """This machine's id for `state`, assigned the first time an equal
        state is seen; one hash per call.  The first object seen is the
        canonical one: `state_of(id)` returns it, and every memoised
        successor equal to it is that object."""
        sid = self._ids.setdefault(state, len(self._states))
        if sid == len(self._states):
            self._states.append(state)
            self._steps.append(None)
            self._successors.append(None)
            self._verdicts.append(None)
        return sid

    def state_of(self, sid: int):
        return self._states[sid]

    def steps_of(self, sid: int) -> tuple[tuple[str, tuple, object], ...]:
        """`enabled_steps` of the state with id `sid`."""
        steps = self._steps[sid]
        if steps is None:
            state, intern, states = self._states[sid], self.intern, \
                self._states
            steps, successors = [], []
            for t in self.transitions:
                for args in t.arg_tuples(state):
                    if t.enabled(state, args):
                        successor = intern(t.apply(state, args))
                        successors.append(successor)
                        steps.append((t.name, args, states[successor]))
            self._successors[sid] = tuple(successors)
            steps = self._steps[sid] = tuple(steps)
        return steps

    def successors_of(self, sid: int) -> tuple[int, ...]:
        """Ids of the successors of `steps_of(sid)`, in the same order."""
        successors = self._successors[sid]
        if successors is None:
            self.steps_of(sid)
            successors = self._successors[sid]
        return successors

    def verdict_of(self, sid: int) -> tuple[str, ...]:
        """`violated` of the state with id `sid`."""
        verdict = self._verdicts[sid]
        if verdict is None:
            state = self._states[sid]
            verdict = self._verdicts[sid] = tuple(
                name for name, pred in self.invariants.items()
                if not pred(state))
        return verdict

    # -- by state -----------------------------------------------------------

    def enabled_steps(self, state) -> tuple[tuple[str, tuple, object], ...]:
        """All (name, args, successor) triples enabled from `state`.

        Computed once per state and machine instance: exploration and
        every per-invariant induction pass over the same states then
        share one transition relation, and each successor is the
        canonical (first interned) object equal to it.  Sound because
        transitions are pure functions of hashable frozen states
        (`repro analyze`'s purity lint covers every spec-layer
        transition); a sub-machine built from a subset of the
        transitions has its own memo."""
        return self.steps_of(self.intern(state))

    def violated(self, state) -> tuple[str, ...]:
        """Names of the invariants `state` violates, in declaration
        order; empty when every invariant holds.

        Memoised like `enabled_steps` and sound for the same reason:
        invariants are pure predicates over frozen states.  Exploration,
        the coverage VC and every induction VC then judge each (state,
        invariant) pair once.  A machine's `invariants` dict is not to be
        edited after its first verdict; a sub-machine with other
        invariants has its own memo."""
        return self.verdict_of(self.intern(state))

    def check_invariants(self, state) -> str | None:
        """Name of the first violated invariant, or None."""
        verdict = self.violated(state)
        return verdict[0] if verdict else None
