"""Specification state machines.

The paper (Section 3) specifies the OS as a state machine whose transitions
are the system calls and memory operations a process can observe.  This
module provides the abstraction: immutable (hashable) states, labelled
transitions with enabling conditions, and invariants.

States are whatever hashable objects the spec author chooses; transitions
are pure functions.  Argument generators make bounded exploration and
obligation generation possible.
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
    _steps: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _verdicts: dict = field(default_factory=dict, init=False, repr=False,
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

    def enabled_steps(self, state) -> tuple[tuple[str, tuple, object], ...]:
        """All (name, args, successor) triples enabled from `state`.

        Computed once per state and machine instance: exploration and
        every per-invariant induction pass over the same states then
        share one transition relation.  Sound because transitions are
        pure functions of hashable frozen states (`repro analyze`'s
        purity lint covers every spec-layer transition); a sub-machine
        built from a subset of the transitions has its own memo."""
        steps = self._steps.get(state)
        if steps is None:
            steps = self._steps[state] = tuple(
                (t.name, args, t.apply(state, args))
                for t in self.transitions
                for args in t.arg_tuples(state)
                if t.enabled(state, args)
            )
        return steps

    def violated(self, state) -> tuple[str, ...]:
        """Names of the invariants `state` violates, in declaration
        order; empty when every invariant holds.

        Memoised like `enabled_steps` and sound for the same reason:
        invariants are pure predicates over frozen states.  Exploration,
        the coverage VC and every induction VC then judge each (state,
        invariant) pair once.  A machine's `invariants` dict is not to be
        edited after its first verdict; a sub-machine with other
        invariants has its own memo."""
        verdict = self._verdicts.get(state)
        if verdict is None:
            verdict = self._verdicts[state] = tuple(
                name for name, pred in self.invariants.items()
                if not pred(state))
        return verdict

    def check_invariants(self, state) -> str | None:
        """Name of the first violated invariant, or None."""
        verdict = self.violated(state)
        return verdict[0] if verdict else None
