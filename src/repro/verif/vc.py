"""Verification-condition objects.

A VC is a single, independently checkable proof obligation with a name, a
category (used to group the proof report the way Figure 2 groups the layers),
and a discharge strategy.  Discharging returns a :class:`VCResult` carrying
the outcome, the wall-clock time (the quantity plotted in Figure 1a), and a
counterexample when the obligation fails.

SMT-backed VCs additionally expose their `goal_builder`, so the prover
subsystem (:mod:`repro.prover`) can fingerprint the goal term for the
persistent proof cache and discharge it under a conflict budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro import obs


class VCStatus(enum.Enum):
    PROVED = "proved"
    FAILED = "failed"
    ERROR = "error"
    #: The solver ran out of its conflict budget before deciding the goal.
    #: Distinct from FAILED: a timed-out VC has no counterexample and may
    #: yet be proved with a larger budget (the scheduler's retry ladder).
    TIMEOUT = "timeout"


@dataclass
class VCResult:
    """Outcome of discharging one verification condition."""

    name: str
    status: VCStatus
    seconds: float
    category: str = ""
    detail: str = ""
    counterexample: object = None
    #: Time spent inside the solving pipeline itself (rewrite + bit-blast +
    #: SAT) — the "cumulative solver time" the event stream reports against
    #: wall-clock.  For non-SMT VCs this equals `seconds`.
    solver_seconds: float = 0.0
    #: True when the result was served from the persistent proof cache
    #: instead of being recomputed.
    cached: bool = False
    #: Machine-independent solver counters (conflicts, decisions, ...) for
    #: SMT VCs — what the proof cache persists alongside the verdict.
    solver_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is VCStatus.PROVED

    def key(self) -> tuple:
        """The machine-independent content of the result (no timings) —
        what must be identical between serial and parallel runs."""
        return (self.name, self.status.value, self.category, self.detail,
                repr(self.counterexample))


@dataclass
class VC:
    """A verification condition.

    `check` returns ``None`` on success or a counterexample object (anything
    truthy/printable) on failure.  Exceptions are caught by the engine and
    reported as ``ERROR``.

    When the VC is an SMT goal, `goal_builder` is the zero-argument term
    constructor and `simplify` the solver configuration; `check` may then be
    ``None`` — discharge routes through the solver directly, which lets
    callers impose a conflict budget (`max_conflicts`).
    """

    name: str
    category: str
    check: Callable[[], object | None] | None
    description: str = ""
    goal_builder: Callable[[], object] | None = None
    simplify: bool = True

    @property
    def is_smt(self) -> bool:
        return self.goal_builder is not None

    def _invoke(self, max_conflicts: int | None, preprocess: bool):
        if self.goal_builder is not None:
            from repro.smt.solver import prove

            return _refutation(prove(self.goal_builder(),
                                     simplify=self.simplify,
                                     max_conflicts=max_conflicts,
                                     preprocess=preprocess))
        assert self.check is not None, f"VC {self.name} has no strategy"
        return self.check(), None

    def discharge(self, max_conflicts: int | None = None,
                  preprocess: bool = True) -> VCResult:
        return _attempt(self, lambda: self._invoke(max_conflicts, preprocess))


def _refutation(result):
    """``(counterexample, stats)`` of a solver result: a model of the
    negated goal refutes it, no model proves it."""
    return (result.model if result.sat else None), result.stats


def _attempt(vc: VC, run) -> VCResult:
    """One timed attempt at `vc`, for a single-shot discharge and a family
    member alike: `run()` returns ``(counterexample | None, solver stats |
    None)`` or raises."""
    from repro.smt.sat import BudgetExceeded

    # The span is the Figure 1a unit of measurement: its duration
    # joins the labeled `vc.discharge_seconds` population and, when
    # tracing is on, appears as a `vc.discharge` event.
    span = obs.span("vc.discharge", histogram="vc.discharge_seconds",
                    labels={"category": vc.category}, vc=vc.name).start()
    try:
        counterexample, stats = run()
    except BudgetExceeded as exc:
        elapsed = span.finish()
        return VCResult(vc.name, VCStatus.TIMEOUT, elapsed, vc.category,
                        detail=str(exc), solver_seconds=elapsed)
    except Exception as exc:  # surfaced, never swallowed silently
        return VCResult(vc.name, VCStatus.ERROR, span.finish(), vc.category,
                        detail=f"{type(exc).__name__}: {exc}")
    elapsed = span.finish()
    failed = counterexample is not None
    return VCResult(
        name=vc.name,
        status=VCStatus.FAILED if failed else VCStatus.PROVED,
        seconds=elapsed,
        category=vc.category,
        detail=str(counterexample) if failed else "",
        counterexample=counterexample,
        solver_seconds=stats.solver_seconds if stats is not None else elapsed,
        solver_stats=stats.deterministic() if stats is not None else {},
    )


def worker_failed(vc: VC, exc: BaseException) -> VCResult:
    """The verdict of a VC whose worker died before answering: a dead
    worker costs one ERROR, never the run."""
    return VCResult(vc.name, VCStatus.ERROR, 0.0, vc.category,
                    detail=f"worker failed: {type(exc).__name__}: {exc}")


def _climb(vc: VC, budgets, attempt, on_member=None,
           seconds: float = 0.0) -> tuple[VCResult, int]:
    """The retry ladder: call `attempt(budget)` up the conflict budgets
    until one does not time out.  `on_member(vc)` — the scheduler's
    fault-injection hook — runs first, and an exception it raises is that
    VC's verdict.  Returns the last result, its `seconds` (starting from
    the caller's share of any set-up) and `solver_seconds` summed over
    the attempts, and the attempt count.  A non-SMT VC has no budget to
    overrun and runs once."""
    if on_member is not None:
        try:
            on_member(vc)
        except Exception as exc:
            return worker_failed(vc, exc), 1
    ladder = tuple(budgets) if vc.is_smt and budgets else (None,)
    solver_seconds = 0.0
    for number, budget in enumerate(ladder, start=1):
        result = attempt(budget)
        seconds += result.seconds
        solver_seconds += result.solver_seconds
        if result.status is not VCStatus.TIMEOUT:
            break
    result.seconds, result.solver_seconds = seconds, solver_seconds
    return result, number


def discharge_single(vc: VC, budgets=(None,), preprocess: bool = True,
                     on_member=None) -> tuple[VCResult, int]:
    """Classic one-solver-per-VC discharge under the retry ladder."""
    return _climb(vc, budgets,
                  lambda budget: vc.discharge(max_conflicts=budget,
                                              preprocess=preprocess),
                  on_member)


def discharge_family(vcs: list[VC], budgets=(None,), preprocess: bool = True,
                     on_member: Callable[[VC], None] | None = None,
                     ) -> list[tuple[VCResult, int]]:
    """Discharge structurally-similar SMT VCs through one shared
    incremental solver (:class:`repro.smt.solver.FamilySolver`).

    Members run in the given order — the scheduler passes canonical engine
    order, which makes every member's delta-counters a deterministic
    function of the family alone.  Each member climbs the same ladder of
    the same attempts as a single-shot discharge (a retry reuses the
    shared solver, so clauses learnt during the failed attempt still
    help), `on_member` included: a member it fails gets an ERROR verdict
    and the family moves on.
    """
    from repro.smt.solver import FamilySolver

    assert vcs and all(vc.is_smt for vc in vcs)
    try:
        goals = [vc.goal_builder() for vc in vcs]
        shared = FamilySolver(goals, simplify=vcs[0].simplify,
                              preprocess=preprocess)
    except Exception:
        # A family that cannot even build its shared context degrades to
        # one classic single-shot discharge per member — the goal builder
        # (or solver) error then surfaces per-VC, exactly as it would have
        # without grouping.
        return [discharge_single(vc, budgets, preprocess, on_member)
                for vc in vcs]
    # Setup (rewrite + blast + encode + preprocess of the union) happened
    # once for everyone; spread it evenly over the members' timings.
    setup_share = shared.setup_seconds / len(vcs)

    def member(index: int, vc: VC) -> tuple[VCResult, int]:
        def attempt(budget):
            return _attempt(vc, lambda: _refutation(
                shared.prove_member(index, max_conflicts=budget)))

        return _climb(vc, budgets, attempt, on_member, seconds=setup_share)

    return [member(index, vc) for index, vc in enumerate(vcs)]


@dataclass
class VCGroup:
    """A named collection of VCs (one proof layer in Figure 2)."""

    name: str
    vcs: list[VC] = field(default_factory=list)

    def add(self, vc: VC) -> None:
        self.vcs.append(vc)

    def __len__(self) -> int:
        return len(self.vcs)


def smt_vc(name: str, category: str, goal_builder, description: str = "",
           simplify: bool = True) -> VC:
    """A VC discharged by the SMT solver.

    `goal_builder` is a zero-argument callable returning the goal term, so
    term construction time is attributed to the VC the way Verus attributes
    encoding time to each function's verification time.
    """

    return VC(name=name, category=category, check=None,
              description=description, goal_builder=goal_builder,
              simplify=simplify)


def forall_vc(name: str, category: str, cases, predicate, description: str = "") -> VC:
    """A VC discharged by exhaustive enumeration of `cases`.

    `cases` is an iterable (or a callable returning one); `predicate` returns
    True for good cases.  The first failing case is the counterexample.
    """

    def check():
        iterable = cases() if callable(cases) else cases
        for case in iterable:
            if not predicate(case):
                return case
        return None

    return VC(name=name, category=category, check=check, description=description)
