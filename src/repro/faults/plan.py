"""The fault plan: seeded, rule-driven, fully replayable.

A :class:`FaultPlan` is built from a seed and a list of :class:`FaultRule`
entries.  Injection sites call :meth:`FaultPlan.draw` with their site name
(``"disk.write"``, ``"link.tx"``, ``"pmem.alloc"``, ...); the plan matches
the site against each rule's glob pattern, advances that rule's private
counter and RNG stream, and returns the first rule that fires as a
:class:`FaultDecision` (or ``None``).

Determinism contract: two plans constructed from the same ``(seed, rules)``
tuple, asked the same sequence of ``draw`` calls, make identical decisions
— each rule owns an independent ``random.Random`` stream seeded from the
plan seed and the rule's position, so one site's traffic never perturbs
another rule's dice.  The full decision history is kept in
:attr:`FaultPlan.log` so campaigns can print and compare runs.
"""

from __future__ import annotations

import fnmatch
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class FaultRule:
    """One injection rule.

    Triggering, in precedence order:

    * ``at`` — fire exactly on the Nth matching operation (1-based);
    * ``every`` — fire on every Nth matching operation;
    * ``probability`` — fire with this per-operation probability.

    ``after`` suppresses triggers for the first N matching operations and
    ``max_triggers`` caps the total number of injections from this rule.
    """

    site: str                      # glob pattern: "disk.write", "link.*"
    kind: str                      # "io-error", "torn", "crash", "drop", ...
    probability: float = 0.0
    at: int | None = None
    every: int | None = None
    after: int = 0
    max_triggers: int | None = None


@dataclass
class FaultDecision:
    """A single fired injection, handed to the site that asked."""

    site: str          # the concrete site that drew (not the rule pattern)
    kind: str
    rule: FaultRule
    sequence: int      # global decision number (1-based)
    operation: int     # the rule's matching-operation counter at fire time
    _rng: random.Random = field(repr=False, default=None)

    def rand_below(self, bound: int) -> int:
        """A deterministic value in [0, bound) from the rule's stream —
        sites use this for torn-write lengths, corrupt byte offsets, ..."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self._rng.randrange(bound)


class FaultPlan:
    """Seeded decision engine shared by every injection site."""

    def __init__(self, seed: int, rules: list[FaultRule]) -> None:
        self.seed = seed
        self.rules = list(rules)
        self._rngs = [
            random.Random(f"{seed}/{index}/{rule.site}/{rule.kind}")
            for index, rule in enumerate(self.rules)
        ]
        self._matches = [0] * len(self.rules)
        self._fired = [0] * len(self.rules)
        self.log: list[FaultDecision] = []

    # -- the one call sites make -------------------------------------------

    def draw(self, site: str) -> FaultDecision | None:
        """Should `site` misbehave right now?  First firing rule wins."""
        decision = None
        for index, rule in enumerate(self.rules):
            if not fnmatch.fnmatchcase(site, rule.site):
                continue
            self._matches[index] += 1
            count = self._matches[index]
            rng = self._rngs[index]
            if rule.probability and rule.at is None and rule.every is None:
                # always consume the dice so later rules in the same stream
                # see the same sequence regardless of earlier outcomes
                roll = rng.random()
            else:
                roll = None
            if decision is not None:
                continue
            if count <= rule.after:
                continue
            if rule.max_triggers is not None \
                    and self._fired[index] >= rule.max_triggers:
                continue
            if rule.at is not None:
                fire = count == rule.at
            elif rule.every is not None:
                fire = count % rule.every == 0
            else:
                fire = roll is not None and roll < rule.probability
            if not fire:
                continue
            self._fired[index] += 1
            decision = FaultDecision(
                site=site,
                kind=rule.kind,
                rule=rule,
                sequence=len(self.log) + 1,
                operation=count,
                _rng=rng,
            )
            self.log.append(decision)
        return decision

    # -- accounting --------------------------------------------------------

    def injected_by_site(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for decision in self.log:
            out[decision.site] = out.get(decision.site, 0) + 1
        return out

    def injected_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for decision in self.log:
            out[decision.kind] = out.get(decision.kind, 0) + 1
        return out

    @property
    def injections(self) -> int:
        return len(self.log)

    def replayed(self) -> "FaultPlan":
        """A fresh plan with the same (seed, rules) — same future behavior."""
        return FaultPlan(self.seed, self.rules)

    def trace(self) -> list[str]:
        """Human-readable decision history (stable across replays)."""
        return [f"#{d.sequence} {d.site} {d.kind} (op {d.operation})"
                for d in self.log]
