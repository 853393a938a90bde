"""Adversarial interleaving of NR step generators.

Runs a set of per-thread operation sequences against one
:class:`~repro.nr.core.NodeReplicated` instance, interleaving protocol steps
under a seeded random scheduler, and records the concurrent history for the
linearizability checker.  Logical time is the global step counter, so
real-time order in the history is exactly the order the scheduler produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nr.core import NodeReplicated
from repro.nr.linearizability import History, Invocation
from repro.verif.explore import interleave


@dataclass
class ThreadScript:
    """The operations one thread will perform, in order.

    Each element is ``(op, is_read)``."""

    thread: int
    node: int
    ops: list[tuple[object, bool]]


def run_interleaved(
    nr: NodeReplicated,
    scripts: list[ThreadScript],
    seed: int,
    max_steps: int = 200_000,
    monitor=None,
) -> History:
    """Interleave the scripts' protocol steps randomly; returns the
    history.  `monitor` (the race detector's instrumentation point) is
    told which thread each protocol step belongs to and its label."""
    history = History()
    clock = 0

    @dataclass
    class _Runner:
        script: ThreadScript
        index: int = 0
        gen: object = None
        invoked_at: int = 0

        def start_next(self) -> bool:
            if self.index >= len(self.script.ops):
                return False
            op, is_read = self.script.ops[self.index]
            steps = nr.read_steps if is_read else nr.execute_steps
            self.gen = steps(op, self.script.node, self.script.thread)
            self.invoked_at = clock
            return True

    def step(runner: _Runner) -> bool:
        nonlocal clock
        clock += 1
        if monitor is not None:
            monitor.step_begin(runner.script.thread)
        try:
            label, done = next(runner.gen), False
        except StopIteration as stop:
            label, done = None, True
            op, is_read = runner.script.ops[runner.index]
            history.add(
                Invocation(
                    thread=runner.script.thread,
                    op=op,
                    result=stop.value,
                    invoked_at=runner.invoked_at,
                    responded_at=clock,
                    is_read=is_read,
                )
            )
            runner.index += 1
        if monitor is not None:
            monitor.step_end(label)
        return runner.start_next() if done else True

    runners = [_Runner(s) for s in scripts]
    # every script is started before the first pick; empty ones never run
    interleave([r for r in runners if r.start_next()], seed, step, max_steps)
    return history
