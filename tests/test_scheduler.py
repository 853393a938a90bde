"""Scheduler unit tests: fair class, RT classes, affinity, migration.

The seed's behavioral tests are kept where the contract is unchanged
(round-robin among equals, block/wake, affinity) and adapted where the
multi-class scheduler refines the semantics: strict priority ordering
became weighted fair sharing (the seed's three priority levels are the
nice levels -10, 0 and +10), and the old aging-based starvation test
became the RT-throttle / min-vruntime starvation-freedom regression.
"""

import pytest

from repro.nros.proc.process import BlockReason, Thread, ThreadState
from repro.nros.sched.entity import (
    NICE_TO_WEIGHT,
    RT_THROTTLE_STREAK,
    SchedPolicy,
)
from repro.nros.sched.scheduler import Scheduler


class _FakeProcess:
    def __init__(self):
        self.name = "fake"
        self.pid = 0


def make_thread(name=""):
    def gen():
        yield

    return Thread(_FakeProcess(), gen(), name=name)


def run_quanta(sched, count, core=None):
    """Drive `count` picks, immediately requeueing each picked thread
    (a busy workload); returns the picked threads in order."""
    picked = []
    for _ in range(count):
        thread = sched.next_thread(core=core) if core is not None \
            else sched.next_thread()
        if thread is None:
            break
        picked.append(thread)
        sched.ready(thread)
    return picked


class TestBasics:
    def test_round_robin_same_priority(self):
        sched = Scheduler(num_cores=1)
        a, b = make_thread("a"), make_thread("b")
        sched.ready(a)
        sched.ready(b)
        first = sched.next_thread()
        sched.ready(first)
        second = sched.next_thread()
        assert {first.name, second.name} == {"a", "b"}
        assert first is not second

    def test_empty(self):
        sched = Scheduler(num_cores=2)
        assert sched.next_thread() is None
        assert not sched.has_runnable()

    def test_bad_core_count(self):
        with pytest.raises(ValueError):
            Scheduler(num_cores=0)

    def test_affinity_sticks(self):
        sched = Scheduler(num_cores=4)
        thread = make_thread()
        first = sched.assign_core(thread)
        assert sched.assign_core(thread) == first
        assert sched.core_of(thread) == first

    def test_least_loaded_placement(self):
        sched = Scheduler(num_cores=2)
        threads = [make_thread(str(i)) for i in range(4)]
        for t in threads:
            sched.ready(t)
        cores = {sched.core_of(t) for t in threads}
        assert cores == {0, 1}  # spread across both cores

    def test_block_wake(self):
        sched = Scheduler(num_cores=1)
        thread = make_thread()
        sched.ready(thread)
        assert sched.next_thread() is thread
        sched.block(thread, BlockReason("sleep", 5))
        assert thread.state is ThreadState.BLOCKED
        assert sched.blocked_count() == 1
        sched.wake(thread, ("value", 42))
        assert thread.state is ThreadState.READY
        assert thread.pending == ("value", 42)
        assert sched.blocked_count() == 0

    def test_wake_non_blocked_is_noop(self):
        sched = Scheduler(num_cores=1)
        thread = make_thread()
        sched.ready(thread)
        sched.wake(thread)  # READY, not BLOCKED
        assert sched.next_thread() is thread
        assert sched.next_thread() is None  # not double-queued

    def test_ready_is_idempotent(self):
        sched = Scheduler(num_cores=1)
        thread = make_thread()
        sched.ready(thread)
        sched.ready(thread)
        assert sched.runnable_count() == 1
        assert sched.next_thread() is thread
        assert sched.next_thread() is None
        assert sched.audit() == []


class TestFairClass:
    def test_nice_weights_drive_cpu_share(self):
        sched = Scheduler(num_cores=1)
        fast = make_thread("fast")    # nice -5: ~3x the weight of 0
        slow = make_thread("slow")
        sched.set_nice(fast, -5)
        sched.set_nice(slow, 0)
        sched.ready(fast)
        sched.ready(slow)
        picks = run_quanta(sched, 400)
        share = sum(1 for t in picks if t is fast) / len(picks)
        ideal = NICE_TO_WEIGHT[-5] / (NICE_TO_WEIGHT[-5]
                                      + NICE_TO_WEIGHT[0])
        assert abs(share - ideal) < 0.05
        assert sched.audit() == []

    def test_legacy_priorities_still_bias_share(self):
        # the seed's strict-priority semantics refine to weighted
        # sharing: its level 0 (nice -10) dominates its level 2
        # (nice +10) without starving it
        sched = Scheduler(num_cores=1)
        high, low = make_thread("high"), make_thread("low")
        sched.set_nice(high, -10)
        sched.set_nice(low, 10)
        sched.ready(high)
        sched.ready(low)
        picks = run_quanta(sched, 300)
        high_count = sum(1 for t in picks if t is high)
        low_count = len(picks) - high_count
        assert high_count > 5 * low_count
        assert low_count >= 1

    def test_priority_validated(self):
        sched = Scheduler(num_cores=1)
        with pytest.raises(ValueError):
            sched.set_nice(make_thread(), 20)

    def test_sleeper_gets_latency_bonus(self):
        sched = Scheduler(num_cores=1)
        sleeper = make_thread("sleeper")
        busy = [make_thread(f"busy{i}") for i in range(3)]
        for t in busy:
            sched.ready(t)
        sched.ready(sleeper)
        assert sched.next_thread() is not None
        sched.block(sleeper, BlockReason("sleep", 1))
        run_quanta(sched, 100)
        sched.wake(sleeper)
        # the woken sleeper is clamped near the queue minimum: it runs
        # within a couple of picks instead of repaying 100 quanta
        picks = run_quanta(sched, 4)
        assert sleeper in picks

    def test_starvation_regression_busy_high_priority_hog(self):
        # satellite: the seed's aging test, re-targeted — a busy-looping
        # high-priority thread must not starve a low-priority one
        sched = Scheduler(num_cores=1)
        hog = make_thread("hog")
        starved = make_thread("starved")
        sched.set_nice(hog, -10)
        sched.set_nice(starved, 10)
        sched.ready(hog)
        sched.ready(starved)
        picks = run_quanta(sched, 200)
        assert starved in picks, "low-priority thread starved"

    def test_forget_clears_state(self):
        sched = Scheduler(num_cores=1)
        thread = make_thread()
        sched.set_nice(thread, -10)
        sched.ready(thread)
        sched.next_thread()
        sched.forget(thread)
        assert sched.policy_of(thread) == ("fair", 0)  # back to default


class TestRtClasses:
    def test_rt_preempts_fair(self):
        sched = Scheduler(num_cores=1)
        fair = make_thread("fair")
        rt = make_thread("rt")
        sched.set_policy(rt, SchedPolicy.FIFO, rt_prio=10)
        sched.ready(fair)
        sched.ready(rt)
        assert sched.next_thread() is rt
        assert sched.preemptions == 1

    def test_higher_rt_prio_first(self):
        sched = Scheduler(num_cores=1)
        lo = make_thread("lo")
        hi = make_thread("hi")
        sched.set_policy(lo, "fifo", rt_prio=5)
        sched.set_policy(hi, "fifo", rt_prio=50)
        sched.ready(lo)
        sched.ready(hi)
        assert sched.next_thread() is hi

    def test_fifo_runs_until_block(self):
        sched = Scheduler(num_cores=1)
        a, b = make_thread("a"), make_thread("b")
        for t in (a, b):
            sched.set_policy(t, SchedPolicy.FIFO, rt_prio=7)
            sched.ready(t)
        # a keeps the CPU across voluntary requeues until it blocks
        assert run_quanta(sched, 5) == [a] * 5
        sched.block(a, BlockReason("sleep", 1))
        assert sched.next_thread() is b

    def test_rr_rotates_within_priority(self):
        sched = Scheduler(num_cores=1)
        a, b = make_thread("a"), make_thread("b")
        for t in (a, b):
            sched.set_policy(t, SchedPolicy.RR, rt_prio=7)
            sched.ready(t)
        picks = run_quanta(sched, 24)
        assert a in picks and b in picks
        # both get whole slices, not quantum-by-quantum alternation
        assert picks.count(a) == picks.count(b)

    def test_rt_throttle_keeps_fair_alive(self):
        # starvation freedom for the fair class: a busy-looping RT
        # thread yields one pick to fair every RT_THROTTLE_STREAK
        sched = Scheduler(num_cores=1)
        rt_hog = make_thread("rt_hog")
        fair = make_thread("fair")
        sched.set_policy(rt_hog, SchedPolicy.FIFO, rt_prio=99)
        sched.ready(rt_hog)
        sched.ready(fair)
        picks = run_quanta(sched, 4 * (RT_THROTTLE_STREAK + 1))
        assert fair in picks, "fair thread starved by RT hog"
        assert picks[:RT_THROTTLE_STREAK] == [rt_hog] * RT_THROTTLE_STREAK
        assert sched.rt_throttles >= 1

    def test_policy_validated(self):
        sched = Scheduler(num_cores=1)
        thread = make_thread()
        with pytest.raises(ValueError):
            sched.set_policy(thread, "fifo", rt_prio=0)
        with pytest.raises(ValueError):
            sched.set_policy(thread, "fifo", rt_prio=100)
        with pytest.raises(ValueError):
            sched.set_policy(thread, "fair", nice=40)
        with pytest.raises(ValueError):
            sched.set_policy(thread, "deadline", rt_prio=1)

    def test_policy_switch_requeues(self):
        sched = Scheduler(num_cores=1)
        a, b = make_thread("a"), make_thread("b")
        sched.ready(a)
        sched.ready(b)
        sched.set_policy(b, SchedPolicy.FIFO, rt_prio=3)
        assert sched.next_thread() is b
        assert sched.policy_of(b) == ("fifo", 3)
        sched.set_policy(b, SchedPolicy.FAIR, nice=0)
        assert sched.policy_of(b) == ("fair", 0)
        assert sched.audit() == []


class TestForgetPurges:
    def test_forget_purges_queued_thread(self):
        # satellite fix: exited threads no longer linger in runqueues
        sched = Scheduler(num_cores=2)
        threads = [make_thread(str(i)) for i in range(3)]
        for t in threads:
            sched.ready(t)
        sched.forget(threads[0])
        assert sched.runnable_count() == 2
        assert sched.has_runnable()
        sched.forget(threads[1])
        sched.forget(threads[2])
        assert not sched.has_runnable()
        assert sched.next_thread() is None
        assert sched.audit() == []

    def test_exited_thread_not_requeued(self):
        sched = Scheduler(num_cores=1)
        thread = make_thread()
        sched.ready(thread)
        assert sched.next_thread() is thread
        thread.state = ThreadState.EXITED
        sched.forget(thread)
        sched.ready(thread)   # the seed contract: a no-op
        assert not sched.has_runnable()

    def test_forget_rt_thread(self):
        sched = Scheduler(num_cores=1)
        rt = make_thread("rt")
        sched.set_policy(rt, SchedPolicy.RR, rt_prio=20)
        sched.ready(rt)
        sched.forget(rt)
        assert not sched.has_runnable()
        assert sched.audit() == []


class TestWaitTable:
    """Who is parked on what is recorded once: ``parked(kind)``."""

    KINDS = ("futex", "wait", "join", "sleep", "net")

    def test_parked_is_arrival_order_per_kind(self):
        sched = Scheduler(num_cores=2)
        threads = [make_thread(str(i)) for i in range(5)]
        for t in threads:
            sched.ready(t)
        for i in (3, 0, 4, 1):
            kind = "futex" if i != 4 else "sleep"
            sched.block(threads[i], BlockReason(kind, 0x1000))
        assert sched.parked("futex") == [threads[3], threads[0], threads[1]]
        assert sched.parked("sleep") == [threads[4]]
        assert sched.parked("join") == []
        sched.wake(threads[0])
        assert sched.parked("futex") == [threads[3], threads[1]]
        assert threads[0].block_reason is None
        assert sched.audit() == []

    def test_forget_takes_a_parked_thread_out_of_the_table(self):
        sched = Scheduler(num_cores=1)
        waiter = make_thread("waiter")
        sched.ready(waiter)
        assert sched.next_thread() is waiter
        sched.block(waiter, BlockReason("futex", 0x1000))
        waiter.state = ThreadState.EXITED     # what _process_exit does
        sched.forget(waiter)
        assert sched.parked("futex") == []
        assert sched.blocked_count() == 0
        assert sched.audit() == []

    def test_reblocking_moves_the_thread_to_the_new_row(self):
        sched = Scheduler(num_cores=1)
        thread = make_thread()
        sched.block(thread, BlockReason("sleep", 3))
        sched.block(thread, BlockReason("join", 7))
        assert sched.parked("sleep") == []
        assert sched.parked("join") == [thread]
        assert sched.blocked_count() == 1
        assert sched.audit() == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_blocked_count_is_the_table_size_after_every_step(self, seed):
        import random

        rng = random.Random(seed)
        sched = Scheduler(num_cores=3)
        pool = [make_thread(str(i)) for i in range(8)]
        for t in pool:
            sched.ready(t)
        blocked = []   # the model: arrival order, all kinds together
        for _ in range(300):
            op = rng.choice(("block", "block", "wake", "forget", "run"))
            if op == "block" and len(blocked) < len(pool):
                thread = rng.choice([t for t in pool if t not in blocked])
                sched.block(thread, BlockReason(rng.choice(self.KINDS), 0))
                blocked.append(thread)
            elif op == "wake" and blocked:
                sched.wake(blocked.pop(rng.randrange(len(blocked))))
            elif op == "forget" and len(pool) > 2:
                thread = pool.pop(rng.randrange(len(pool)))
                if thread in blocked:
                    blocked.remove(thread)
                thread.state = ThreadState.EXITED
                sched.forget(thread)
            elif op == "run":
                run_quanta(sched, 2)
            table = [t for kind in self.KINDS for t in sched.parked(kind)]
            assert sched.blocked_count() == len(table) == len(blocked)
            assert set(table) == set(blocked)
            for kind in self.KINDS:   # each row keeps arrival order
                row = sched.parked(kind)
                assert row == [t for t in blocked if t in row]
            assert sched.audit() == []


class TestMigration:
    def test_steal_fills_idle_core(self):
        sched = Scheduler(num_cores=2)
        threads = [make_thread(str(i)) for i in range(4)]
        for t in threads:
            sched.ready(t)
        # drain core 1, then keep picking on it: core 0's surplus
        # migrates over instead of leaving core 1 idle
        for _ in range(8):
            thread = sched.next_thread(core=1)
            if thread is None:
                break
        assert sched.steals >= 1
        assert sched.audit() == []

    def test_never_steals_last_thread(self):
        sched = Scheduler(num_cores=2)
        only = make_thread("only")
        sched.ready(only)
        assert sched.core_of(only) == 0
        other = 1
        assert sched.next_thread(core=other) is None
        assert sched.steals == 0

    def test_periodic_balance_spreads_load(self):
        sched = Scheduler(num_cores=2)
        threads = [make_thread(str(i)) for i in range(6)]
        for t in threads:
            sched.ready(t)
        # unbalance: forget everything on core 1
        for t in threads:
            if sched.core_of(t) == 1:
                sched.forget(t)
        survivors = [t for t in threads if t.tid in sched._entities]
        run_quanta(sched, 200)
        assert sched.migrations >= 1
        assert {sched.core_of(t) for t in survivors} == {0, 1}
        assert sched.audit() == []


class TestSchedSyscalls:
    def test_sched_setscheduler_roundtrip(self):
        from repro.nros.kernel import Kernel
        from repro.nros.syscall.abi import SyscallError, sys

        seen = []

        def prog():
            seen.append((yield sys("sched_getscheduler")))
            yield sys("sched_setscheduler", "fifo", 30)
            seen.append((yield sys("sched_getscheduler")))
            yield sys("sched_setscheduler", "fair", -5)
            seen.append((yield sys("sched_getscheduler")))
            try:
                yield sys("sched_setscheduler", "fifo", 0)
            except SyscallError as exc:
                seen.append(("err", exc.errno))

        from repro.nros.syscall.abi import EINVAL
        kernel = Kernel()
        kernel.register_program("p", prog)
        kernel.spawn("p")
        kernel.run()
        assert seen == [("fair", 0), ("fifo", 30), ("fair", -5),
                        ("err", EINVAL)]

    def test_rt_program_preempts_fair_program(self):
        from repro.nros.kernel import Kernel
        from repro.nros.syscall.abi import sys

        order = []

        def make_prog(tag, policy=None, prio=0):
            def prog():
                if policy is not None:
                    yield sys("sched_setscheduler", policy, prio)
                for _ in range(3):
                    order.append(tag)
                    yield sys("sched_yield")
            return prog

        kernel = Kernel(num_cores=1)
        kernel.register_program("fairp", make_prog("F"))
        kernel.register_program("rtp", make_prog("R", "fifo", 40))
        kernel.spawn("fairp")
        kernel.spawn("rtp")
        kernel.run()
        # once the RT program has set its class, it finishes its
        # remaining appends before the fair program runs again
        first_r = order.index("R")
        assert order[first_r:first_r + 3] == ["R", "R", "R"]
