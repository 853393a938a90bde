"""Per-core runqueues: a min-vruntime heap for the fair class, priority
deques for the RT classes.

The fair heap uses lazy deletion: each queued entity has exactly one
*valid* entry ``(vruntime, seq, tid)`` recorded in ``_valid``; removal
just drops the record, and stale heap entries are skipped when popped.
``seq`` is a per-queue enqueue counter so ties break by arrival order —
deterministic across runs, independent of tid allocation.

``min_vruntime`` is the monotone watermark new arrivals and woken
sleepers are clamped against, advanced on every fair pick; per-queue
weight and ready counts are maintained incrementally so ``Scheduler``
stays O(log n) per operation and ``has_runnable`` is O(1).
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.nros.sched.entity import SchedEntity, SchedPolicy, \
    RT_PRIO_MAX, RT_PRIO_MIN, SPREAD_LIMIT_NS


class CoreRunQueue:
    """One core's runqueue: fair heap + RT priority deques."""

    def __init__(self, core: int) -> None:
        self.core = core
        self._heap: list[tuple[int, int, int]] = []   # (vruntime, seq, tid)
        self._valid: dict[int, tuple[int, int, int]] = {}  # tid -> (v, seq, w)
        self._seq = 0
        self.fair_weight = 0
        self.min_vruntime = 0
        self._rt: dict[int, deque[int]] = {}          # prio -> tids
        self._rt_count = 0

    # -- fair class ---------------------------------------------------------

    @property
    def fair_count(self) -> int:
        return len(self._valid)

    @property
    def rt_count(self) -> int:
        return self._rt_count

    @property
    def ready_count(self) -> int:
        return len(self._valid) + self._rt_count

    def push_fair(self, tid: int, vruntime: int, weight: int) -> None:
        if tid in self._valid:
            raise AssertionError(
                f"tid {tid} already queued on core {self.core}")
        self._seq += 1
        entry = (vruntime, self._seq, tid)
        self._valid[tid] = (vruntime, self._seq, weight)
        self.fair_weight += weight
        heapq.heappush(self._heap, entry)

    def pop_fair(self) -> int | None:
        """The queued fair tid with minimum vruntime, or None."""
        while self._heap:
            vruntime, seq, tid = self._heap[0]
            current = self._valid.get(tid)
            if current is None or current[0] != vruntime \
                    or current[1] != seq:
                heapq.heappop(self._heap)     # stale (removed/requeued)
                continue
            heapq.heappop(self._heap)
            del self._valid[tid]
            self.fair_weight -= current[2]
            self.min_vruntime = max(self.min_vruntime, vruntime)
            return tid
        return None

    def remove_fair(self, tid: int) -> bool:
        """Lazy removal; the heap entry is skipped when it surfaces."""
        current = self._valid.pop(tid, None)
        if current is None:
            return False
        self.fair_weight -= current[2]
        return True

    def steal_candidate(self) -> int | None:
        """The queued fair tid with *maximum* vruntime — the thread that
        has run the most, hence the cheapest to migrate fairness-wise.
        Ties break toward the highest tid (deterministic)."""
        best: tuple[int, int] | None = None
        for tid, (vruntime, _seq, _weight) in self._valid.items():
            key = (vruntime, tid)
            if best is None or key > best:
                best = key
        return None if best is None else best[1]

    # -- RT classes ---------------------------------------------------------

    def push_rt(self, tid: int, prio: int, front: bool = False) -> None:
        if not RT_PRIO_MIN <= prio <= RT_PRIO_MAX:
            raise AssertionError(f"rt prio {prio} out of range")
        queue = self._rt.setdefault(prio, deque())
        if tid in queue:
            raise AssertionError(
                f"tid {tid} already rt-queued on core {self.core}")
        if front:
            queue.appendleft(tid)
        else:
            queue.append(tid)
        self._rt_count += 1

    def top_rt_prio(self) -> int | None:
        best = None
        for prio, queue in self._rt.items():
            if queue and (best is None or prio > best):
                best = prio
        return best

    def pop_rt(self) -> int | None:
        """Head of the highest non-empty RT priority queue."""
        prio = self.top_rt_prio()
        if prio is None:
            return None
        tid = self._rt[prio].popleft()
        self._rt_count -= 1
        return tid

    def remove_rt(self, tid: int, prio: int) -> bool:
        queue = self._rt.get(prio)
        if queue is None or tid not in queue:
            return False
        queue.remove(tid)
        self._rt_count -= 1
        return True

    def queued_tids(self) -> set[int]:
        tids = set(self._valid)
        for queue in self._rt.values():
            tids.update(queue)
        return tids

    # -- structural audit ---------------------------------------------------

    def audit(self, entities: dict[int, SchedEntity]) -> list[str]:
        """Violations of the queue's own representation invariants —
        the runtime mirror of the spec's queue-consistency invariants."""
        problems: list[str] = []
        weight = 0
        for tid, (vruntime, _seq, w) in self._valid.items():
            ent = entities.get(tid)
            if ent is None:
                problems.append(f"core {self.core}: fair tid {tid} queued "
                                f"but has no entity")
                continue
            if ent.policy is not SchedPolicy.FAIR:
                problems.append(f"core {self.core}: tid {tid} in the fair "
                                f"heap with policy {ent.policy.value}")
            if ent.core != self.core:
                problems.append(f"core {self.core}: fair tid {tid} has "
                                f"entity.core {ent.core}")
            if not ent.in_queue:
                problems.append(f"core {self.core}: fair tid {tid} queued "
                                f"but entity.in_queue is False")
            if ent.vruntime != vruntime:
                problems.append(f"core {self.core}: fair tid {tid} queue "
                                f"vruntime {vruntime} != entity "
                                f"{ent.vruntime}")
            weight += w
        if weight != self.fair_weight:
            problems.append(f"core {self.core}: fair_weight "
                            f"{self.fair_weight} != member sum {weight}")
        live = {(v, seq) for tid, (v, seq, _w) in self._valid.items()}
        heap_live = {(v, seq) for (v, seq, tid) in self._heap
                     if self._valid.get(tid, (None, None, None))[:2]
                     == (v, seq)}
        if live != heap_live:
            problems.append(f"core {self.core}: heap lost valid entries "
                            f"{sorted(live - heap_live)}")
        rt_total = 0
        for prio, queue in self._rt.items():
            rt_total += len(queue)
            for tid in queue:
                ent = entities.get(tid)
                if ent is None:
                    problems.append(f"core {self.core}: rt tid {tid} "
                                    f"queued but has no entity")
                    continue
                if ent.policy is SchedPolicy.FAIR:
                    problems.append(f"core {self.core}: fair tid {tid} in "
                                    f"the rt queue")
                if ent.rt_prio != prio:
                    problems.append(f"core {self.core}: rt tid {tid} at "
                                    f"prio {prio} but entity says "
                                    f"{ent.rt_prio}")
                if ent.core != self.core or not ent.in_queue:
                    problems.append(f"core {self.core}: rt tid {tid} "
                                    f"entity core/in_queue inconsistent")
        if rt_total != self._rt_count:
            problems.append(f"core {self.core}: rt_count {self._rt_count} "
                            f"!= member sum {rt_total}")
        if self._valid:
            values = [v for (v, _seq, _w) in self._valid.values()]
            if max(values) - min(values) > SPREAD_LIMIT_NS:
                problems.append(
                    f"core {self.core}: fair vruntime spread "
                    f"{max(values) - min(values)} exceeds "
                    f"{SPREAD_LIMIT_NS}")
        return problems
