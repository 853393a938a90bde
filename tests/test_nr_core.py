"""Tests for the node-replication core: log, rwlock, protocol, GC."""

import pytest

from repro.nr.core import NodeReplicated
from repro.nr.datastructures import Counter, KvStore
from repro.nr.log import Log, LogEntry
from repro.nr.rwlock import RwLock


class TestLog:
    def test_append_and_read(self):
        log = Log()
        start = log.append_batch([LogEntry("a", 0, 1), LogEntry("b", 0, 2)])
        assert start == 0
        assert log.tail == 2
        assert log.entry(0).op == "a"
        assert [e.op for e in log.slice_from(0)] == ["a", "b"]

    def test_gc(self):
        log = Log()
        log.append_batch([LogEntry(i, 0, 0) for i in range(10)])
        assert log.gc(4) == 4
        assert log.base == 4
        assert log.tail == 10
        assert log.entry(4).op == 4
        with pytest.raises(IndexError):
            log.entry(3)
        with pytest.raises(IndexError):
            log.slice_from(0)
        assert log.gc(4) == 0

    def test_gc_beyond_tail_rejected(self):
        log = Log()
        with pytest.raises(ValueError):
            log.gc(1)

    def test_append_after_gc(self):
        log = Log()
        log.append_batch([LogEntry(i, 0, 0) for i in range(4)])
        log.gc(4)
        start = log.append_batch([LogEntry("x", 1, 0)])
        assert start == 4
        assert log.entry(4).op == "x"


class TestRwLock:
    def test_readers_share(self):
        lock = RwLock()
        assert lock.try_acquire_read()
        assert lock.try_acquire_read()
        assert lock.readers == 2
        lock.release_read()
        lock.release_read()

    def test_writer_excludes(self):
        lock = RwLock()
        assert lock.try_acquire_write()
        assert not lock.try_acquire_read()
        assert not lock.try_acquire_write()
        lock.release_write()
        assert lock.try_acquire_read()

    def test_writer_waits_for_readers(self):
        lock = RwLock()
        assert lock.try_acquire_read()
        assert not lock.try_acquire_write()
        # writer now waiting: new readers barred (no reader starvation
        # of the combiner)
        assert not lock.try_acquire_read()
        lock.release_read()
        assert lock.try_acquire_write()

    def test_release_errors(self):
        lock = RwLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()


class TestFunctionalExecution:
    def test_counter_sequential(self):
        nr = NodeReplicated(Counter, num_nodes=1)
        assert nr.execute(("add", 5)) == 5
        assert nr.execute(("add", 3)) == 8
        assert nr.execute_ro("get") == 8

    def test_multi_replica_reads_see_writes(self):
        nr = NodeReplicated(Counter, num_nodes=3)
        nr.execute(("add", 7), node=0)
        # a read on another replica must catch up with the log
        assert nr.execute_ro("get", node=2) == 7
        nr.execute(("add", 1), node=1)
        assert nr.execute_ro("get", node=0) == 8

    def test_results_routed_to_right_thread(self):
        nr = NodeReplicated(Counter, num_nodes=1)
        r1 = nr.execute(("add", 1), thread=1)
        r2 = nr.execute(("add", 1), thread=2)
        assert (r1, r2) == (1, 2)

    def test_kv_across_replicas(self):
        nr = NodeReplicated(KvStore, num_nodes=2)
        assert nr.execute(("put", "k", 1), node=0) is None
        assert nr.execute(("put", "k", 2), node=1) == 1
        assert nr.execute_ro(("get", "k"), node=0) == 2

    def test_invalid_num_nodes(self):
        with pytest.raises(ValueError):
            NodeReplicated(Counter, num_nodes=0)

    def test_sync_all_converges(self):
        nr = NodeReplicated(Counter, num_nodes=3)
        for i in range(5):
            nr.execute(("add", 1), node=i % 3)
        nr.sync_all()
        assert all(r.ds.value == 5 for r in nr.replicas)
        assert all(r.ltail == nr.log.tail for r in nr.replicas)

    def test_gc_after_sync(self):
        nr = NodeReplicated(Counter, num_nodes=2)
        for _ in range(4):
            nr.execute(("add", 1), node=0)
        # replica 1 lags: completed tail prevents GC
        assert nr.completed_tail() == 0
        assert nr.gc_log() == 0
        nr.sync_all()
        assert nr.gc_log() == 4
        # correctness preserved after GC
        nr.execute(("add", 1), node=1)
        assert nr.execute_ro("get", node=0) == 5

    def test_combiner_left_clean(self):
        nr = NodeReplicated(Counter, num_nodes=1)
        nr.execute(("add", 1))
        replica = nr.replicas[0]
        assert replica.combiner is None
        assert not replica.slots
        assert not replica.results
        assert not replica.lock.writer
        assert replica.lock.readers == 0

    def test_raising_data_structure_releases_the_replica(self):
        """An exception out of `apply` is an exception for the caller,
        not a writer lock and a combiner slot held forever."""
        nr = NodeReplicated(Counter, num_nodes=1)
        with pytest.raises(ValueError):
            nr.execute(("mul", 2))
        replica = nr.replicas[0]
        assert replica.combiner is None and not replica.lock.writer


class TestNrAutoGc:
    def test_auto_gc_bounds_log(self):
        from repro.nr.core import NodeReplicated
        from repro.nr.datastructures import Counter

        nr = NodeReplicated(Counter, num_nodes=1, auto_gc_threshold=8)
        for _ in range(100):
            nr.execute(("add", 1))
        assert nr.auto_gcs > 0
        assert len(nr.log) <= 9  # bounded around the threshold
        assert nr.execute_ro("get") == 100  # semantics intact

    def test_auto_gc_respects_lagging_replica(self):
        from repro.nr.core import NodeReplicated
        from repro.nr.datastructures import Counter

        nr = NodeReplicated(Counter, num_nodes=2, auto_gc_threshold=4)
        for _ in range(20):
            nr.execute(("add", 1), node=0)
        # replica 1 never applied anything: GC must not collect
        assert nr.replicas[1].ltail == 0
        assert nr.log.base == 0
        # once replica 1 catches up, GC proceeds on the next write
        assert nr.execute_ro("get", node=1) == 20
        nr.execute(("add", 1), node=0)
        assert nr.log.base > 0
