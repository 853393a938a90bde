"""Kernel integration tests: processes, syscalls, memory, futexes, threads."""

import pytest

from repro.nros.fs.fd import O_CREAT, O_RDWR
from repro.nros.kernel import Kernel, KernelPanic
from repro.nros.proc.process import ProcessState
from repro.nros.syscall.abi import SyscallError, sys
from repro.ulib.alloc import Heap
from repro.ulib.sync import Condvar, Mutex, Semaphore
from repro.ulib.uthread import UScheduler, uyield
from repro.ulib import io as uio


def run_program(factory, name="test", kernel=None, argv=()):
    kernel = kernel or Kernel(num_cores=2)
    kernel.register_program(name, factory)
    pid = kernel.spawn(name, argv)
    kernel.run()
    return kernel, kernel.processes[pid]


class TestLifecycle:
    def test_empty_program_exits_zero(self):
        def prog():
            return
            yield

        _, process = run_program(prog)
        assert process.state is ProcessState.ZOMBIE
        assert process.exit_code == 0

    def test_explicit_exit_code(self):
        def prog():
            yield sys("exit", 42)

        _, process = run_program(prog)
        assert process.exit_code == 42

    def test_getpid(self):
        seen = []

        def prog():
            pid = yield sys("getpid")
            seen.append(pid)

        _, process = run_program(prog)
        assert seen == [process.pid]

    def test_log_reaches_serial(self):
        def prog():
            yield sys("log", "hello from userspace")

        kernel, _ = run_program(prog)
        assert any("hello from userspace" in line
                   for line in kernel.serial.lines)

    def test_crash_kills_process(self):
        def prog():
            yield sys("getpid")
            raise RuntimeError("user bug")

        kernel, process = run_program(prog)
        assert process.exit_code == 70
        assert any("crashed" in line for line in kernel.serial.lines)

    def test_unhandled_syscall_error_kills(self):
        def prog():
            yield sys("open", "/does/not/exist")

        _, process = run_program(prog)
        assert process.exit_code == 70

    def test_syscall_error_catchable(self):
        outcomes = []

        def prog():
            try:
                yield sys("open", "/missing")
            except SyscallError as exc:
                outcomes.append(exc.errno)

        from repro.nros.syscall.abi import ENOENT
        run_program(prog)
        assert outcomes == [ENOENT]

    def test_malformed_trap_is_the_callers_einval(self):
        """A trap with a bad argument count or shape fails with EINVAL in
        the caller; it used to raise TypeError out of Kernel.run() and take
        every process on the machine down."""
        from repro.nros.syscall.abi import EINVAL
        outcomes, bystander_ticks = [], []

        def misbehaving():
            for request in (sys("vm_map"), sys("getpid", 1, 2),
                            sys("sleep", "soon")):
                try:
                    yield request
                except SyscallError as exc:
                    outcomes.append(exc.errno)
            yield sys("vm_map")  # uncaught: kills this process only

        def bystander():
            for _ in range(5):
                yield sys("sched_yield")
                bystander_ticks.append((yield sys("getpid")))

        kernel = Kernel(num_cores=2)
        kernel.register_program("misbehaving", misbehaving)
        kernel.register_program("bystander", bystander)
        bad, good = kernel.spawn("misbehaving"), kernel.spawn("bystander")
        kernel.run()
        assert outcomes == [EINVAL] * 3
        assert kernel.processes[bad].exit_code == 70
        assert kernel.processes[good].exit_code == 0
        assert bystander_ticks == [good] * 5

    def test_spawn_and_wait(self):
        order = []

        def child(tag):
            yield sys("log", f"child {tag}")
            order.append(f"child-{tag}")
            yield sys("exit", 7)

        def parent():
            pid = yield sys("spawn", "child", ("a",))
            got_pid, code = yield sys("wait", pid)
            order.append(("reaped", got_pid == pid, code))

        kernel = Kernel(num_cores=2)
        kernel.register_program("child", child)
        kernel.register_program("parent", parent)
        kernel.spawn("parent")
        kernel.run()
        assert ("reaped", True, 7) in order

    def test_wait_any(self):
        reaped = []

        def child(code):
            yield sys("exit", code)

        def parent():
            yield sys("spawn", "child", (11,))
            yield sys("spawn", "child", (22,))
            for _ in range(2):
                pid, code = yield sys("wait", -1)
                reaped.append(code)

        kernel = Kernel()
        kernel.register_program("child", child)
        kernel.register_program("parent", parent)
        kernel.spawn("parent")
        kernel.run()
        assert sorted(reaped) == [11, 22]

    def test_wait_no_children_fails(self):
        errors = []

        def prog():
            try:
                yield sys("wait", -1)
            except SyscallError as exc:
                errors.append(exc.errno)

        from repro.nros.syscall.abi import ECHILD
        run_program(prog)
        assert errors == [ECHILD]

    def test_kill(self):
        def victim():
            while True:
                yield sys("sched_yield")

        def killer(pid):
            yield sys("kill", pid)

        kernel = Kernel()
        kernel.register_program("victim", victim)
        kernel.register_program("killer", killer)
        victim_pid = kernel.spawn("victim")
        kernel.spawn("killer", (victim_pid,))
        kernel.run()
        assert kernel.processes[victim_pid].exit_code == 137

    def test_sleep_wakes(self):
        ticks = []

        def prog():
            yield sys("sleep", 5)
            ticks.append(True)

        run_program(prog)
        assert ticks == [True]


class TestFileSyscalls:
    def test_file_roundtrip(self):
        results = {}

        def prog():
            fd = yield sys("open", "/data.bin", O_CREAT | O_RDWR)
            yield sys("write", fd, b"kernel file io")
            yield sys("seek", fd, 7)
            results["tail"] = yield sys("read", fd, 100)
            yield sys("close", fd)
            results["listing"] = yield sys("readdir", "/")

        run_program(prog)
        assert results["tail"] == b"file io"
        assert results["listing"] == ("data.bin",)

    def test_mkdir_stat_unlink_rename(self):
        results = {}

        def prog():
            yield sys("mkdir", "/etc")
            fd = yield sys("open", "/etc/conf", O_CREAT | O_RDWR)
            yield sys("write", fd, b"x=1")
            yield sys("close", fd)
            results["stat"] = yield sys("stat", "/etc/conf")
            yield sys("rename", "/etc/conf", "/etc/conf.bak")
            results["after_rename"] = yield sys("readdir", "/etc")
            yield sys("unlink", "/etc/conf.bak")
            results["after_unlink"] = yield sys("readdir", "/etc")

        run_program(prog)
        inum, itype, size, nlink = results["stat"]
        assert size == 3 and itype == 1
        assert results["after_rename"] == ("conf.bak",)
        assert results["after_unlink"] == ()

    def test_ulib_io_helpers(self):
        results = {}

        def prog():
            yield from uio.write_file("/greeting", b"hello ulib")
            results["data"] = yield from uio.read_file("/greeting")

        run_program(prog)
        assert results["data"] == b"hello ulib"


class TestMemorySyscalls:
    def test_map_poke_peek(self):
        results = {}

        def prog():
            base = yield sys("vm_map", 2)
            yield sys("poke", base + 0x100, 0xDEAD_BEEF)
            results["value"] = yield sys("peek", base + 0x100)
            results["paddr"] = yield sys("vm_resolve", base)
            yield sys("vm_unmap", base)
            try:
                yield sys("peek", base)
            except SyscallError as exc:
                results["after_unmap"] = exc.errno

        from repro.nros.syscall.abi import EFAULT
        run_program(prog)
        assert results["value"] == 0xDEAD_BEEF
        assert results["paddr"] > 0
        assert results["after_unmap"] == EFAULT

    def test_vm_map_enomem_then_success_once_frames_are_freed(self):
        """Table-frame exhaustion is ENOMEM, and the address space is
        still usable afterwards (it used to keep its NR writer lock)."""
        from repro.nros.pmem import OutOfMemory
        from repro.nros.syscall.abi import ENOMEM

        kernel, results = Kernel(num_cores=2), {}

        def prog():
            hoard = []
            try:
                while True:
                    hoard.append(kernel.frames.alloc_frame())
            except OutOfMemory:
                pass
            for _ in range(2):  # the user page and one of three tables
                kernel.frames.free_frame(hoard.pop())
            try:
                yield sys("vm_map", 1)
            except SyscallError as exc:
                results["starved"] = exc.errno
            for frame in hoard:
                kernel.frames.free_frame(frame)
            base = yield sys("vm_map", 1)
            yield sys("poke", base, 7)
            results["value"] = yield sys("peek", base)

        run_program(prog, kernel=kernel)
        assert results == {"starved": ENOMEM, "value": 7}
        assert kernel.frames.check_integrity() is None

    def test_cas(self):
        results = []

        def prog():
            base = yield sys("vm_map", 1)
            results.append((yield sys("cas", base, 0, 5)))
            results.append((yield sys("cas", base, 0, 9)))
            results.append((yield sys("peek", base)))

        run_program(prog)
        assert results == [(True, 0), (False, 5), 5]

    def test_read_into_user_buffer(self):
        results = {}

        def prog():
            fd = yield sys("open", "/blob", O_CREAT | O_RDWR)
            yield sys("write", fd, b"ABCDEFGH")
            yield sys("seek", fd, 0)
            buf = yield sys("vm_map", 1)
            n = yield sys("read_into", fd, buf, 8)
            results["n"] = n
            results["word"] = yield sys("peek", buf)

        run_program(prog)
        assert results["n"] == 8
        assert results["word"] == int.from_bytes(b"ABCDEFGH", "little")

    def test_write_from_user_buffer(self):
        results = {}

        def prog():
            buf = yield sys("vm_map", 1)
            yield sys("poke", buf, int.from_bytes(b"qwertyui", "little"))
            fd = yield sys("open", "/out", O_CREAT | O_RDWR)
            yield sys("write_from", fd, buf, 8)
            yield sys("seek", fd, 0)
            results["data"] = yield sys("read", fd, 8)

        run_program(prog)
        assert results["data"] == b"qwertyui"

    def test_heap_allocator(self):
        results = {}

        def prog():
            heap = Heap()
            a = yield from heap.alloc(64)
            b = yield from heap.alloc(64)
            results["distinct"] = a != b
            yield sys("poke", a, 1)
            yield sys("poke", b, 2)
            results["a"] = yield sys("peek", a)
            results["b"] = yield sys("peek", b)
            yield from heap.free(a, 64)
            c = yield from heap.alloc(32)
            results["reused"] = c == a

        run_program(prog)
        assert results == {"distinct": True, "a": 1, "b": 2, "reused": True}


class TestTheMappingObligation:
    """Every user access of every syscall goes through the address
    space's one checked translation (``VSpace.translate``)."""

    def test_buffer_mapped_from_the_other_numa_node_is_not_efault(self):
        """The paper's machine: 28 cores, two NR replicas.  A thread on a
        node-1 core maps and fills a page; a thread on a node-0 core —
        whose replica has not applied the map — passes it to
        ``write_from`` *before* any ``peek`` could sync the replica."""
        word = int.from_bytes(b"HGFEDCBA", "big")
        kernel = Kernel(num_cores=28)
        shared, results = {}, {}

        def core_of(index):   # of the index-th thread created (0 = main)
            thread = list(kernel.processes[pid].threads.values())[index]
            return kernel.scheduler.core_of(thread)

        def worker(index, fd):
            # the mapper is whichever worker first finds itself on node 1,
            # the writer whichever then finds itself on node 0
            while "write_from" not in results:
                core = core_of(index)
                if core >= 14 and "mapper_core" not in shared:
                    shared["mapper_core"] = core
                    base = yield sys("vm_map", 1)
                    yield sys("poke", base, word)
                    shared["base"] = base
                elif core < 14 and "base" in shared \
                        and "writer_core" not in shared:
                    shared["writer_core"] = core
                    results["write_from"] = yield sys(
                        "write_from", fd, shared["base"], 8)
                yield sys("sched_yield")   # keeps every core's queue busy

        def main():
            fd = yield sys("open", "/out", O_CREAT | O_RDWR)
            tids = []
            for index in range(1, 31):
                tids.append((yield sys("thread_spawn", "worker",
                                       (index, fd))))
            for tid in tids:
                yield sys("thread_join", tid)
            yield sys("seek", fd, 0)
            results["data"] = yield sys("read", fd, 8)

        kernel.register_program("worker", worker)
        kernel.register_program("main", main)
        pid = kernel.spawn("main")
        kernel.run()
        assert shared["mapper_core"] >= 14 > shared["writer_core"]
        assert results["write_from"] == 8
        assert results["data"] == b"ABCDEFGH"
        assert kernel.stats.page_faults == 0   # a lagging replica is no fault

    def test_page_faults_counts_every_refused_user_access(self):
        """Not only the word syscalls: a copy and a ring window that the
        door refuses are the caller's EFAULT and one page fault each."""
        from repro.nros.syscall import abi, ring as ringmod

        faults = []

        def prog():
            stats = kernel.stats

            def refused(call):
                before = stats.page_faults
                with pytest.raises(SyscallError) as failure:
                    yield call
                assert failure.value.errno == abi.EFAULT
                faults.append(stats.page_faults - before)

            fd = yield sys("open", "/blob", O_CREAT | O_RDWR)
            yield sys("write", fd, b"ABCDEFGH")
            yield sys("seek", fd, 0)
            yield from refused(sys("write_from", fd, 0x7000_0000, 8))
            readonly, _size = yield sys("mmap_file", "/blob")
            yield from refused(sys("read_into", fd, readonly, 8))
            rid, sq_base, *_ = yield sys("ring_setup", 8)
            yield sys("vm_unmap", sq_base)
            blob = ringmod.encode_sqe(1, abi.SYSCALLS["getpid"], ())
            yield from refused(sys("ring_enter", rid, blob, True))
            yield from refused(sys("peek", 0x7000_0000))

        kernel = Kernel(num_cores=2)
        _, process = run_program(prog, kernel=kernel)
        assert process.exit_code == 0
        assert faults == [1, 1, 1, 1]
        assert kernel.stats.page_faults == 4


    def test_ring_batches_translate_through_the_tlb(self):
        """A ring's SQ/CQ window is copied four times per batch; after
        the first batch every one of those translations is a TLB hit."""
        from repro.ulib import Ring

        def prog():
            ring = Ring(sq_depth=4)
            yield from ring.setup()
            for _ in range(50):
                ring.prepare("getpid", ())
                yield from ring.submit()

        kernel, process = run_program(prog, kernel=Kernel(num_cores=1))
        assert process.exit_code == 0
        assert kernel.stats.ring_batches == 50
        (tlb,) = process.vspace._tlbs.values()
        assert process.vspace.mmu.walks == tlb.misses == 2   # SQ page, CQ page
        assert tlb.hits == 50 * 4 - 2


class TestThreadsAndSync:
    def test_thread_spawn_join(self):
        results = {}

        def worker(value):
            yield sys("sched_yield")
            return value * 2

        def main():
            tid = yield sys("thread_spawn", "worker", (21,))
            results["joined"] = yield sys("thread_join", tid)

        kernel = Kernel(num_cores=2)
        kernel.register_program("worker", worker)
        kernel.register_program("main", main)
        kernel.spawn("main")
        kernel.run()
        assert results["joined"] == 42

    def test_futex_mutex_mutual_exclusion(self):
        trace = []

        def worker(mutex_addr, counter_addr, tag):
            mutex = Mutex(mutex_addr)
            for _ in range(5):
                yield from mutex.acquire()
                value = yield sys("peek", counter_addr)
                yield sys("sched_yield")  # invite interleaving
                yield sys("poke", counter_addr, value + 1)
                trace.append(tag)
                yield from mutex.release()

        def main():
            base = yield sys("vm_map", 1)
            mutex_addr, counter_addr = base, base + 8
            t1 = yield sys("thread_spawn", "worker",
                           (mutex_addr, counter_addr, "a"))
            t2 = yield sys("thread_spawn", "worker",
                           (mutex_addr, counter_addr, "b"))
            yield sys("thread_join", t1)
            yield sys("thread_join", t2)
            final = yield sys("peek", counter_addr)
            trace.append(("final", final))

        kernel = Kernel(num_cores=2)
        kernel.register_program("worker", worker)
        kernel.register_program("main", main)
        kernel.spawn("main")
        kernel.run()
        assert ("final", 10) in trace

    def test_lost_update_without_mutex(self):
        """Control experiment: the same increment loop WITHOUT the mutex
        loses updates, proving the mutex test is not vacuous."""
        trace = []

        def worker(counter_addr):
            for _ in range(5):
                value = yield sys("peek", counter_addr)
                yield sys("sched_yield")
                yield sys("poke", counter_addr, value + 1)

        def main():
            base = yield sys("vm_map", 1)
            t1 = yield sys("thread_spawn", "worker", (base,))
            t2 = yield sys("thread_spawn", "worker", (base,))
            yield sys("thread_join", t1)
            yield sys("thread_join", t2)
            trace.append((yield sys("peek", base)))

        kernel = Kernel(num_cores=2)
        kernel.register_program("worker", worker)
        kernel.register_program("main", main)
        kernel.spawn("main")
        kernel.run()
        assert trace[0] < 10  # updates lost

    def test_condvar_producer_consumer(self):
        consumed = []

        def consumer(mutex_addr, cond_addr, slot_addr):
            mutex = Mutex(mutex_addr)
            cond = Condvar(cond_addr)
            yield from mutex.acquire()
            while True:
                value = yield sys("peek", slot_addr)
                if value != 0:
                    break
                yield from cond.wait(mutex)
            consumed.append(value)
            yield from mutex.release()

        def producer(mutex_addr, cond_addr, slot_addr):
            mutex = Mutex(mutex_addr)
            cond = Condvar(cond_addr)
            yield sys("sleep", 2)
            yield from mutex.acquire()
            yield sys("poke", slot_addr, 99)
            yield from cond.signal()
            yield from mutex.release()

        def main():
            base = yield sys("vm_map", 1)
            args = (base, base + 8, base + 16)
            t1 = yield sys("thread_spawn", "consumer", args)
            t2 = yield sys("thread_spawn", "producer", args)
            yield sys("thread_join", t1)
            yield sys("thread_join", t2)

        kernel = Kernel(num_cores=2)
        kernel.register_program("consumer", consumer)
        kernel.register_program("producer", producer)
        kernel.register_program("main", main)
        kernel.spawn("main")
        kernel.run()
        assert consumed == [99]

    def test_semaphore_bounds_concurrency(self):
        peak = {"current": 0, "max": 0}

        def worker(sem_addr):
            sem = Semaphore(sem_addr)
            yield from sem.wait()
            peak["current"] += 1
            peak["max"] = max(peak["max"], peak["current"])
            yield sys("sched_yield")
            peak["current"] -= 1
            yield from sem.post()

        def main():
            base = yield sys("vm_map", 1)
            sem = Semaphore(base)
            yield from sem.init(2)
            tids = []
            for _ in range(5):
                tids.append((yield sys("thread_spawn", "worker", (base,))))
            for tid in tids:
                yield sys("thread_join", tid)

        kernel = Kernel(num_cores=2)
        kernel.register_program("worker", worker)
        kernel.register_program("main", main)
        kernel.spawn("main")
        kernel.run()
        assert 0 < peak["max"] <= 2

    def test_uthreads(self):
        log = []

        def green(tag, n):
            for i in range(n):
                log.append((tag, i))
                yield uyield
            return tag

        def main():
            usched = UScheduler()
            usched.spawn(green("x", 3))
            usched.spawn(green("y", 3))
            results = yield from usched.run()
            log.append(results)

        run_program(main)
        # interleaved round robin
        assert log[:4] == [("x", 0), ("y", 0), ("x", 1), ("y", 1)]
        assert log[-1] == {0: "x", 1: "y"}

    def test_uthread_syscalls_forwarded(self):
        results = {}

        def green(path, data):
            yield from uio.write_file(path, data)
            got = yield from uio.read_file(path)
            return got

        def main():
            usched = UScheduler()
            usched.spawn(green("/g1", b"one"))
            usched.spawn(green("/g2", b"two"))
            results.update((yield from usched.run()))

        run_program(main)
        assert results == {0: b"one", 1: b"two"}


class TestWaitTable:
    """Parked threads live in the scheduler's one table: nothing outlives
    its process, and every kind is woken in arrival order."""

    def test_killed_futex_waiter_leaves_the_table(self):
        from repro.nros.syscall import abi

        shared = {}

        def victim():
            shared["addr"] = yield sys("vm_map", 1)
            yield sys("futex_wait", shared["addr"], 0)

        def killer(pid):
            while not kernel.scheduler.parked("futex"):
                yield sys("sched_yield")
            shared["parked"] = [t.process.pid
                                for t in kernel.scheduler.parked("futex")]
            yield sys("kill", pid)

        kernel = Kernel(num_cores=2)
        kernel.register_program("victim", victim)
        kernel.register_program("killer", killer)
        victim_pid = kernel.spawn("victim")
        kernel.spawn("killer", (victim_pid,))
        kernel.run()
        assert shared["parked"] == [victim_pid]
        assert kernel.processes[victim_pid].exit_code == 137
        assert kernel.scheduler.parked("futex") == []
        assert kernel.scheduler.blocked_count() == 0
        assert kernel.scheduler.audit() == []
        # a later wake of that word finds nobody (only the dead process's
        # own address space still names the frame, so dispatch as it)
        (dead,) = kernel.processes[victim_pid].threads.values()
        assert kernel._invoke(dead, abi.SYSCALLS["futex_wake"],
                              (shared["addr"], 1)) == (0, 0, None)
        assert not kernel.scheduler.has_runnable()

    def test_net_readers_are_served_in_arrival_order(self):
        """Two threads wait on one socket and the spawned one parks
        first: it gets the first datagram (a scan by tid served the main
        thread first)."""
        from repro.nros.net.ip import ip_addr

        ip = ip_addr("10.0.0.1")
        got, tids = {}, {}

        def parked_tids():
            return [t.tid for t in kernel.scheduler.parked("net")]

        def first():
            sid = yield sys("socket")
            yield sys("bind", sid, 100)
            tids["second"] = yield sys("thread_spawn", "second", (sid,))
            yield sys("thread_spawn", "writer", (sid,))
            while parked_tids() != [tids["second"]]:
                yield sys("sched_yield")
            got["first"] = (yield sys("recvfrom", sid))[2]

        def second(sid):
            got["second"] = (yield sys("recvfrom", sid))[2]

        def writer(sid):
            out = yield sys("socket")
            yield sys("bind", out, 101)
            while parked_tids() != [tids["second"], tids["first"]]:
                yield sys("sched_yield")
            yield sys("sendto", out, ip, 100, b"first")
            while len(parked_tids()) == 2:
                yield sys("sched_yield")
            assert parked_tids() == [tids["first"]]
            yield sys("sendto", out, ip, 100, b"second")

        kernel = Kernel(num_cores=2, ip=ip)
        for name, factory in (("first", first), ("second", second),
                              ("writer", writer)):
            kernel.register_program(name, factory)
        pid = kernel.spawn("first")
        (tids["first"],) = kernel.processes[pid].threads
        kernel.run()
        assert got == {"second": b"first", "first": b"second"}
        assert kernel.scheduler.audit() == []

    def test_sleepers_to_one_tick_wake_in_arrival_order(self):
        woken = []

        def first():   # pid 1
            yield sys("spawn", "second")
            while not kernel.scheduler.parked("sleep"):
                yield sys("sched_yield")
            (other,) = kernel.scheduler.parked("sleep")
            yield sys("sleep", other.block_reason.key - kernel.timer.ticks)

        def second():   # pid 2
            yield sys("sleep", 5)

        kernel = Kernel(num_cores=2)
        wake = kernel.scheduler.wake

        def recording_wake(thread, *result):
            woken.append(thread.process.pid)
            wake(thread, *result)

        kernel.scheduler.wake = recording_wake
        kernel.register_program("first", first)
        kernel.register_program("second", second)
        kernel.spawn("first")
        kernel.run()
        assert woken == [2, 1]


class TestDeadlockDetection:
    def test_deadlock_panics(self):
        def prog():
            base = yield sys("vm_map", 1)
            yield sys("futex_wait", base, 0)  # nobody will ever wake us

        kernel = Kernel()
        kernel.register_program("p", prog)
        kernel.spawn("p")
        with pytest.raises(KernelPanic, match="deadlock"):
            kernel.run(max_ticks=50)
