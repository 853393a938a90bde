"""The kernel: processes, scheduling, syscalls, and device wiring.

This is the NrOS-shaped substrate the paper's component list (Section 1)
demands: scheduler, memory management, filesystem, drivers, process
management, threads and synchronization, a network stack, and the syscall
boundary with its marshalling / mapping / data-race-freedom obligations.

User programs are generators yielding :class:`~repro.nros.syscall.abi.Syscall`
requests.  Every request round-trips through the binary wire format of
:mod:`repro.nros.syscall.marshal` before dispatch — the kernel genuinely
cannot see anything the marshaller did not carry.

This module is boot, the run loop, scheduling glue and the dispatch core;
each syscall is declared once, by its handler, in a family module under
:mod:`repro.nros.syscall` (see :mod:`~repro.nros.syscall.table`), and a
trap and a ring drain are two transports into one :meth:`Kernel._invoke`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.hw.devices.disk import Disk
from repro.hw.devices.nic import Nic
from repro.hw.devices.serial import SerialPort
from repro.hw.devices.timer import Timer
from repro.hw.mem import PhysicalMemory
from repro.nros.drivers.block import BlockDriver
from repro.nros.drivers.console import Console
from repro.nros.fs import fd as fdmod
from repro.nros.fs import fs as fsmod
from repro.nros.net.stack import NetStack
from repro.nros.pmem import BuddyAllocator
from repro.nros.proc.process import (
    Process,
    ProcessState,
    Thread,
    ThreadState,
)
from repro.nros.sched.scheduler import Scheduler
from repro.nros.syscall import abi, table
from repro.nros.syscall.abi import Syscall, SyscallError
from repro.nros.syscall.marshal import marshal, marshal_call, unmarshal, unmarshal_call
from repro.nros.syscall.table import Block, ProcessExited, SyscallFailure
from repro.nros.vspace import VSpace
from repro.verif.linear import OwnershipTable

MB = 1024 * 1024


class KernelPanic(Exception):
    """Unrecoverable kernel error (including detected deadlock)."""


@dataclass
class KernelStats:
    syscalls: int = 0
    marshalled_bytes: int = 0
    thread_switches: int = 0
    page_faults: int = 0
    ring_batches: int = 0   # ring_enter dispatch passes
    ring_sqes: int = 0      # SQEs completed through rings


class Kernel:
    """One machine: memory, devices, kernel services, user processes."""

    #: syscall number -> table entry, built (and checked against
    #: ``abi.SYSCALLS``) once, when this module is imported.
    _handlers = table.load()

    def __init__(
        self,
        num_cores: int = 2,
        memory_bytes: int = 64 * MB,
        disk_sectors: int = 1024,
        ip: int | None = None,
        mac: bytes | None = None,
        hostname: str = "nros",
        disk_image: bytes | None = None,
    ) -> None:
        self.hostname = hostname
        self.num_cores = num_cores
        self.memory = PhysicalMemory(memory_bytes)
        self.frames = BuddyAllocator(self.memory)
        self.disk = Disk(disk_sectors)
        self.scheduler = Scheduler(num_cores)
        self.timer = Timer()
        self.serial = SerialPort()
        self.block_driver = BlockDriver(self.disk)
        if disk_image is not None:
            # a machine restarting after power loss: restore the platter
            # image and *mount* the surviving filesystem instead of mkfs
            self.disk.restore(disk_image)
            self.fs = fsmod.FileSystem(self.block_driver)
        else:
            self.fs = fsmod.FileSystem.mkfs(self.block_driver)
        self.console = Console(self.serial)
        self.nic: Nic | None = None
        self.net: NetStack | None = None
        if ip is not None:
            self.nic = Nic(mac or self._default_mac(ip))
            self.net = NetStack(ip, self.nic)
        self.processes: dict[int, Process] = {}
        self._registry: dict[str, object] = {}
        self._next_pid = 1
        self._threads_by_tid: dict[int, Thread] = {}
        self.stats = KernelStats()
        self._num_nodes = max(1, (num_cores + 13) // 14)
        self._ownership: dict[int, OwnershipTable] = {}  # pid -> table
        #: Fault-injection plan for ring sites (torn SQE, full CQ,
        #: crash mid-batch); campaigns assign one, normal runs leave None.
        self.fault_plan = None
        self._obs_sq_pending = obs.gauge("ring.sq_pending")
        self._obs_cq_ready = obs.gauge("ring.cq_ready")
        self._obs_batch_size = obs.histogram("ring.batch_sqes")

    @staticmethod
    def _default_mac(ip: int) -> bytes:
        return bytes([0x02, 0, (ip >> 24) & 0xFF, (ip >> 16) & 0xFF,
                      (ip >> 8) & 0xFF, ip & 0xFF])

    # -- program registry and process lifecycle ---------------------------------

    def register_program(self, name: str, factory) -> None:
        """Register a user program: `factory(*argv)` returns a generator."""
        self._registry[name] = factory

    def spawn(self, name: str, argv: tuple = (), parent: int | None = None) -> int:
        if name not in self._registry:
            raise KeyError(f"no program registered as {name!r}")
        pid = self._next_pid
        self._next_pid += 1
        vspace = VSpace(self.memory, self.frames, num_nodes=self._num_nodes)
        for core in range(self.num_cores):
            vspace.attach_core(core, min(core // 14, self._num_nodes - 1))
        process = Process(
            pid=pid,
            name=name,
            vspace=vspace,
            fdtable=fdmod.FdTable(self.fs),
            parent=parent,
        )
        self.processes[pid] = process
        self._ownership[pid] = OwnershipTable()
        if parent is not None and parent in self.processes:
            self.processes[parent].children.add(pid)
        gen = self._registry[name](*argv)
        thread = process.add_thread(gen, name=f"{name}:{pid}")
        self._threads_by_tid[thread.tid] = thread
        self.scheduler.ready(thread)
        return pid

    # -- main loop ------------------------------------------------------------------

    def step(self, max_threads: int = 1) -> bool:
        """Resume up to `max_threads` runnable threads; True if any ran."""
        ran = False
        for _ in range(max_threads):
            self._pump_network()
            thread = self.scheduler.next_thread()
            if thread is None:
                break
            self._resume(thread)
            ran = True
        return ran

    def run(self, max_ticks: int = 100_000) -> None:
        """Run until every process has exited (or panic on deadlock)."""
        idle_ticks = 0
        while any(p.state is ProcessState.ALIVE for p in self.processes.values()):
            if self.step(max_threads=16):
                idle_ticks = 0
                continue
            # nothing runnable: advance time so sleeps and timers fire
            self.advance_time()
            idle_ticks += 1
            if idle_ticks > max_ticks:
                blocked = [
                    f"{t.name} {t.block_reason}"
                    for p in self.processes.values()
                    for t in p.threads.values()
                    if t.state is ThreadState.BLOCKED
                ]
                raise KernelPanic(
                    "deadlock: no runnable threads; blocked: "
                    + "; ".join(blocked)
                )

    def advance_time(self) -> None:
        """One timer tick: wake sleepers, drive network timers."""
        self.timer.tick()
        if self.net is not None:
            self.net.tick(self.timer.ticks)
        self._pump_network()
        self._wake_sleepers()
        self._wake_pollers()

    def _pump_network(self) -> None:
        """Drain the NIC's receive ring (polled: no device interrupts)."""
        if self.net is not None and self.net.poll():
            self._wake_pollers()

    def _wake_sleepers(self) -> None:
        now = self.timer.ticks
        for thread in self.scheduler.parked("sleep"):
            if thread.block_reason.key <= now:
                self.scheduler.wake(thread)

    def _wake_pollers(self) -> None:
        """Re-run the poll function of every thread parked by
        ``poll_or_block`` (the socket waits); wake the completed."""
        for thread in self.scheduler.parked("net"):
            result = thread.block_reason.key()
            if result is not None:
                status, value = result
                self.scheduler.wake(
                    thread, ("error", SyscallError(*value))
                    if status == "err" else ("value", value))

    # -- thread resumption and the syscall boundary ------------------------------------

    def _resume(self, thread: Thread) -> None:
        self.stats.thread_switches += 1
        kind, payload = thread.pending
        thread.pending = ("value", None)
        try:
            if kind == "error":
                request = thread.gen.throw(payload)
            else:
                request = thread.gen.send(payload)
        except StopIteration as stop:
            self._thread_exited(thread, stop.value)
            return
        except SyscallError:
            # user code let a syscall error escape: kill the process
            self._process_exit(thread.process, exit_code=70)
            return
        except Exception as exc:  # user bug: kill the process, log it
            self.serial.write(
                f"[kernel] {thread.name} crashed: "
                f"{type(exc).__name__}: {exc}\n"
            )
            self._process_exit(thread.process, exit_code=70)
            return

        result = self._syscall(thread, request)
        if result is None:
            return  # blocked or exited; do not requeue
        thread.pending = result
        if thread.state is not ThreadState.EXITED:
            self.scheduler.ready(thread)

    def _syscall(self, thread: Thread, request):
        """The trap transport: marshal, invoke, and marshal back.  Returns
        the pending tuple for the thread, or None when the thread blocked
        / exited."""
        if not isinstance(request, Syscall):
            return ("error", SyscallError(
                abi.EINVAL, f"yielded non-syscall {request!r}"))
        self.stats.syscalls += 1
        wire = marshal_call(abi.SYSCALLS[request.name], request.args)
        self.stats.marshalled_bytes += len(wire)
        number, args = unmarshal_call(wire)
        try:
            status, value, park = self._invoke(thread, number, args)
        except ProcessExited:
            return None
        if park is not None:
            self.scheduler.block(thread, park)
            return None
        if status:
            return ("error", SyscallError(status, value))
        # response crosses the boundary too
        response = marshal(value)
        self.stats.marshalled_bytes += len(response)
        return ("value", unmarshal(response))

    def _invoke(self, thread: Thread, number: int, args: tuple) -> tuple:
        """The one dispatch core of both transports: handler lookup and
        the outcome -> errno mapping.  Returns ``(0, result, None)``,
        ``(errno, message, None)``, or — for a handler that would block —
        ``(EAGAIN, message, reason)``: a trap parks the thread on
        ``reason``, a ring (which never parks mid-batch) completes the
        entry with the EAGAIN.  A bad argument count or shape is the
        caller's EINVAL, never the kernel's TypeError."""
        entry = self._handlers.get(number)
        if entry is None:
            return (abi.ENOSYS, abi.NUMBER_TO_NAME.get(number) or str(number),
                    None)
        try:
            return (0, entry.handler(self, thread, *args), None)
        except Block as block:
            return (abi.EAGAIN, f"would block on {block.reason.kind}",
                    block.reason)
        except SyscallFailure as failure:
            return (failure.errno, str(failure), None)
        except TypeError as exc:
            return (abi.EINVAL, f"bad arguments for {entry.name}: {exc}",
                    None)

    def _thread_exited(self, thread: Thread, value) -> None:
        thread.state = ThreadState.EXITED
        thread.exit_value = value
        self.scheduler.forget(thread)
        # wake joiners
        for other in self.scheduler.parked("join"):
            if other.block_reason.key == thread.tid:
                self.scheduler.wake(other, ("value", value))
        process = thread.process
        if not process.alive_threads and process.state is ProcessState.ALIVE:
            self._process_exit(process, exit_code=0)

    def _process_exit(self, process: Process, exit_code: int) -> None:
        if process.state is not ProcessState.ALIVE:
            return
        process.state = ProcessState.ZOMBIE
        process.exit_code = exit_code
        for thread in process.threads.values():
            if thread.state is not ThreadState.EXITED:
                thread.state = ThreadState.EXITED
                self.scheduler.forget(thread)
        process.fdtable.close_all()
        process.vspace.sync()
        # wake a parent blocked in wait()
        for thread in self.scheduler.parked("wait"):
            if (thread.process.pid == process.parent
                    and thread.block_reason.key in (process.pid, -1)):
                process.state = ProcessState.REAPED
                self.scheduler.wake(
                    thread, ("value", (process.pid, exit_code))
                )
                break
