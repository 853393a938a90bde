"""Process, thread and scheduling-policy syscalls (plus ``log``,
the console line stamped with the caller's identity)."""

from __future__ import annotations

from repro.nros.proc.process import BlockReason, ProcessState, ThreadState
from repro.nros.syscall import abi
from repro.nros.syscall.table import (Block, ProcessExited, SyscallFailure,
                                      errno_call, trap_only)

_BAD_VALUE = ((ValueError, abi.EINVAL),)


def sys_spawn(k, thread, name: str, argv: tuple = ()) -> int:
    if name not in k._registry:
        raise SyscallFailure(abi.ENOENT, f"no program {name!r}")
    return k.spawn(name, argv, parent=thread.process.pid)


def sys_wait(k, thread, pid: int = -1) -> tuple:
    process = thread.process
    wanted = [pid] if pid != -1 else sorted(process.children)
    children = [child for child in map(k.processes.get, wanted)
                if child is not None and child.parent == process.pid]
    for child in children:
        if child.state is ProcessState.ZOMBIE:
            child.state = ProcessState.REAPED
            return (child.pid, child.exit_code)
    if not any(child.state is ProcessState.ALIVE for child in children):
        raise SyscallFailure(
            abi.ECHILD, "no children to wait for" if pid == -1
            else f"no child {pid} to wait for")
    raise Block(BlockReason("wait", pid))


@trap_only
def sys_exit(k, thread, code: int = 0) -> None:
    k._process_exit(thread.process, exit_code=code)
    raise ProcessExited()


def sys_getpid(k, thread) -> int:
    return thread.process.pid


def sys_kill(k, thread, pid: int) -> None:
    """Terminate ``pid`` (exit code 137)."""
    target = k.processes.get(pid)
    if target is None or target.state is not ProcessState.ALIVE:
        raise SyscallFailure(abi.ESRCH, f"no such process {pid}")
    k._process_exit(target, exit_code=137)
    if target is thread.process:
        raise ProcessExited()


def sys_sched_setscheduler(k, thread, policy: str, param: int = 0) -> None:
    """Switch the calling thread's scheduling class.  ``param`` is
    the nice level for ``"fair"``, the RT priority for ``"fifo"``
    and ``"rr"``."""
    param_name = "nice" if policy == "fair" else "rt_prio"
    errno_call(_BAD_VALUE, k.scheduler.set_policy, thread, policy,
               **{param_name: param})


def sys_sched_getscheduler(k, thread) -> tuple:
    return k.scheduler.policy_of(thread)


def sys_sched_yield(k, thread) -> None:
    return None


def sys_thread_spawn(k, thread, entry: str, argv: tuple = ()) -> int:
    if entry not in k._registry:
        raise SyscallFailure(abi.ENOENT, f"no entry point {entry!r}")
    gen = k._registry[entry](*argv)
    new_thread = thread.process.add_thread(gen)
    k._threads_by_tid[new_thread.tid] = new_thread
    k.scheduler.ready(new_thread)
    return new_thread.tid


def sys_thread_join(k, thread, tid: int):
    target = k._threads_by_tid.get(tid)
    if target is None or target.process is not thread.process:
        raise SyscallFailure(abi.ESRCH, f"no such thread {tid}")
    if target is thread:
        raise SyscallFailure(abi.EINVAL, "cannot join self")
    if target.state is ThreadState.EXITED:
        return target.exit_value
    raise Block(BlockReason("join", tid))


def sys_sleep(k, thread, ticks: int) -> None:
    if ticks < 0:
        raise SyscallFailure(abi.EINVAL, "negative sleep")
    if ticks == 0:
        return None
    raise Block(BlockReason("sleep", k.timer.ticks + ticks))


def sys_log(k, thread, message: str) -> None:
    k.console.info(f"[{thread.process.name}:{thread.process.pid}] {message}")
