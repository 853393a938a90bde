"""The syscall table is declared once and both transports share one
dispatch core: table completeness, and a trap-vs-ring differential."""

import pytest

from repro.nros.kernel import Kernel
from repro.nros.syscall import abi, sys_futex, table
from repro.nros.syscall import ring as ringmod
from repro.nros.syscall.abi import SyscallError, sys

UNMAPPED = 0x7000_0000


class TestTableCompleteness:
    def test_every_abi_syscall_has_exactly_one_handler(self):
        entries = Kernel._handlers
        assert len(set(abi.SYSCALLS.values())) == len(abi.SYSCALLS)
        assert {entry.name for entry in entries.values()} == set(abi.SYSCALLS)
        assert len(entries) == len(abi.SYSCALLS)
        for number, entry in entries.items():
            assert number == abi.SYSCALLS[entry.name]
            assert entry.handler.__name__ == f"sys_{entry.name}"
        assert len({entry.handler for entry in entries.values()}) \
            == len(entries)

    def test_ring_ineligible_set(self):
        ineligible = {e.name for e in Kernel._handlers.values() if not e.ring}
        assert ineligible == {"exit", "ring_setup", "ring_enter", "ring_reap"}
        assert ringmod.RING_FORBIDDEN == ineligible

    def test_a_table_that_disagrees_with_the_abi_is_refused(self, monkeypatch):
        def handler(k, thread):
            return 0

        handler.__module__ = sys_futex.__name__
        for attr, complaint in (("sys_no_such_call", "names no ABI syscall"),
                                ("sys_getpid", "already declared")):
            with monkeypatch.context() as patch:
                patch.setattr(sys_futex, attr, handler, raising=False)
                with pytest.raises(ImportError, match=complaint):
                    table.load()
        with monkeypatch.context() as patch:
            patch.delattr(sys_futex, "sys_futex_wake")
            with pytest.raises(ImportError, match="futex_wake"):
                table.load()
        assert table.load() == Kernel._handlers


#: (syscall, args, expected status) — idempotent calls only, because each
#: runs twice (once per transport) in the same process.
DIFFERENTIAL_CASES = [
    ("getpid", (), 0),
    ("stat", ("/",), 0),
    ("sleep", (0,), 0),
    ("vm_unmap", (UNMAPPED,), abi.ENOENT),
    ("vm_resolve", (UNMAPPED,), abi.ENOENT),
    ("vm_unmap_batch", (UNMAPPED, 2), abi.ENOENT),
    ("peek", (UNMAPPED,), abi.EFAULT),
    ("close", (99,), abi.EBADF),
    ("open", ("/missing", 0), abi.ENOENT),
    ("kill", (9999,), abi.ESRCH),
    ("kill", (9999, 15), abi.EINVAL),    # kill takes no signal number
    ("socket", (), abi.ENOSYS),          # this kernel has no network
    ("ring_setup", (0,), abi.EINVAL),    # depth out of range
    ("vm_map", (), abi.EINVAL),          # wrong argument count
    ("vm_map", (1, 2, 3), abi.EINVAL),
    ("sleep", ("soon",), abi.EINVAL),    # wrong argument shape
]


def test_trap_and_ring_agree_on_value_and_errno():
    """The same call yields the same value / errno whether it arrives as
    ``yield sys(...)`` or as a one-SQE ring submission."""
    via_trap, via_ring = [], []

    def prog():
        rid, *_ = yield sys("ring_setup", 4)
        for name, args, _status in DIFFERENTIAL_CASES:
            try:
                via_trap.append((0, (yield sys(name, *args))))
            except SyscallError as exc:
                via_trap.append((exc.errno, None))
            blob = ringmod.encode_sqe(7, abi.SYSCALLS[name], args)
            ((_tag, status, value),) = yield sys("ring_enter", rid, blob, True)
            via_ring.append((status, None if status else value))

    kernel = Kernel(num_cores=2)
    kernel.register_program("diff", prog)
    pid = kernel.spawn("diff")
    kernel.run()
    assert kernel.processes[pid].exit_code == 0
    assert via_trap == via_ring
    assert [status for status, _ in via_trap] \
        == [status for _, _, status in DIFFERENTIAL_CASES]


def test_a_removed_number_completes_with_enosys():
    """Numbers 70-73 were the pipe calls: an SQE that still names one
    reaches ``_invoke`` and completes ENOSYS, and the ring stays usable."""
    completions = []

    def prog():
        rid, *_ = yield sys("ring_setup", 4)
        for number in (70, abi.SYSCALLS["getpid"]):
            blob = ringmod.encode_sqe(number, number, ())
            completions.extend((yield sys("ring_enter", rid, blob, True)))

    assert 70 not in abi.NUMBER_TO_NAME
    kernel = Kernel()
    kernel.register_program("stale", prog)
    pid = kernel.spawn("stale")
    kernel.run()
    assert kernel.processes[pid].exit_code == 0
    assert completions == [(70, abi.ENOSYS, "70"),
                           (abi.SYSCALLS["getpid"], 0, pid)]
