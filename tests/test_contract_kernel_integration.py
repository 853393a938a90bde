"""The client contract against the *real* kernel syscall path.

Section 3's promise is that the specification a process verifies against
is the same one the kernel implements.  These tests run user programs on
the full kernel (marshalled syscalls, on-disk filesystem) through both
transports of `Kernel._invoke` — one trap per call, and one SQE per
`ring_enter` — with `view()` of the process's own descriptor table taken
around every call; the call's row of `SPECS` must accept each observed
transition, and a call that fails must leave the view unchanged.
"""

from repro.core.contract.syscalls import SPECS
from repro.core.contract.view import view
from repro.nros.fs.fd import O_CREAT, O_RDWR
from repro.nros.kernel import Kernel
from repro.nros.syscall.abi import EINVAL, SyscallError, sys
from repro.ulib.ring import Ring

TRANSPORTS = ("trap", "ring")


def run_checked(scenario, transport):
    """Run ``scenario(call)`` as a user program.  ``yield from call(name,
    *args)`` makes one syscall through `transport`, bracketed by `view()`
    of the process's descriptor table.  Returns the kernel and every
    observed call as ``(name, pre, post, args, result)``, where a failed
    call's result is the :class:`SyscallError` it raised."""
    kernel = Kernel()
    ring = Ring(sq_depth=4)
    calls = []

    def call(name, *args):
        table = kernel.processes[pid].fdtable
        pre = view(table)
        try:
            if transport == "trap":
                result = yield sys(name, *args)
            else:
                ring.prepare(name, args)
                (result,) = Ring.unwrap((yield from ring.submit()))
        except SyscallError as error:
            calls.append((name, pre, view(table), args, error))
            raise
        calls.append((name, pre, view(table), args, result))
        return result

    def prog():
        if transport == "ring":
            yield from ring.setup()
        yield from scenario(call)

    kernel.register_program("p", prog)
    pid = kernel.spawn("p")
    kernel.run()
    assert kernel.processes[pid].exit_code == 0, transport
    assert kernel.stats.ring_batches == \
        (len(calls) if transport == "ring" else 0)
    return kernel, calls


def violations(calls):
    """Calls whose transition their `SPECS` row rejects, and failed calls
    that changed the view."""
    return [(name, args, result) for name, pre, post, args, result in calls
            if not (post == pre if isinstance(result, SyscallError)
                    else SPECS[name](pre, post, args, result))]


class TestKernelRefinesContract:
    def test_read_spec_on_real_syscalls(self):
        def scenario(call):
            fd = yield from call("open", "/contract.bin", O_CREAT | O_RDWR)
            yield from call("write", fd, b"0123456789abcdef")
            yield from call("seek", fd, 4)
            for buffer_len in (3, 5, 100, 1):
                yield from call("read", fd, buffer_len)
            yield from call("close", fd)

        for transport in TRANSPORTS:
            kernel, calls = run_checked(scenario, transport)
            assert violations(calls) == [], transport
            inum = kernel.fs.lookup("/contract.bin")
            assert kernel.fs.read_at(inum, 0, 100) == b"0123456789abcdef"

    def test_sparse_writes_match_spec(self):
        def scenario(call):
            fd = yield from call("open", "/sparse", O_CREAT | O_RDWR)
            yield from call("seek", fd, 10)
            yield from call("write", fd, b"tail")
            yield from call("seek", fd, 0)
            yield from call("read", fd, 100)

        for transport in TRANSPORTS:
            kernel, calls = run_checked(scenario, transport)
            assert violations(calls) == [], transport
            final = calls[-1][2]
            assert final.file(0).contents == b"\x00" * 10 + b"tail"
            inum = kernel.fs.lookup("/sparse")
            assert kernel.fs.read_at(inum, 0, 100) == final.file(0).contents

    def test_interleaved_fds_respect_frame_condition(self):
        """Operations on one fd leave the other fd's abstract state
        untouched (the contract's frame condition) on the real kernel."""

        def scenario(call):
            fd_a = yield from call("open", "/a", O_CREAT | O_RDWR)
            fd_b = yield from call("open", "/b", O_CREAT | O_RDWR)
            yield from call("write", fd_a, b"aaaa")
            yield from call("write", fd_b, b"bb")
            yield from call("seek", fd_a, 0)
            yield from call("read", fd_a, 4)

        for transport in TRANSPORTS:
            kernel, calls = run_checked(scenario, transport)
            assert violations(calls) == [], transport
            final = calls[-1][2]
            assert final.file(1).contents == b"bb"
            assert final.file(1).offset == 2
            inum = kernel.fs.lookup("/b")
            assert kernel.fs.read_at(inum, 0, 100) == b"bb"

    def test_mirror_catches_a_lying_kernel(self):
        """Vacuity guard: had the kernel returned wrong bytes, or left the
        offset where it was, the same check would have rejected the call."""

        def scenario(call):
            fd = yield from call("open", "/f", O_CREAT | O_RDWR)
            yield from call("write", fd, b"real contents")
            yield from call("seek", fd, 0)
            yield from call("read", fd, 4)

        for transport in TRANSPORTS:
            _, calls = run_checked(scenario, transport)
            name, pre, post, args, result = calls[-1]
            assert (name, result) == ("read", b"real")
            assert SPECS[name](pre, post, args, result)
            assert not SPECS[name](pre, post, args, b"fake")
            assert not SPECS[name](pre, pre, args, result)

    def test_negative_read_length_is_einval(self):
        """`read_spec` admits no result for a negative buffer length, so
        the kernel must refuse the call and leave the view unchanged."""
        errnos = []

        def scenario(call):
            fd = yield from call("open", "/neg", O_CREAT | O_RDWR)
            yield from call("write", fd, b"data")
            yield from call("seek", fd, 1)
            try:
                yield from call("read", fd, -1)
            except SyscallError as error:
                errnos.append(error.errno)

        for transport in TRANSPORTS:
            _, calls = run_checked(scenario, transport)
            assert violations(calls) == [], transport
            assert errnos.pop() == EINVAL, transport
