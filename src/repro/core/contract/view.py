"""`view()`: the kernel's descriptor table as user space perceives it.

"The view() functions abstract the concrete runtime values to mathematical
representations."  The runtime value is the :class:`FdTable` the syscall
handlers and the WAL call; the representation is the :class:`SysState` the
specification predicates relate — `view(table)` before and after a call
plays `old(sys).view()` and `sys.view()`.  :func:`checked` is that
bracket, the one way a real call is held to its row of
:data:`~repro.core.contract.syscalls.SPECS`.
"""

from __future__ import annotations

from repro.core.contract.state import FileState, SysState
from repro.core.contract.syscalls import SPECS
from repro.immutable import FrozenMap
from repro.nros.fs.fd import FdTable
from repro.nros.fs.fs import FsError


class SpecViolation(AssertionError):
    """A real call's transition that its specification rejects; `args`
    is the counterexample."""


def view(table: FdTable) -> SysState:
    """Abstract a live descriptor table: contents are read back from the
    on-disk filesystem, the offset from the open file; `locked` holds
    because a table is per process, so its owner holds every descriptor
    in it."""
    files = {}
    for fd in table.open_fds():
        stat = table.stat(fd)
        files[fd] = FileState(
            contents=table.fs.read_at(stat.inum, 0, stat.size),
            offset=table.tell(fd), locked=True)
    return SysState(files=FrozenMap(files))


def checked(table: FdTable, call: str, *args):
    """Make the real call ``table.<call>(*args)`` between two `view`s and
    return its result if ``SPECS[call]`` accepts the transition.  A call
    that raises :class:`FsError` must leave `view` unchanged; the error
    is re-raised.  Anything else raises :class:`SpecViolation`."""
    pre = view(table)
    try:
        result = getattr(table, call)(*args)
    except FsError as error:
        if view(table) != pre:
            raise SpecViolation("failed call changed the view", call, args,
                                error) from error
        raise
    if not SPECS[call](pre, view(table), args, result):
        raise SpecViolation("spec violated", call, args, result)
    return result
