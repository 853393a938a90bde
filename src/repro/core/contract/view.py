"""`view()`: the kernel's descriptor table as user space perceives it.

"The view() functions abstract the concrete runtime values to mathematical
representations."  The runtime value is the :class:`FdTable` the syscall
handlers and the WAL call; the representation is the :class:`SysState` the
specification predicates relate — `view(table)` before and after a call
plays `old(sys).view()` and `sys.view()`.
"""

from __future__ import annotations

from repro.core.contract.state import FileState, SysState
from repro.immutable import FrozenMap
from repro.nros.fs.fd import FdTable


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
