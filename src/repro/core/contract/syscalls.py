"""Syscall specification predicates — Section 3 of the paper, verbatim.

The paper's running example:

    spec fn read_spec(pre: State, post: State, fd: usize,
                      buffer: Seq<u8>, read_len: usize)
    { pre.files[fd].locked
      && read_len == min(buffer.len(), pre.files[fd].size -
                          pre.files[fd].offset)
      && buffer[0 .. read_len] == pre.files[fd].contents[
            pre.files[fd].offset .. (pre.files[fd].offset + read_len)]
      && post.files[fd].offset == pre.files[fd].offset + read_len }

Each predicate below relates the pre state, the post state, the syscall
arguments, and the results — exactly the transition relation the kernel's
implementation must refine and user code may rely on.  :data:`SPECS`
states, once, which predicate judges which call.
"""

from __future__ import annotations

from repro.core.contract.state import SysState


def read_spec(
    pre: SysState,
    post: SysState,
    fd: int,
    buffer_len: int,
    data: bytes,
    read_len: int,
) -> bool:
    """The paper's read_spec.  `data` is the buffer contents after the
    call (the paper's `buffer[0..read_len]`)."""
    if not pre.has_fd(fd):
        return False
    f = pre.file(fd)
    if not f.locked:
        return False
    expected_len = min(buffer_len, f.size - f.offset)
    return (
        read_len == expected_len
        and data[:read_len] == f.contents[f.offset : f.offset + read_len]
        and post.has_fd(fd)
        and post.file(fd).offset == f.offset + read_len
        and post.file(fd).contents == f.contents
        and _others_unchanged(pre, post, fd)
    )


def write_spec(
    pre: SysState,
    post: SysState,
    fd: int,
    data: bytes,
    written: int,
) -> bool:
    """Writing at the current offset replaces/extends the contents and
    advances the offset."""
    if not pre.has_fd(fd):
        return False
    f = pre.file(fd)
    if not f.locked:
        return False
    expected = (
        f.contents[: f.offset]
        + b"\x00" * max(0, f.offset - f.size)  # sparse gap fills with zeros
        + data
        + f.contents[f.offset + len(data):]
    )
    return (
        written == len(data)
        and post.has_fd(fd)
        and post.file(fd).contents == expected
        and post.file(fd).offset == f.offset + written
        and _others_unchanged(pre, post, fd)
    )


def open_spec(pre: SysState, post: SysState, fd: int) -> bool:
    """A fresh descriptor appears at the lowest free slot, empty, at
    offset zero, locked by the caller."""
    return (
        fd == pre.lowest_free_fd()
        and not pre.has_fd(fd)
        and post.has_fd(fd)
        and post.file(fd).contents == b""
        and post.file(fd).offset == 0
        and post.file(fd).locked
        and _others_unchanged(pre, post, fd)
    )


def close_spec(pre: SysState, post: SysState, fd: int) -> bool:
    return (
        pre.has_fd(fd)
        and not post.has_fd(fd)
        and _others_unchanged(pre, post, fd)
    )


def seek_spec(pre: SysState, post: SysState, fd: int, offset: int) -> bool:
    if not pre.has_fd(fd) or offset < 0:
        return False
    f = pre.file(fd)
    return (
        post.has_fd(fd)
        and post.file(fd).offset == offset
        and post.file(fd).contents == f.contents
        and _others_unchanged(pre, post, fd)
    )


def _others_unchanged(pre: SysState, post: SysState, fd: int) -> bool:
    """Frame condition: no descriptor other than `fd` changes."""
    for other in set(pre.files.keys()) | set(post.files.keys()):
        if other == fd:
            continue
        if not pre.has_fd(other) or not post.has_fd(other):
            return False
        if pre.file(other) != post.file(other):
            return False
    return True


# -- one row per call ----------------------------------------------------------
# Each row reads the call's arguments `args` (as passed to `FdTable`) and
# its `result` into the paper-verbatim predicate above.


def _open(pre: SysState, post: SysState, args: tuple, fd: int) -> bool:
    return open_spec(pre, post, fd)


def _close(pre: SysState, post: SysState, args: tuple, _) -> bool:
    return close_spec(pre, post, args[0])


def _read(pre: SysState, post: SysState, args: tuple, data: bytes) -> bool:
    return read_spec(pre, post, args[0], args[1], data, len(data))


def _write(pre: SysState, post: SysState, args: tuple, written: int) -> bool:
    return write_spec(pre, post, args[0], args[1], written)


def _seek(pre: SysState, post: SysState, args: tuple, _) -> bool:
    return seek_spec(pre, post, args[0], args[1])


#: syscall name -> its predicate over (pre, post, args, result)
SPECS = {"open": _open, "close": _close, "read": _read, "write": _write,
         "seek": _seek}
