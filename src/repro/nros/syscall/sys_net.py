"""Network syscalls: UDP sockets and RDP (reliable datagram) connections."""

from __future__ import annotations

from repro.nros.net.rdp import (STATE_CLOSED, STATE_ESTABLISHED,
                                RdpConnection)
from repro.nros.net.stack import NetError, NetStack, RdpListener
from repro.nros.syscall import abi
from repro.nros.syscall.table import (SyscallFailure, errno_call,
                                      poll_or_block)


def _net(k) -> NetStack:
    if k.net is None:
        raise SyscallFailure(abi.ENOSYS, "no network configured")
    return k.net


def _net_call(fn, *args):
    return errno_call(((NetError, abi.EINVAL),), fn, *args)


def _conn(thread, sid: int) -> RdpConnection:
    conn = thread.process.sockets.get(sid)
    if not isinstance(conn, RdpConnection):
        raise SyscallFailure(abi.EBADF, f"socket {sid} is not a connection")
    return conn


def _install(process, sock) -> int:
    sid = process.new_sid()
    process.sockets[sid] = sock
    return sid


def sys_socket(k, thread) -> int:
    _net(k)
    return _install(thread.process, None)  # bound later


def sys_bind(k, thread, sid: int, port: int) -> None:
    net = _net(k)
    process = thread.process
    if sid not in process.sockets:
        raise SyscallFailure(abi.EBADF, f"no socket {sid}")
    process.sockets[sid] = _net_call(net.udp_bind, port)


def sys_sendto(k, thread, sid: int, dst_ip: int, dst_port: int,
               payload: bytes) -> None:
    net = _net(k)
    sock = thread.process.sockets.get(sid)
    src_port = sock.port if sock is not None else 0
    _net_call(net.udp_send, src_port, dst_ip, dst_port, payload)


def sys_recvfrom(k, thread, sid: int):
    _net(k)
    sock = thread.process.sockets.get(sid)
    if sock is None:
        raise SyscallFailure(abi.EINVAL, f"socket {sid} not bound")

    def poll():
        if sock.recv_queue:
            return ("ok", sock.recv_queue.popleft())
        return None

    return poll_or_block(poll)


def sys_rdp_listen(k, thread, port: int) -> int:
    return _install(thread.process, _net_call(_net(k).rdp_listen, port))


def sys_rdp_connect(k, thread, dst_ip: int, dst_port: int):
    net = _net(k)
    conn = net.rdp_connect(dst_ip, dst_port)
    sid = _install(thread.process, conn)
    net.tick(k.timer.ticks)  # send the SYN promptly

    def poll():
        if conn.state == STATE_ESTABLISHED:
            return ("ok", sid)
        if conn.state == STATE_CLOSED:
            return ("err", (abi.ECONNREFUSED, "connect failed"))
        return None

    return poll_or_block(poll)


def sys_rdp_accept(k, thread, sid: int):
    _net(k)
    process = thread.process
    listener = process.sockets.get(sid)
    if not isinstance(listener, RdpListener):
        raise SyscallFailure(abi.EINVAL, f"socket {sid} not listening")

    def poll():
        if listener.pending:
            return ("ok", _install(process, listener.pending.popleft()))
        return None

    return poll_or_block(poll)


def sys_rdp_send(k, thread, sid: int, payload: bytes) -> None:
    net = _net(k)
    conn = _conn(thread, sid)
    if conn.state == STATE_CLOSED:
        raise SyscallFailure(abi.ENOTCONN, "connection closed")
    net.rdp_send(conn, payload)
    net.tick(k.timer.ticks)  # opportunistic transmit


def sys_rdp_recv(k, thread, sid: int):
    _net(k)
    conn = _conn(thread, sid)

    def poll():
        if conn.recv_queue:
            return ("ok", conn.recv_queue.popleft())
        if conn.state == STATE_CLOSED:
            return ("err", (abi.ENOTCONN, "connection closed"))
        return None

    return poll_or_block(poll)


def sys_rdp_close(k, thread, sid: int) -> None:
    net = _net(k)
    net.rdp_close(_conn(thread, sid))
