"""Message transports: in-process queue pairs and TCP loopback.

Both move whole encoded wire messages (header + payload) as bytes, so the
protocol layer counts traffic identically whichever transport carries it.
"""

from __future__ import annotations

import contextlib
import queue
import socket

from .errors import ProtocolError
from .wire import HEADER_LEN, parse_header

DEFAULT_TIMEOUT = 60.0
_END = None  # a memory channel's end-of-stream marker; messages are bytes


class MemoryChannel:
    """One endpoint of an in-process duplex pipe.

    `close` queues an end-of-stream marker, so the peer's next recv fails at
    once, as on a closed socket, instead of waiting out the timeout.
    """

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue, timeout: float) -> None:
        self._inbox = inbox
        self._outbox = outbox
        self._timeout = timeout

    def send(self, data: bytes) -> None:
        self._outbox.put(data)

    def recv(self) -> bytes:
        try:
            data = self._inbox.get(timeout=self._timeout)
        except queue.Empty:
            raise ProtocolError(
                f"no message within {self._timeout:g}s on memory channel"
            ) from None
        if data is _END:
            self._inbox.put(_END)  # every later recv ends at once too
            raise ProtocolError("memory channel closed by peer")
        return data

    def close(self) -> None:
        self._outbox.put(_END)


def memory_pairs(
    k: int, timeout: float = DEFAULT_TIMEOUT
) -> tuple[list[MemoryChannel], list[MemoryChannel]]:
    """-> (server-side endpoints, client-side endpoints), index-aligned."""
    server_side, client_side = [], []
    for _ in range(k):
        up: queue.Queue = queue.Queue()
        down: queue.Queue = queue.Queue()
        server_side.append(MemoryChannel(up, down, timeout))
        client_side.append(MemoryChannel(down, up, timeout))
    return server_side, client_side


class TcpChannel:
    """One connected socket; recv reassembles exactly one wire message."""

    def __init__(self, sock: socket.socket, timeout: float) -> None:
        sock.settimeout(timeout)
        self._sock = sock

    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as e:
            raise ProtocolError(f"send failed: {e}") from e

    def _recv_exact(self, n: int, what: str) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(min(65536, n - len(buf)))
            except socket.timeout:
                raise ProtocolError(
                    f"timed out reading {what} ({len(buf)}/{n} bytes)"
                ) from None
            except OSError as e:
                raise ProtocolError(f"recv failed: {e}") from e
            if not chunk:
                raise ProtocolError(
                    f"connection closed reading {what} ({len(buf)}/{n} bytes)"
                )
            buf.extend(chunk)
        return bytes(buf)

    def recv(self) -> bytes:
        header = self._recv_exact(HEADER_LEN, "header")
        *_, payload_len = parse_header(header)
        if payload_len == 0:
            return header
        return header + self._recv_exact(payload_len, "payload")

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._sock.close()


class TcpListener:
    """Listens from construction on, so a client may connect before `accept`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._sock.listen(16)
        except OSError as e:  # a port in use, an unresolvable host
            self._sock.close()
            raise ProtocolError(f"cannot listen on {host}:{port}: {e}") from e
        self.host, self.port = self._sock.getsockname()[:2]

    def accept(self, k: int, timeout: float = DEFAULT_TIMEOUT) -> list[TcpChannel]:
        """-> k connected channels. On failure, the ones already accepted are
        closed, so their clients see the end at once."""
        self._sock.settimeout(timeout)
        channels = []
        try:
            for _ in range(k):
                conn, _addr = self._sock.accept()
                channels.append(TcpChannel(conn, timeout))
        except OSError as e:
            for channel in channels:
                channel.close()
            if isinstance(e, socket.timeout):
                raise ProtocolError(
                    f"only {len(channels)} of {k} clients connected within {timeout:g}s"
                ) from None
            raise ProtocolError(
                f"listener closed after {len(channels)} of {k} clients connected"
            ) from e
        return channels

    def close(self) -> None:
        """Stop listening; a pending `accept` in another thread ends at once."""
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)  # close alone does not wake it
        with contextlib.suppress(OSError):
            self._sock.close()


def tcp_connect(
    host: str, port: int, timeout: float = DEFAULT_TIMEOUT
) -> TcpChannel:
    """Connect to a listening `TcpListener`. A refused connection fails at
    once: the listener is gone, and waiting would only hide that."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect((host, port))
    except OSError as e:
        sock.close()
        raise ProtocolError(f"could not connect to {host}:{port}: {e}") from e
    return TcpChannel(sock, timeout)
