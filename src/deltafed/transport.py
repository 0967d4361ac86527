"""Message transports for one thread: in-process deque pairs and TCP loopback.

Both move whole encoded wire messages (header + payload) as bytes, so the
protocol layer counts traffic identically whichever transport carries it.
One thread holds both ends of every channel (`protocol.run_server`), so no
recv may wait on a peer that only it could move: a memory recv fails at once
on an empty deque, and a TCP recv pumps every channel of its `Hub`.
"""

from __future__ import annotations

import collections
import contextlib
import selectors
import socket
import time

from .errors import DeltaFedError, ProtocolError
from .wire import HEADER_LEN, parse_header

DEFAULT_TIMEOUT = 60.0
_END = None  # a memory channel's end-of-stream marker; messages are bytes


class MemoryChannel:
    """One endpoint of an in-process duplex pipe. `close` queues an
    end-of-stream marker, so the peer's next recv fails as on a closed socket."""

    def __init__(self, inbox: collections.deque, outbox: collections.deque) -> None:
        self._inbox = inbox
        self._outbox = outbox

    def send(self, data: bytes) -> None:
        self._outbox.append(data)

    def recv(self) -> bytes:
        if not self._inbox:
            raise ProtocolError("memory channel is empty")
        if self._inbox[0] is _END:  # stays, so every later recv ends too
            raise ProtocolError("memory channel closed by peer")
        return self._inbox.popleft()

    def close(self) -> None:
        self._outbox.append(_END)


def memory_pairs(k: int) -> tuple[list[MemoryChannel], list[MemoryChannel]]:
    """-> (server-side endpoints, client-side endpoints), index-aligned."""
    server_side, client_side = [], []
    for _ in range(k):
        up: collections.deque = collections.deque()
        down: collections.deque = collections.deque()
        server_side.append(MemoryChannel(up, down))
        client_side.append(MemoryChannel(down, up))
    return server_side, client_side


class Hub:
    """The TCP channels one thread drives, and how long a recv waits."""

    def __init__(self, timeout: float = DEFAULT_TIMEOUT) -> None:
        self.timeout = timeout
        self.channels: set[TcpChannel] = set()

    def pump(self, timeout: float) -> None:
        """Wait up to `timeout` for channels to be ready; write and read them."""
        with selectors.PollSelector() as ready:
            for ch in self.channels:
                reading = 0 if ch._complete() else selectors.EVENT_READ
                events = reading | (selectors.EVENT_WRITE if ch._out else 0)
                if events and ch._error is None:
                    ready.register(ch._sock, events, ch)
            for key, mask in ready.select(timeout):
                if mask & selectors.EVENT_WRITE:
                    key.data._flush()
                if mask & selectors.EVENT_READ:
                    key.data._fill()


class TcpChannel:
    """One connected socket, served by its hub. `send` writes what the socket
    takes and buffers the rest; `recv` pumps the hub until one whole message
    has arrived, or its timeout passes. A channel reads one message at a
    time, its header checked before its payload; a failure seen while
    pumping for another is raised by its own next call."""

    def __init__(self, sock: socket.socket, hub: Hub | None = None) -> None:
        sock.setblocking(False)
        self._sock = sock
        self._hub = hub or Hub()
        self._hub.channels.add(self)
        self._out = bytearray()  # written by the hub as the socket takes it
        self._error: DeltaFedError | None = None
        self._next_message()

    def _next_message(self) -> None:
        self._buf = bytearray(HEADER_LEN)  # the header, then the whole message
        self._got = 0
        self._sized = False  # the header is read and checked

    def _complete(self) -> bool:
        return self._sized and self._got == len(self._buf)

    def _check(self) -> None:
        if self._error is not None:
            raise self._error

    def send(self, data: bytes) -> None:
        """Write what the socket takes now; the hub writes the rest."""
        self._check()
        self._out += data
        self._flush()
        self._check()

    def recv(self) -> bytes:
        deadline = time.monotonic() + self._hub.timeout
        while not self._complete():
            self._check()
            left = deadline - time.monotonic()
            if left <= 0:
                raise ProtocolError(f"timed out reading {self._part()}")
            self._hub.pump(left)
        data = bytes(self._buf)
        self._next_message()
        return data

    def _part(self) -> str:
        what = "payload" if self._sized else "header"
        return f"{what} ({self._got}/{len(self._buf)} bytes)"

    def _flush(self) -> None:
        """Write buffered bytes until the socket takes no more."""
        try:
            while self._out:
                del self._out[: self._sock.send(self._out)]
        except BlockingIOError:
            pass
        except OSError as e:
            self._out.clear()
            self._error = ProtocolError(f"send failed: {e}")

    def _fill(self) -> None:
        """Read what has arrived of the message in progress, and no further."""
        try:
            while self._error is None and not self._complete():
                if self._got == len(self._buf):  # a whole header
                    *_, payload_len = parse_header(self._buf)
                    self._sized = True
                    self._buf += bytes(payload_len)
                    continue
                n = self._sock.recv_into(memoryview(self._buf)[self._got :])
                if not n:
                    raise ProtocolError(f"connection closed reading {self._part()}")
                self._got += n
        except BlockingIOError:
            pass
        except DeltaFedError as e:  # a closed peer, a bad header
            self._error = e
        except OSError as e:
            self._error = ProtocolError(f"recv failed: {e}")

    def close(self) -> None:
        self._hub.channels.discard(self)
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

    def accept(self, hub: Hub) -> TcpChannel:
        """-> the next client's channel, served by `hub`, within its timeout."""
        self._sock.settimeout(hub.timeout)
        try:
            conn, _addr = self._sock.accept()
        except socket.timeout:
            raise ProtocolError(f"no client connected within {hub.timeout:g}s") from None
        except OSError as e:
            raise ProtocolError(f"accept failed: {e}") from e
        return TcpChannel(conn, hub)

    def close(self) -> None:
        self._sock.close()


def tcp_connect(host: str, port: int, hub: Hub | None = None) -> TcpChannel:
    """Connect to a listening `TcpListener`; the channel is served by `hub`.
    A refused connection fails at once: the listener is gone."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(hub.timeout if hub else DEFAULT_TIMEOUT)
        sock.connect((host, port))
    except OSError as e:
        sock.close()
        raise ProtocolError(f"could not connect to {host}:{port}: {e}") from e
    return TcpChannel(sock, hub)
