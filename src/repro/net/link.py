"""The wire tier's socket plumbing: one listener, one selector server, one dial, one redial rule.

* :func:`listen` binds by the collector's rule: ``getaddrinfo`` picks the
  family (``tcp://[::1]:0`` is IPv6), and a failed bind names the address;
* :class:`SelectorServer` is the life cycle of the collector and the chaos
  proxy: a listener, one ``selectors`` loop thread, a self-pipe wake, an
  accept-all step and a stop flag;
* :func:`dial` opens an outbound link for the exporter, the relay and the
  proxy's upstream;
* :class:`Backoff` is the exporter's and the relay's redial rule.

>>> backoff, refused = Backoff(0.05, 0.2), lambda: False
>>> [backoff.attempt(refused, force=True) or backoff.delay for _ in range(4)]
[0.1, 0.2, 0.2, 0.2]
>>> host_port("::1", 7717)
'[::1]:7717'
"""

from __future__ import annotations

import contextlib
import selectors
import socket
import threading
import time
from typing import Callable, TypeVar

__all__ = ["Backoff", "SelectorServer", "dial", "hang_up", "host_port", "listen", "nodelay"]

_Server = TypeVar("_Server", bound="SelectorServer")

#: Longest one selector wait (the stop flag is also woken through the self-pipe).
POLL_TIMEOUT = 0.25


def host_port(host: str, port: int) -> str:
    """``host:port``, an IPv6 host bracketed (the form ``parse_address`` reads back)."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


def listen(host: str, port: int, backlog: int) -> socket.socket:
    """A non-blocking listener on ``host:port``; an ``OSError`` that names the address if it fails."""
    server: socket.socket | None = None
    try:
        family, _, _, _, sockaddr = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE)[0]
        server = socket.socket(family, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(sockaddr)
        server.listen(backlog)
        server.setblocking(False)
    except OSError as exc:
        if server is not None:
            server.close()
        # "Address already in use" alone names nothing.
        raise OSError(exc.errno, f"cannot bind {host_port(host, port)}: {exc.strerror or exc}") from exc
    return server


def dial(address: tuple[str, int], connect_timeout: float, send_timeout: float | None = None) -> socket.socket:
    """A connected outbound link with ``send_timeout`` and ``TCP_NODELAY`` set (``OSError`` if unreachable)."""
    sock = socket.create_connection(address, timeout=connect_timeout)
    sock.settimeout(send_timeout)
    nodelay(sock)
    return sock


def nodelay(sock: socket.socket) -> None:
    """Send small frames at once: no wire link holds a frame back."""
    with contextlib.suppress(OSError):  # a non-TCP family
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def hang_up(sock: socket.socket) -> None:
    """Close ``sock``; teardown never raises."""
    with contextlib.suppress(OSError):
        sock.close()


class Backoff:
    """When a down link redials: at once after a loss, then ``initial`` doubling per failure up to ``maximum``.

    Only the link owner's thread calls it.  :meth:`wait` clamps that thread's
    idle time-out to the next redial, so neither a long idle cadence nor
    appends that do not wake it delay a redial.
    """

    __slots__ = ("initial", "maximum", "delay", "next_attempt")

    def __init__(self, initial: float, maximum: float) -> None:
        self.initial = self.delay = float(initial)
        self.maximum = float(maximum)
        self.next_attempt = 0.0

    def attempt(self, connect: Callable[[], bool], force: bool = False) -> bool:
        """Call ``connect`` if a redial is due (or ``force``); True when it connected."""
        if not force and time.monotonic() < self.next_attempt:
            return False
        if connect():
            self.delay, self.next_attempt = self.initial, 0.0
            return True
        self.delay = min(self.delay * 2.0, self.maximum)
        self.next_attempt = time.monotonic() + self.delay
        return False

    def wait(self, idle: float) -> float:
        """``idle``, clamped to the time left before the next redial."""
        return min(idle, max(0.0, self.next_attempt - time.monotonic()))


class SelectorServer:
    """A listener and one ``selectors`` loop thread, closed by :meth:`close`.

    A subclass binds by calling this constructor, calls :meth:`_start` once
    its state is ready, and fills in the hooks: :meth:`_accepted` takes each
    new connection, :meth:`_ready` each ready socket it registered with
    non-``None`` data, :meth:`_after_events` runs once per wake-up and
    :meth:`_teardown` on the loop thread as it exits.
    """

    def __init__(self, host: str, port: int, backlog: int, name: str) -> None:
        self._server = listen(host, port, backlog)
        self.host, self.port = self._server.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._server, selectors.EVENT_READ, None)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._stop_lock = threading.Lock()
        self._closed = False
        self._loop_thread = threading.Thread(target=self._run_loop, name=f"{name}-{self.port}", daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolved to the real one)."""
        return (self.host, self.port)

    @property
    def endpoint(self) -> str:
        """The bound address as the ``"host:port"`` peers dial, an IPv6 host bracketed."""
        return host_port(self.host, self.port)

    @property
    def endpoint_url(self) -> str:
        """The bound address as a ``tcp://host:port`` endpoint URL."""
        return f"tcp://{self.endpoint}"

    def _start(self) -> None:
        self._loop_thread.start()

    def _begin_close(self) -> bool:
        """Set the stop flag; False if it was already set."""
        with self._stop_lock:
            closing, self._closed = not self._closed, True
        return closing

    def _stop_loop(self) -> None:
        self._wake()
        self._loop_thread.join(timeout=5.0)
        self._server.close()
        self._wake_w.close()

    def close(self) -> None:
        """Stop accepting, stop the loop, release the port.  Idempotent."""
        if self._begin_close():
            self._stop_loop()

    def __enter__(self: _Server) -> _Server:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _wake(self) -> None:
        with contextlib.suppress(OSError):  # the loop is already gone
            self._wake_w.send(b"x")

    # ------------------------------------------------------------------ #
    # Event loop (loop thread)
    # ------------------------------------------------------------------ #
    def _run_loop(self) -> None:
        try:
            while not self._closed:
                for key, mask in self._selector.select(timeout=self._select_timeout()):
                    if key.data is not None:
                        self._ready(key, mask)
                    elif key.fileobj is self._server:
                        self._accept_ready()
                    else:
                        with contextlib.suppress(OSError):  # drained
                            while self._wake_r.recv(4096):
                                pass
                self._after_events()
        finally:
            self._teardown()
            self._selector.close()
            self._wake_r.close()

    def _accept_ready(self) -> None:
        """Accept every pending connection (storms arrive in bursts)."""
        while True:
            try:
                sock, peer = self._server.accept()
            except OSError:  # none left, or the listener closed under us
                return
            if self._closed:
                sock.close()
                return
            self._accepted(sock, peer)

    def _unregister(self, sock: socket.socket) -> None:
        with contextlib.suppress(KeyError, ValueError):  # not registered, or closed
            self._selector.unregister(sock)

    def _select_timeout(self) -> float:
        return POLL_TIMEOUT

    def _accepted(self, sock: socket.socket, peer: object) -> None:
        raise NotImplementedError

    def _ready(self, key: selectors.SelectorKey, mask: int) -> None:
        raise NotImplementedError

    def _after_events(self) -> None:
        pass

    def _teardown(self) -> None:
        pass
