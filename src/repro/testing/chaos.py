"""Fault injection: a chaos TCP proxy and a flaky store wrapper.

The paper's robustness claim (§IV-B) is only credible if the stack is
exercised under the failures it claims to absorb.  Two injectors:

- :class:`ChaosProxy` sits between a :class:`~repro.core.RemoteTaskStore`
  and the EMEWS service, forwarding bytes while dropping, delaying, or
  severing connections — the network-level faults of an SSH tunnel over
  a flaky WAN.  Tests point clients at the proxy's address instead of
  the service's.
- :class:`FlakyTaskStore` wraps any :class:`~repro.db.TaskStore` and
  raises ``ConnectionError`` around real operations with a configured
  probability — including *after* the operation applied, the ambiguous
  "request landed, response lost" case that separates idempotent from
  non-idempotent retry handling.

Both take an injected :class:`random.Random` so chaos runs are
reproducible from a seed.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from collections.abc import Iterable
from typing import Any, Callable

from repro.core.ops import Op, store_methods
from repro.db.backend import TaskStore
from repro.db.waits import WaitRegistry

_CHUNK = 65536


class _Pipe:
    """One client <-> upstream connection pair being forwarded."""

    def __init__(self, client: socket.socket, upstream: socket.socket) -> None:
        self.client = client
        self.upstream = upstream
        self._closed = threading.Event()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class ChaosProxy:
    """A byte-forwarding TCP proxy that injects network faults.

    Parameters
    ----------
    upstream_host, upstream_port:
        The real service address to forward to.
    host, port:
        Bind address for the proxy's listener (port 0 picks a free
        port; read :attr:`address` after :meth:`start`).
    sever_rate:
        Probability, evaluated per forwarded chunk, of severing the
        connection pair instead of forwarding — the mid-request drop
        that desyncs a request/response stream.
    delay:
        Seconds to sleep before forwarding each chunk (crude WAN
        latency; applied in both directions).
    rng:
        Seedable randomness source for reproducible chaos.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        host: str = "127.0.0.1",
        port: int = 0,
        sever_rate: float = 0.0,
        delay: float = 0.0,
        rng: random.Random | None = None,
    ) -> None:
        self._upstream = (upstream_host, upstream_port)
        self._sever_rate = sever_rate
        self._delay = delay
        self._rng = rng if rng is not None else random.Random()
        self._rng_lock = threading.Lock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._paused = threading.Event()
        self._stopped = threading.Event()
        self._pipes: list[_Pipe] = []
        self._pipes_lock = threading.Lock()
        self._accept_thread: threading.Thread | None = None
        self.connections_total = 0
        self.connections_severed = 0

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) clients should connect to instead of the service."""
        host, port = self._listener.getsockname()[:2]
        return (str(host), int(port))

    # -- fault controls ----------------------------------------------------

    def sever_all(self) -> int:
        """Hard-close every in-flight connection pair; returns the count.

        Models the tunnel collapsing: every client sees a reset mid-
        conversation and must reconnect (through the proxy) to continue.
        """
        with self._pipes_lock:
            live = [p for p in self._pipes if not p.closed]
        for pipe in live:
            pipe.close()
        self.connections_severed += len(live)
        return len(live)

    def pause(self) -> None:
        """Refuse new connections (existing ones keep flowing).

        With :meth:`sever_all` this models a full outage; clients retry
        against a dead address until :meth:`resume`.
        """
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def set_sever_rate(self, rate: float) -> None:
        """Adjust the per-chunk sever probability at runtime."""
        self._sever_rate = rate

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ChaosProxy":
        if self._accept_thread is not None:
            raise RuntimeError("chaos proxy already started")
        self._listener.listen(32)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopped.set()
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so the join below returns at once.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._pipes_lock:
            pipes = list(self._pipes)
        for pipe in pipes:
            pipe.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- forwarding --------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            if self._paused.is_set():
                client.close()
                continue
            try:
                upstream = socket.create_connection(self._upstream, timeout=5)
            except OSError:
                client.close()
                continue
            pipe = _Pipe(client, upstream)
            with self._pipes_lock:
                self._pipes = [p for p in self._pipes if not p.closed]
                self._pipes.append(pipe)
            self.connections_total += 1
            for src, dst in ((client, upstream), (upstream, client)):
                threading.Thread(
                    target=self._pump,
                    args=(pipe, src, dst),
                    name="chaos-proxy-pump",
                    daemon=True,
                ).start()

    def _chaos_says_sever(self) -> bool:
        if self._sever_rate <= 0:
            return False
        with self._rng_lock:
            return self._rng.random() < self._sever_rate

    def _pump(self, pipe: _Pipe, src: socket.socket, dst: socket.socket) -> None:
        while not pipe.closed:
            try:
                chunk = src.recv(_CHUNK)
            except OSError:
                break
            if not chunk:
                break
            if self._chaos_says_sever():
                self.connections_severed += 1
                pipe.close()
                return
            if self._delay > 0:
                time.sleep(self._delay)
            try:
                dst.sendall(chunk)
            except OSError:
                break
        pipe.close()


def _flaky_delegate(op: Op) -> Any:
    """One op's :class:`FlakyTaskStore` method: the inner store's own
    method, arguments untouched, behind the fault injector."""
    name = op.name

    def delegate(self: "FlakyTaskStore", *args: Any, **kwargs: Any) -> Any:
        return self._invoke(
            name, lambda: getattr(self._inner, name)(*args, **kwargs)
        )

    return delegate


@store_methods(_flaky_delegate)
class FlakyTaskStore(TaskStore):
    """A TaskStore wrapper that injects connection faults around calls.

    Every op of the store contract is delegated (derived from
    :data:`repro.core.ops.OPS`, so none can be missed and no default is
    restated); only ``close`` and ``wake_waiters`` — shutdown paths —
    never inject.

    ``failure_rate`` is the per-call probability of raising
    ``ConnectionError``.  When a fault fires, ``lost_response_rate``
    decides *where*: with that probability the real operation executes
    first and the fault hits on the way back (the applied-but-unacked
    ambiguity); otherwise the fault fires before the operation runs.
    ``methods`` optionally restricts injection to named methods.

    The wrapper counts faults per method in :attr:`faults_injected`, so
    tests can assert chaos actually happened (a chaos test that injected
    nothing proves nothing).
    """

    def __init__(
        self,
        inner: TaskStore,
        failure_rate: float = 0.1,
        lost_response_rate: float = 0.5,
        methods: Iterable[str] | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self._inner = inner
        self._failure_rate = failure_rate
        self._lost_response_rate = lost_response_rate
        self._methods = frozenset(methods) if methods is not None else None
        self._rng = rng if rng is not None else random.Random()
        self._rng_lock = threading.Lock()
        self.faults_injected: dict[str, int] = {}

    @property
    def inner(self) -> TaskStore:
        """The wrapped store (for assertions on true state)."""
        return self._inner

    @property
    def waits(self) -> WaitRegistry | None:
        return self._inner.waits  # writes land in the inner store

    def wake_waiters(self) -> None:
        # Never inject on wake: it's a shutdown path, like close().
        self._inner.wake_waiters()

    def _invoke(self, method: str, op: Callable[[], Any]) -> Any:
        if self._methods is not None and method not in self._methods:
            return op()
        with self._rng_lock:
            fault = self._rng.random() < self._failure_rate
            after = fault and self._rng.random() < self._lost_response_rate
        if fault and not after:
            self.faults_injected[method] = self.faults_injected.get(method, 0) + 1
            raise ConnectionError(f"injected fault before {method}")
        result = op()
        if fault:
            self.faults_injected[method] = self.faults_injected.get(method, 0) + 1
            raise ConnectionError(f"injected fault after {method} (response lost)")
        return result

    def close(self) -> None:
        # Never inject on close: cleanup must always succeed.
        self._inner.close()
