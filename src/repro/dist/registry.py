"""Worker fleet bookkeeping: addresses, membership, liveness.

The registry is the coordinator's view of its fleet.  It is deliberately
passive — dispatcher threads *report* joins and losses; the registry
turns them into the observability surface (``dist.workers_connected``
gauge, ``dist.worker_join``/``dist.worker_lost`` counters,
``worker_join``/``worker_lost`` trace events) and remembers enough for
``repro report`` to say which workers did what.

:func:`ping_worker` is the standalone liveness probe: a full handshake
plus one ping/pong round-trip, used by ``repro worker --ping`` style
checks and by tests that need to know a worker is accepting before they
point a sweep at it.
"""

from __future__ import annotations

import socket
import threading

from repro.dist.protocol import HandshakeError, hello_frame, recv_frame, send_frame
from repro.obs.events import WorkerJoinEvent, WorkerLostEvent
from repro.obs.metrics import METRICS
from repro.obs.tracer import get_tracer

__all__ = ["WorkerRegistry", "format_address", "parse_worker_address", "ping_worker"]


def parse_worker_address(value) -> tuple[str, int]:
    """``host:port`` / ``[v6host]:port`` (or an ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(value, tuple):
        host, port = value
        return str(host), int(port)
    text = str(value).strip()
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"worker address {value!r} is not host:port")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
        if not host:
            raise ValueError(f"worker address {value!r} has an empty bracketed host")
    elif ":" in host:
        raise ValueError(
            f"worker address {value!r} is ambiguous: bracket IPv6 hosts as [{host}]:{port}"
        )
    return host, int(port)


def format_address(address: tuple[str, int]) -> str:
    host = str(address[0])
    if ":" in host:  # IPv6 literal: bracket so the text round-trips through parse
        return f"[{host}]:{address[1]}"
    return f"{host}:{address[1]}"


class WorkerRegistry:
    """Thread-safe membership ledger for one coordinator's fleet."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._connected: dict[str, dict] = {}
        self.joined = 0
        self.lost = 0

    def note_join(self, address: tuple[str, int], worker_id: str, pid: int) -> None:
        addr = format_address(address)
        with self._lock:
            self._connected[addr] = {"worker": worker_id, "pid": pid}
            self.joined += 1
            METRICS.counter("dist.worker_join").inc()
            METRICS.gauge("dist.workers_connected").set(len(self._connected))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(WorkerJoinEvent(worker=worker_id, address=addr, pid=pid))

    def note_lost(self, address: tuple[str, int], reason: str, *, requeued: int = 0) -> bool:
        """Record the death of a *member*; returns whether anything was counted.

        The dispatch-failure path and the reachability probe can both
        report the same death (and a connect-refused retry reports a
        worker that never joined at all), so losses are only counted —
        and ``worker_lost`` only emitted — for addresses currently in the
        membership view.  Anything else is a duplicate or a stranger and
        is dropped so ``repro report`` stays honest.
        """
        addr = format_address(address)
        with self._lock:
            info = self._connected.pop(addr, None)
            if info is None:
                return False
            self.lost += 1
            METRICS.counter("dist.worker_lost").inc()
            METRICS.gauge("dist.workers_connected").set(len(self._connected))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                WorkerLostEvent(
                    worker=info["worker"],
                    address=addr,
                    reason=reason,
                    requeued=requeued,
                )
            )
        return True


def ping_worker(address: tuple[str, int], *, timeout_s: float = 5.0) -> dict:
    """Handshake + one ping round-trip; returns the worker's welcome info.

    Raises ``OSError`` if the worker is unreachable and
    :class:`~repro.dist.protocol.HandshakeError` if it is reachable but
    incompatible — callers distinguish "down" from "wrong build".
    """
    with socket.create_connection(address, timeout=timeout_s) as sock:
        send_frame(sock, hello_frame(None, None))
        welcome = recv_frame(sock)
        if welcome is None or welcome.get("type") != "welcome":
            error = (welcome or {}).get("error", "worker closed during handshake")
            raise HandshakeError(error)
        send_frame(sock, {"type": "ping"})
        pong = recv_frame(sock)
        if pong is None or pong.get("type") != "pong":
            raise HandshakeError("worker did not answer ping")
        send_frame(sock, {"type": "bye"})
        return {
            "worker": welcome.get("worker_id", "?"),
            "pid": welcome.get("pid", 0),
            "version": welcome.get("version", "?"),
        }
