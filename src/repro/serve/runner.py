"""Service lifecycle: settings, event loop, signals, test harness.

``run_server`` is what ``repro serve`` calls: build the engine/store
stack from :class:`ServeSettings`, run :func:`serve_forever` until a
signal (or the ``stop`` event in tests) begins the drain, and exit 0 on
a clean drain — the same contract ``repro sweep`` has under SIGTERM
(PR 5): in-flight work finishes and is journaled, queued work is
released for a later resume, the warm pool shuts down.

``start_in_thread`` runs the whole service on a daemon thread with its
own event loop — the harness the in-process tests and the concurrency
benchmark use, so they exercise the real HTTP path without subprocesses.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.engine import SerialEngine
from repro.exec.pool import ProcessPoolEngine
from repro.exec.store import ResultStore
from repro.obs.metrics import METRICS
from repro.prep import configure_prep
from repro.serve.admission import AdmissionController
from repro.serve.http import start_http_server
from repro.serve.protocol import DEFAULT_PORT
from repro.serve.service import SweepService

__all__ = [
    "ServeSettings",
    "ServerHandle",
    "run_server",
    "serve_forever",
    "start_in_thread",
    "write_port_file",
]

_SIGNALS = ("SIGINT", "SIGTERM")


def write_port_file(path: str | Path | None, port: int) -> None:
    """Publish a bound port to ``path`` (no-op for None), the readiness
    signal of ``repro serve`` and ``repro worker``.

    A supervisor may send SIGTERM the moment the file appears, so callers
    install their signal handlers *before* calling this.  The write is
    atomic (temp file + rename): a poller never reads a partial port.
    """
    if path is None:
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    tmp.write_text(f"{port}\n", encoding="utf-8")
    os.replace(tmp, path)


@dataclass
class ServeSettings:
    """Everything ``repro serve`` configures, defaults matching the CLI."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    data_dir: Path = field(default_factory=lambda: Path("serve-data"))
    jobs: int = 1
    engine: str | None = None  # serial | pool | remote; None = infer
    workers: list[tuple[str, int]] | None = None  # remote fleet addresses
    cache_dir: Path | None = None  # default: <data_dir>/store
    prep_dir: Path | None = None
    max_pending_cells: int = 512
    max_active_sweeps: int = 64
    max_sweeps_per_client: int = 8
    batch_size: int | None = None
    retain: int = 64
    port_file: Path | None = None

    def resolved_cache_dir(self) -> Path:
        return Path(self.cache_dir) if self.cache_dir else Path(self.data_dir) / "store"


def _build_engine(settings: ServeSettings):
    """Engine selection, mirroring the batch CLI: an explicit ``engine``
    wins, otherwise ``workers`` implies remote and ``jobs > 1`` a pool."""
    name = settings.engine or (
        "remote" if settings.workers else "pool" if settings.jobs > 1 else "serial"
    )
    if name == "remote":
        if not settings.workers:
            raise ValueError("engine 'remote' requires worker addresses")
        from repro.dist import RemoteEngine

        return RemoteEngine(settings.workers)
    if name == "pool":
        return ProcessPoolEngine(settings.jobs)
    return SerialEngine()


def build_service(settings: ServeSettings) -> SweepService:
    """Assemble the engine/store/admission stack behind one service."""
    engine = _build_engine(settings)
    store = ResultStore(settings.resolved_cache_dir())
    if settings.prep_dir is not None:
        configure_prep(settings.prep_dir)
    admission = AdmissionController(
        max_pending_cells=settings.max_pending_cells,
        max_active_sweeps=settings.max_active_sweeps,
        max_sweeps_per_client=settings.max_sweeps_per_client,
        workers=max(getattr(engine, "jobs", 1), 1),
    )
    return SweepService(
        engine=engine,
        store=store,
        data_dir=settings.data_dir,
        admission=admission,
        batch_size=settings.batch_size,
        retain=settings.retain,
    )


async def serve_forever(
    settings: ServeSettings,
    *,
    ready: "threading.Event | None" = None,
    stop: asyncio.Event | None = None,
) -> None:
    """Run the service until a signal (or ``stop``) triggers the drain.

    ``ready`` (a *threading* event — it is set from inside the loop but
    awaited from another thread) fires once the socket is bound, the
    signal handlers are installed and the port file, if any, is written.
    ``stop`` lets tests drive shutdown without signals.
    """
    service = build_service(settings)
    service.start()
    server = await start_http_server(service, settings.host, settings.port)
    bound_port = server.sockets[0].getsockname()[1]
    settings.port = bound_port  # report back when port=0 picked a free one

    loop = asyncio.get_running_loop()
    stop = stop or asyncio.Event()
    got_signal: list[str] = []

    def _on_signal(name: str) -> None:
        if not got_signal:  # second signal: still drain, never abort
            got_signal.append(name)
            stop.set()

    installed: list[int] = []
    for name in _SIGNALS:
        signum = getattr(signal, name)
        try:
            loop.add_signal_handler(signum, _on_signal, name)
            installed.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread (start_in_thread): tests use `stop`
    try:
        print(f"serve: listening on http://{settings.host}:{bound_port}", flush=True)
        write_port_file(settings.port_file, bound_port)
        if ready is not None:
            ready.set()
        await stop.wait()
        signame = got_signal[0] if got_signal else "stop"
        print(f"serve: draining ({signame})", flush=True)
        server.close()
        await server.wait_closed()
        await service.drain(signame)
        METRICS.counter("serve.clean_exits").inc()
        print("serve: drained cleanly", flush=True)
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)


def run_server(settings: ServeSettings) -> int:
    """Blocking entry point for ``repro serve``; returns the exit code."""
    try:
        asyncio.run(serve_forever(settings))
    except KeyboardInterrupt:
        # SIGINT raced the handler installation; nothing was in flight.
        return 0
    return 0


class ServerHandle:
    """A service running on a daemon thread (tests and benchmarks)."""

    def __init__(self, settings: ServeSettings) -> None:
        self.settings = settings
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._main, name="repro-serve", daemon=True)

    @property
    def port(self) -> int:
        return self.settings.port

    @property
    def base_url(self) -> str:
        return f"http://{self.settings.host}:{self.settings.port}"

    def _main(self) -> None:
        async def _serve() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await serve_forever(self.settings, ready=self._ready, stop=self._stop)

        asyncio.run(_serve())

    def start(self, timeout: float = 30.0) -> "ServerHandle":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serve thread did not become ready")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Trigger the drain and join the thread (clean shutdown)."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("serve thread did not drain in time")

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(settings: ServeSettings) -> ServerHandle:
    """Start a service on a daemon thread; returns the started handle."""
    return ServerHandle(settings).start()
