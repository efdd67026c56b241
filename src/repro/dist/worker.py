"""The worker half of a distributed sweep: accept jobs, simulate, answer.

A :class:`WorkerServer` listens on one TCP port and serves coordinators
one connection at a time each (connections are independent threads, so a
``ping`` probe works while a batch runs).  Per connection:

1. handshake — refuse protocol/version mismatches
   (:func:`repro.dist.protocol.check_hello`) and install the
   coordinator's fault plan so both sides roll identical faults;
2. loop: one ``job`` frame → exactly one attempt → one ``outcome``
   frame.  The *coordinator* owns the retry loop and attempt numbering;
   the worker is stateless between frames, which is what makes worker
   loss survivable;
3. a job that misses the local prep store asks the coordinator for the
   bundle mid-job (``prep_fetch``/``prep_bundle``) — the socket is
   otherwise idle while the job runs, so the interleave is trivially
   ordered.

Fault injection: job-scoped faults fire here with ``announce=False``
(the coordinator announces them, same as the pool parent does for its
workers).  ``worker-vanish`` is the one network fault executed
worker-side: with ``exit_on_vanish`` (the real ``repro worker`` CLI) the
process dies with ``os._exit(3)``; in-process test workers emulate the
vanish by dropping their sockets instead — same wire-visible effect,
no test-process casualties.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path

from repro.dist import codec
from repro.dist.protocol import (
    ProtocolError,
    check_hello,
    recv_frame,
    send_frame,
)
from repro.exec.engine import execute_job
from repro.exec.faults import FaultPlan, fire_job_faults, get_fault_plan, set_fault_plan
from repro.obs.metrics import METRICS

__all__ = ["WorkerServer", "write_port_file"]


def write_port_file(path: str | Path | None, port: int) -> None:
    """Publish a bound port to ``path`` (no-op for None), the readiness
    signal of ``repro worker``.

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


class WorkerServer:
    """One sweep worker: a listener plus per-connection service threads.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks a free port (read it back from
        :attr:`address`).
    worker_id:
        Name reported in the handshake; defaults to ``host-pid``.
    job_runner:
        Callable ``spec -> RunResult`` (tests inject failing runners);
        defaults to the real simulation.
    exit_on_vanish:
        When True (the CLI worker process), an injected ``worker-vanish``
        kills the process with ``os._exit(3)``.  When False (in-process
        workers in tests), the server emulates the vanish by closing its
        sockets and listener.
    install_prep_fetcher:
        When True, a prep-store miss during a job is forwarded to the
        coordinator as a ``prep_fetch`` request.  Off by default:
        in-process test workers share the coordinator's prep store, and
        installing a fetcher would mutate that shared store.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        worker_id: str | None = None,
        job_runner=None,
        exit_on_vanish: bool = False,
        install_prep_fetcher: bool = False,
    ) -> None:
        self.job_runner = job_runner or execute_job
        self.exit_on_vanish = exit_on_vanish
        self.install_prep_fetcher = install_prep_fetcher
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()[:2]
        self.worker_id = worker_id or f"{self.address[0]}-{os.getpid()}"
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._accept_thread: threading.Thread | None = None
        self.jobs_run = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WorkerServer":
        """Serve in a background thread (the in-process test spelling)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name=f"worker-{self.address[1]}", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept coordinators until :meth:`stop` (or a vanish) closes the
        listener; each connection is serviced on its own thread."""
        while not self._stop.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by stop()/vanish
            with self._lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def stop(self) -> None:
        self._stop.set()
        # shutdown() before close(): a close() alone does not release a
        # socket another thread is blocked in accept()/recv() on (the
        # in-flight syscall pins the open file description, so the
        # kernel keeps accepting SYNs on a "closed" listener).  shutdown
        # deactivates the socket immediately — new connects are refused
        # and blocked peers see EOF — which is what makes an emulated
        # vanish wire-indistinguishable from a dead process.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns, self._conns = list(self._conns), set()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None and self._accept_thread is not threading.current_thread():
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection service --------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            self._connection_loop(conn)
        except (ProtocolError, OSError):
            pass  # a broken coordinator link is its problem, not ours
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _connection_loop(self, conn: socket.socket) -> None:
        hello = recv_frame(conn)
        if hello is None:
            return
        refusal = check_hello(hello)
        if refusal is not None:
            send_frame(conn, {"type": "error", "error": refusal})
            METRICS.counter("dist.worker.refused").inc()
            return
        plan_dict = hello.get("fault_plan")
        set_fault_plan(None if plan_dict is None else FaultPlan.from_dict(plan_dict))
        grid_digest = hello.get("grid_digest")
        send_frame(
            conn,
            {
                "type": "welcome",
                "protocol": hello["protocol"],
                "version": hello["version"],
                "worker_id": self.worker_id,
                "pid": os.getpid(),
                # Batched execution needs the real simulation; a worker
                # with an injected runner keeps the per-job contract.
                "caps": ["batch"] if self.job_runner is execute_job else [],
            },
        )
        while True:
            frame = recv_frame(conn)
            if frame is None or frame["type"] == "bye":
                return
            if frame["type"] == "ping":
                send_frame(conn, {"type": "pong"})
                continue
            if frame["type"] not in ("job", "batch"):
                send_frame(
                    conn,
                    {"type": "error", "error": f"unexpected frame {frame['type']!r}"},
                )
                return
            if frame.get("grid_digest") != grid_digest:
                send_frame(
                    conn,
                    {
                        "type": "error",
                        "error": (
                            f"grid digest mismatch: handshake pinned {grid_digest!r}, "
                            f"job carries {frame.get('grid_digest')!r}"
                        ),
                    },
                )
                return
            if frame["type"] == "batch":
                self._run_batch(conn, frame)
            else:
                self._run_job(conn, frame)

    def _vanish(self) -> None:
        """Execute an injected ``worker-vanish``.

        The real worker process dies outright.  An in-process worker
        cannot (it would take the test down with it), so it produces the
        same wire-visible failure instead: every socket and the listener
        close, and the coordinator finds a dead address.
        """
        METRICS.counter("faults.executed.worker-vanish").inc()
        if self.exit_on_vanish:
            os._exit(3)
        self.stop()

    def _run_job(self, conn: socket.socket, frame: dict) -> None:
        spec = codec.decode_spec(frame)
        attempt = int(frame.get("attempt", 1))
        plan = get_fault_plan()
        if plan is not None and plan.select("worker-vanish", spec.label, attempt):
            self._vanish()
            return
        fetcher_installed = self._install_fetcher(conn)
        start = time.perf_counter()
        try:
            try:
                if plan is not None:
                    # The coordinator announces; the worker only executes.
                    fire_job_faults(spec.label, attempt, announce=False)
                result = self.job_runner(spec)
            except Exception as exc:  # noqa: BLE001 — a job failure is data
                payload = {
                    "type": "outcome",
                    "digest": spec.digest,
                    "ok": False,
                    "result": None,
                    "error": f"{type(exc).__name__}: {exc}",
                    "duration_s": 0.0,
                }
            else:
                payload = {
                    "type": "outcome",
                    "digest": spec.digest,
                    "ok": True,
                    "result": result.to_dict(),
                    "error": None,
                    "duration_s": time.perf_counter() - start,
                }
        finally:
            if fetcher_installed:
                self._remove_fetcher()
        self.jobs_run += 1
        METRICS.counter("dist.worker.jobs").inc()
        send_frame(conn, payload)

    def _run_batch(self, conn: socket.socket, frame: dict) -> None:
        """One attempt at a whole batch unit: every lane in one pass.

        Answered by exactly one ``batch_outcome`` frame echoing the
        unit's digest; ``ok: false`` tells the coordinator to decompose
        the unit into per-job frames (fault plans never coexist with
        batching, so there are no faults to fire here).
        """
        from repro.exec.batch import execute_batch

        specs = [codec.decode_spec(payload) for payload in frame["jobs"]]
        fetcher_installed = self._install_fetcher(conn)
        start = time.perf_counter()
        try:
            try:
                results = execute_batch(specs)
            except Exception as exc:  # noqa: BLE001 — a batch failure is data
                payload = {
                    "type": "batch_outcome",
                    "digest": frame.get("digest"),
                    "ok": False,
                    "results": None,
                    "error": f"{type(exc).__name__}: {exc}",
                    "duration_s": 0.0,
                }
            else:
                payload = {
                    "type": "batch_outcome",
                    "digest": frame.get("digest"),
                    "ok": True,
                    "results": [result.to_dict() for result in results],
                    "error": None,
                    "duration_s": time.perf_counter() - start,
                }
        finally:
            if fetcher_installed:
                self._remove_fetcher()
        self.jobs_run += len(specs)
        METRICS.counter("dist.worker.jobs").inc(len(specs))
        send_frame(conn, payload)

    # -- prep fetch ----------------------------------------------------

    def _install_fetcher(self, conn: socket.socket) -> bool:
        if not self.install_prep_fetcher:
            return False
        from repro.prep import get_prep_store

        store = get_prep_store()
        if store is None or store.fetcher is not None:
            return False

        def fetch(key: dict):
            send_frame(conn, {"type": "prep_fetch", "key": key})
            reply = recv_frame(conn)
            if reply is None or reply.get("type") != "prep_bundle":
                raise ProtocolError("coordinator did not answer prep_fetch")
            if not reply.get("found"):
                return None
            return reply.get("bundle")

        store.fetcher = fetch
        return True

    def _remove_fetcher(self) -> None:
        from repro.prep import get_prep_store

        store = get_prep_store()
        if store is not None:
            store.fetcher = None
