"""Readiness files are written only once a process can drain cleanly.

``repro worker`` announces its bound port through ``--port-file``, and a
supervisor may send SIGTERM the moment that file appears.  The scenario
runs the command in-process on the main thread, with the port-file
helper wrapped to record SIGTERM's disposition at the instant the file
lands and then stop the command.

- **WHEN** the port file appears
- **THEN** ``signal.getsignal(SIGTERM)`` is no longer ``SIG_DFL`` (the
  default action would kill the process with -15 instead of draining)
"""

from __future__ import annotations

import signal

import pytest

import repro.dist.worker as worker
from repro.__main__ import main
from repro.prep import get_prep_store, set_prep_store


class _DefaultSigterm(Exception):
    """The port file appeared while SIGTERM still had its default action."""


@pytest.fixture
def at_port_file(monkeypatch):
    """Collects SIGTERM's handler each time a port file is written, then
    ends the command the way ^C would (KeyboardInterrupt)."""
    seen: list = []
    real = worker.write_port_file
    handlers = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
    prep = get_prep_store()

    def observing(path, port):
        real(path, port)
        if path is not None:
            handler = signal.getsignal(signal.SIGTERM)
            seen.append(handler)
            if handler is signal.SIG_DFL:
                raise _DefaultSigterm(path)
            raise KeyboardInterrupt  # the command's clean-stop path

    monkeypatch.setattr(worker, "write_port_file", observing)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        yield seen
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
        set_prep_store(prep)


def _assert_ready_after_handlers(seen, port_file):
    assert len(seen) == 1, "the port file was never written"
    assert seen[0] is not signal.SIG_DFL
    assert int(port_file.read_text()) > 0


def test_worker_installs_handlers_before_port_file(tmp_path, at_port_file):
    seen = at_port_file
    port_file = tmp_path / "worker.port"
    assert main(["worker", "--port", "0", "--port-file", str(port_file)]) == 0
    _assert_ready_after_handlers(seen, port_file)


def test_port_file_is_replaced_atomically(tmp_path):
    port_file = tmp_path / "nested" / "svc.port"
    worker.write_port_file(port_file, 4242)
    worker.write_port_file(port_file, 4343)
    assert port_file.read_text() == "4343\n"
    assert [p.name for p in port_file.parent.iterdir()] == ["svc.port"]
