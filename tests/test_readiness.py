"""Readiness files are written only once a process can drain cleanly.

``repro serve`` and ``repro worker`` announce their bound port through
``--port-file``, and a supervisor may send SIGTERM the moment that file
appears.  Each scenario runs one command in-process on the main thread,
with the port-file helper wrapped to record SIGTERM's disposition at the
instant the file lands and then stop the command.

- **WHEN** the port file appears
- **THEN** ``signal.getsignal(SIGTERM)`` is no longer ``SIG_DFL`` (the
  default action would kill the process with -15 instead of draining)
"""

from __future__ import annotations

import asyncio
import signal

import pytest

import repro.serve.runner as runner
from repro.__main__ import main
from repro.prep import get_prep_store, set_prep_store


class _DefaultSigterm(Exception):
    """The port file appeared while SIGTERM still had its default action."""


def _interrupt() -> None:
    raise KeyboardInterrupt  # what ^C raises: the commands' clean-stop path


@pytest.fixture
def at_port_file(monkeypatch):
    """``(seen, stop)``: ``seen`` collects SIGTERM's handler each time a
    port file is written; ``stop["now"]()`` then ends the command."""
    seen: list = []
    stop = {"now": _interrupt}
    real = runner.write_port_file
    handlers = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
    prep = get_prep_store()

    def observing(path, port):
        real(path, port)
        if path is not None:
            handler = signal.getsignal(signal.SIGTERM)
            seen.append(handler)
            if handler is signal.SIG_DFL:
                raise _DefaultSigterm(path)
            stop["now"]()

    monkeypatch.setattr(runner, "write_port_file", observing)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        yield seen, stop
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
        set_prep_store(prep)


def _assert_ready_after_handlers(seen, port_file):
    assert len(seen) == 1, "the port file was never written"
    assert seen[0] is not signal.SIG_DFL
    assert int(port_file.read_text()) > 0


def test_serve_installs_handlers_before_port_file(tmp_path, at_port_file):
    seen, stop = at_port_file
    settings = runner.ServeSettings(
        port=0, port_file=tmp_path / "serve.port", data_dir=tmp_path / "serve-data"
    )

    async def serve() -> None:
        done = asyncio.Event()
        stop["now"] = done.set
        await runner.serve_forever(settings, stop=done)

    asyncio.run(serve())
    _assert_ready_after_handlers(seen, settings.port_file)


def test_worker_installs_handlers_before_port_file(tmp_path, at_port_file):
    seen, _ = at_port_file
    port_file = tmp_path / "worker.port"
    assert main(["worker", "--port", "0", "--port-file", str(port_file)]) == 0
    _assert_ready_after_handlers(seen, port_file)


def test_port_file_is_replaced_atomically(tmp_path):
    port_file = tmp_path / "nested" / "svc.port"
    runner.write_port_file(port_file, 4242)
    runner.write_port_file(port_file, 4343)
    assert port_file.read_text() == "4343\n"
    assert [p.name for p in port_file.parent.iterdir()] == ["svc.port"]
