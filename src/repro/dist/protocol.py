"""Wire protocol for distributed sweeps: framing, handshake, frame types.

Everything on a dist socket — coordinator↔worker job traffic and
liveness probes — speaks the same trivially debuggable format: a 4-byte
big-endian length prefix followed by one canonical-JSON object (sorted
keys, no whitespace).  Canonical encoding matters beyond aesthetics: the
content-addressed stores hash their payloads, so the bytes that cross
the wire must be the bytes a local run would have produced.

Every conversation opens with a handshake::

    client → {"type": "hello", "protocol": 1, "version": "<repro>",
              "grid_digest": "<sha256 | null>", "fault_plan": {...}|null}
    server → {"type": "welcome", "protocol": 1, "version": "<repro>",
              "worker_id": "...", "pid": ..., "caps": [...]}
           | {"type": "error", "error": "..."}   (and the server closes)

The server refuses mismatched ``protocol`` (incompatible framing/schema)
and mismatched ``version`` (simulator results are invalidated by
``repro.__version__``, so mixing versions in one sweep would poison the
byte-identity contract).  ``grid_digest`` names the batch being executed
— the digest of the sorted spec digests — and every subsequent ``job``
frame must carry the same digest, so a frame from a stale coordinator
(or a coordinator resumed onto a different grid) is refused rather than
silently executed.

Frame types after the handshake:

* ``job`` — one attempt of one spec; the worker answers with exactly one
  ``outcome`` frame, possibly preceded by ``prep_fetch`` requests that
  the coordinator answers inline with ``prep_bundle`` frames.  The
  outcome carries the full result; the coordinator files it in its own
  result store.
* ``batch`` — one attempt of a multi-lane unit, answered by one
  ``batch_outcome`` frame (workers advertise the ``batch`` cap).
* ``ping``/``pong`` — liveness probe (``repro worker --ping``).
* ``bye`` — orderly end of the batch; the worker drops the connection
  and waits for the next coordinator.
"""

from __future__ import annotations

import json
import socket
import struct

import repro

__all__ = [
    "HandshakeError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "check_hello",
    "hello_frame",
    "recv_frame",
    "send_frame",
]

PROTOCOL_VERSION = 1

_LEN = struct.Struct(">I")

MAX_FRAME_BYTES = 256 * 1024 * 1024
"""Upper bound on one frame; a length prefix beyond this is garbage (a
stray client speaking another protocol), not a real payload."""


class ProtocolError(RuntimeError):
    """The peer violated framing or sent an unexpected frame."""


class HandshakeError(ProtocolError):
    """The peer is incompatible: wrong protocol, version, or grid."""


def send_frame(sock: socket.socket, payload: dict) -> None:
    """Serialize ``payload`` canonically and send it length-prefixed."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    sock.sendall(_LEN.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """``n`` bytes, or None on clean EOF at a frame boundary."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """One frame, or None when the peer closed at a frame boundary."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolError("frame is not an object with a 'type'")
    return payload


def hello_frame(grid_digest: str | None, fault_plan: dict | None) -> dict:
    return {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "version": repro.__version__,
        "grid_digest": grid_digest,
        "fault_plan": fault_plan,
    }


def check_hello(hello: dict) -> str | None:
    """Server-side handshake validation; the refusal string, or None.

    Refusals are *specific* — a fleet mixing deploys fails with the two
    versions in the message, not a generic handshake error.
    """
    if hello.get("type") != "hello":
        return f"expected hello, got {hello.get('type')!r}"
    if hello.get("protocol") != PROTOCOL_VERSION:
        return (
            f"protocol mismatch: peer speaks {hello.get('protocol')!r}, "
            f"this worker speaks {PROTOCOL_VERSION}"
        )
    if hello.get("version") != repro.__version__:
        return (
            f"version mismatch: coordinator runs {hello.get('version')!r}, "
            f"this worker runs {repro.__version__!r} — results would not mix"
        )
    return None
