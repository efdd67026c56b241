"""Tests for the dist wire layer: framing, handshake refusals, codecs,
address parsing, and the worker handshake behaviour over real sockets."""

from __future__ import annotations

import socket
import struct

import numpy as np
import pytest

import repro
from repro.dist import codec
from repro.dist.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    check_hello,
    hello_frame,
    recv_frame,
    send_frame,
)
from repro.dist.registry import format_address, parse_worker_address
from repro.exec.jobs import JobOutcome, JobSpec
from repro.sim.config import SystemConfig


def _spec(app: str = "swim", policy: str = "shared") -> JobSpec:
    return JobSpec(app=app, policy=policy, config=SystemConfig.default())


class TestFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, {"type": "ping", "n": 1})
            assert recv_frame(b) == {"type": "ping", "n": 1}

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert recv_frame(b) is None

    def test_close_mid_frame_raises(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(struct.pack(">I", 100) + b"partial")
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)

    def test_oversized_length_prefix_raises(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                recv_frame(b)

    def test_non_object_frame_raises(self):
        a, b = socket.socketpair()
        with a, b:
            body = b"[1,2,3]"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="not an object"):
                recv_frame(b)

    def test_undecodable_frame_raises(self):
        a, b = socket.socketpair()
        with a, b:
            body = b"{not json"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_frame(b)


class TestHandshake:
    def test_valid_hello_passes(self):
        assert check_hello(hello_frame("digest", None)) is None

    def test_refuses_non_hello(self):
        assert "expected hello" in check_hello({"type": "job"})

    def test_refuses_protocol_mismatch(self):
        hello = hello_frame(None, None)
        hello["protocol"] = PROTOCOL_VERSION + 1
        refusal = check_hello(hello)
        assert "protocol mismatch" in refusal
        assert str(PROTOCOL_VERSION + 1) in refusal

    def test_refuses_version_mismatch_with_both_versions(self):
        hello = hello_frame(None, None)
        hello["version"] = "0.0.0"
        refusal = check_hello(hello)
        assert "version mismatch" in refusal
        assert "0.0.0" in refusal and repro.__version__ in refusal

    def test_worker_refuses_stale_version_on_the_wire(self):
        """A coordinator from another deploy gets a specific error frame
        and a closed connection, not a welcome."""
        from repro.dist import WorkerServer

        with WorkerServer() as server:
            server.start()
            with socket.create_connection(server.address, timeout=5.0) as sock:
                hello = hello_frame(None, None)
                hello["version"] = "0.0.0"
                send_frame(sock, hello)
                reply = recv_frame(sock)
                assert reply["type"] == "error"
                assert "version mismatch" in reply["error"]
                assert recv_frame(sock) is None  # server closed

    def test_worker_refuses_job_for_another_grid(self):
        """Job frames are pinned to the handshake's grid digest: a stale
        coordinator's frame is refused, never silently executed."""
        from repro.dist import WorkerServer

        spec = _spec()
        with WorkerServer() as server:
            server.start()
            with socket.create_connection(server.address, timeout=5.0) as sock:
                send_frame(sock, hello_frame("grid-a", None))
                assert recv_frame(sock)["type"] == "welcome"
                send_frame(
                    sock,
                    {
                        "type": "job",
                        "grid_digest": "grid-b",
                        "attempt": 1,
                        **codec.encode_spec(spec),
                    },
                )
                reply = recv_frame(sock)
                assert reply["type"] == "error"
                assert "grid digest mismatch" in reply["error"]


class TestAddressParsing:
    def test_host_port_string(self):
        assert parse_worker_address("localhost:9000") == ("localhost", 9000)

    def test_tuple_passthrough(self):
        assert parse_worker_address(("10.0.0.1", "8000")) == ("10.0.0.1", 8000)

    @pytest.mark.parametrize("bad", ["localhost", ":9000", "host:", "host:abc"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="not host:port"):
            parse_worker_address(bad)

    def test_bracketed_ipv6_parses(self):
        assert parse_worker_address("[::1]:8000") == ("::1", 8000)
        assert parse_worker_address("[2001:db8::2]:9") == ("2001:db8::2", 9)

    def test_ipv6_round_trips_through_format(self):
        address = ("::1", 8000)
        assert format_address(address) == "[::1]:8000"
        assert parse_worker_address(format_address(address)) == address

    def test_ipv4_round_trips_unbracketed(self):
        assert format_address(("127.0.0.1", 80)) == "127.0.0.1:80"
        assert parse_worker_address("127.0.0.1:80") == ("127.0.0.1", 80)

    def test_bare_ipv6_is_rejected_as_ambiguous(self):
        with pytest.raises(ValueError, match="ambiguous"):
            parse_worker_address("::1:8000")

    def test_empty_bracketed_host_rejected(self):
        with pytest.raises(ValueError):
            parse_worker_address("[]:8000")


class TestSpecCodec:
    def test_roundtrip(self):
        spec = _spec()
        decoded = codec.decode_spec(codec.encode_spec(spec))
        assert decoded == spec
        assert decoded.digest == spec.digest

    def test_tampered_payload_fails_digest_check(self):
        payload = codec.encode_spec(_spec())
        payload["spec"]["app"] = "cg"  # corrupt in flight
        with pytest.raises(ValueError, match="spec digest mismatch"):
            codec.decode_spec(payload)

    def test_batch_digest_is_order_invariant(self):
        specs = [_spec("swim"), _spec("cg"), _spec("ft")]
        assert codec.batch_digest(specs) == codec.batch_digest(list(reversed(specs)))
        assert codec.batch_digest(specs) != codec.batch_digest(specs[:2])


class TestOutcomeCodec:
    def test_error_outcome_roundtrip(self):
        spec = _spec()
        outcome = JobOutcome(spec=spec, error="ValueError: boom", attempts=2, engine="remote")
        decoded = codec.decode_outcome(codec.encode_outcome(outcome), spec)
        assert decoded.error == "ValueError: boom"
        assert decoded.attempts == 2
        assert decoded.result is None

    def test_misrouted_outcome_is_refused(self):
        payload = codec.encode_outcome(JobOutcome(spec=_spec("swim"), error="x"))
        with pytest.raises(ValueError, match="does not answer"):
            codec.decode_outcome(payload, _spec("cg"))


class TestPrepBundleCodec:
    def test_roundtrip_verifies_hashes(self):
        arrays = {
            "a": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b": np.array([1, 2, 3], dtype=np.int32),
        }
        meta = {"version": "x", "key": {"k": 1}, "digest": "d", "arrays": ["a", "b"],
                "note": "kept"}
        payload = codec.encode_prep_bundle(meta, arrays)
        decoded, extra = codec.decode_prep_bundle(payload)
        assert extra == {"note": "kept"}  # store bookkeeping stripped
        np.testing.assert_array_equal(decoded["a"], arrays["a"])
        assert decoded["b"].dtype == np.int32

    def test_tampered_array_is_rejected(self):
        payload = codec.encode_prep_bundle({}, {"x": np.ones(4)})
        entry = payload["arrays"]["x"]
        entry["data"] = entry["data"][:-8] + "AAAAAAA="
        with pytest.raises(ValueError, match="failed its content hash"):
            codec.decode_prep_bundle(payload)

    def test_malformed_payload_is_one_error_type(self):
        with pytest.raises(ValueError, match="malformed prep bundle"):
            codec.decode_prep_bundle({"arrays": {"x": {"data": 42}}})
