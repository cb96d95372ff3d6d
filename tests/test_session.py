import os
import random
import socket
import threading

from pytest import raises

from pairid.algebra import transparent_suite
from pairid.schemes import SCHEMES, ProtocolViolation, SchemeId, keygen, run_session, scl_keygen
from pairid.session import (
    RESTART,
    SocketTransport,
    StdioTransport,
    TransportClosed,
    hello_payload,
    loopback_session,
    run_verifier,
    serve_prover,
)
from pairid.schemes import default_scheme_params
from pairid.wire import (
    TAG_CHALLENGE,
    TAG_DECISION,
    TAG_ERROR,
    TAG_HELLO,
    encode_payload,
    frame_encode,
)
from pairid.wire import LengthMismatch

ALL_SCHEMES = list(SchemeId)


def transcripts_bytes(t, suite, params):
    ops = SCHEMES[SchemeId(t.scheme)]
    return (
        encode_payload(ops.commitment_fields, t.commitment, suite, params.n),
        encode_payload(ops.challenge_fields, t.challenge, suite, params.n),
        encode_payload(ops.response_fields, t.response, suite, params.n),
    )


class ScriptedTransport:
    """Feeds canned inbound bytes and records every outbound frame."""

    def __init__(self, inbound: bytes):
        self.inbound = inbound
        self.sent = b""

    def write(self, data: bytes):
        self.sent += data

    def read_exact(self, nbytes: int) -> bytes:
        if len(self.inbound) < nbytes:
            raise TransportClosed("scripted input exhausted")
        chunk, self.inbound = self.inbound[:nbytes], self.inbound[nbytes:]
        return chunk


class TestLoopback:
    def test_all_schemes_accept(self, t1009):
        for scheme in ALL_SCHEMES:
            kp = keygen(scheme, t1009, random.Random(11))
            prover, verifier = loopback_session(scheme, kp, seed=4)
            assert prover.decision and verifier.decision
            assert prover.restarts == verifier.restarts
            pt, vt = prover.transcript, verifier.transcript
            assert (pt.commitment, pt.challenge, pt.response) == (vt.commitment, vt.challenge, vt.response)

    def test_curve_loopback(self, c59):
        for scheme in (SchemeId.CDHID, SchemeId.OWFID, SchemeId.HLS):
            kp = keygen(scheme, c59, random.Random(11))
            prover, verifier = loopback_session(scheme, kp, seed=4)
            assert prover.decision and verifier.decision

    def test_wire_reproduces_in_process_transcripts(self, t1009):
        params = default_scheme_params(t1009)
        for scheme in ALL_SCHEMES:
            kp = keygen(scheme, t1009, random.Random(21))
            local = run_session(scheme, kp, t1009, seed="match")
            _, wire = loopback_session(scheme, kp, seed="match")
            assert transcripts_bytes(local, t1009, params) == transcripts_bytes(
                wire.transcript, t1009, params
            )
            assert local.decision == wire.decision

    def test_restart_over_wire_matches_in_process(self):
        suite = transparent_suite(5)
        kp = scl_keygen(suite, random.Random(1))
        params = default_scheme_params(suite)
        seeds_with_restart = []
        for seed in range(40):
            local = run_session(SchemeId.SCL, kp, suite, seed=seed)
            prover, verifier = loopback_session(SchemeId.SCL, kp, seed=seed)
            assert verifier.decision and local.decision
            assert prover.restarts == verifier.restarts == local.restarts
            assert transcripts_bytes(local, suite, params) == transcripts_bytes(
                verifier.transcript, suite, params
            )
            if local.restarts:
                seeds_with_restart.append(seed)
        assert seeds_with_restart  # the restart path really ran


class TestHello:
    def test_parameter_mismatch_aborts_both_ends(self, t11, t1009):
        kp = keygen(SchemeId.CDHID, t11, random.Random(1))
        pk_other = keygen(SchemeId.CDHID, t1009, random.Random(1)).public()
        left, right = socket.socketpair()
        errors = {}

        def prover_side():
            try:
                serve_prover(SchemeId.CDHID, kp, SocketTransport(left))
            except Exception as exc:
                errors["prover"] = exc

        worker = threading.Thread(target=prover_side)
        worker.start()
        try:
            with raises(ProtocolViolation, match="hello mismatch"):
                run_verifier(SchemeId.CDHID, pk_other, SocketTransport(right))
        finally:
            worker.join()
            left.close()
            right.close()
        assert isinstance(errors["prover"], ProtocolViolation)

    def test_scheme_mismatch(self, t1009):
        kp = keygen(SchemeId.CDHID, t1009, random.Random(1))
        params = default_scheme_params(t1009)
        wrong = hello_payload(SchemeId.BLSID, t1009, params)
        transport = ScriptedTransport(frame_encode(TAG_HELLO, wrong))
        with raises(ProtocolViolation):
            serve_prover(SchemeId.CDHID, kp, transport)
        assert frame_encode(TAG_ERROR, b"hello mismatch") in transport.sent

    def test_hello_payload_shape(self, t1009, c59):
        params = default_scheme_params(t1009)
        data = hello_payload(SchemeId.SCL, t1009, params)
        assert len(data) == 20
        assert data[0] == 5  # fifth scheme in declaration order
        assert data[1] == 0  # transparent backend
        curve = hello_payload(SchemeId.SCL, c59, default_scheme_params(c59))
        assert curve[1] == 1
        assert curve != data


class TestFrameValidation:
    def _hello_and_challenge(self, suite, kp, params):
        hello = frame_encode(TAG_HELLO, hello_payload(SchemeId.CDHID, suite, params))
        ops = SCHEMES[SchemeId.CDHID]
        challenge = frame_encode(
            TAG_CHALLENGE,
            encode_payload(ops.challenge_fields, (suite.g1_from_int(3),), suite, params.n),
        )
        return hello, challenge

    def test_bad_decision_byte_rejected(self, t1009):
        kp = keygen(SchemeId.CDHID, t1009, random.Random(2))
        params = default_scheme_params(t1009)
        hello, challenge = self._hello_and_challenge(t1009, kp, params)
        bad_decision = frame_encode(TAG_DECISION, b"\x02")
        with raises(ProtocolViolation, match="decision"):
            serve_prover(SchemeId.CDHID, kp, ScriptedTransport(hello + challenge + bad_decision))

    def test_peer_error_frame_surfaces(self, t1009):
        kp = keygen(SchemeId.CDHID, t1009, random.Random(2))
        params = default_scheme_params(t1009)
        hello, _ = self._hello_and_challenge(t1009, kp, params)
        error = frame_encode(TAG_ERROR, b"going away")
        with raises(ProtocolViolation, match="going away"):
            serve_prover(SchemeId.CDHID, kp, ScriptedTransport(hello + error))

    def test_truncated_stream(self, t1009):
        kp = keygen(SchemeId.CDHID, t1009, random.Random(2))
        params = default_scheme_params(t1009)
        hello, _ = self._hello_and_challenge(t1009, kp, params)
        with raises(TransportClosed):
            serve_prover(SchemeId.CDHID, kp, ScriptedTransport(hello))

    def test_restart_payload_constant(self):
        # the verifier matches this byte string exactly
        assert RESTART == b"restart"


class TestStdioTransport:
    def test_session_over_pipes(self, t1009):
        kp = keygen(SchemeId.SDHID, t1009, random.Random(9))
        p2v_r, p2v_w = os.pipe()
        v2p_r, v2p_w = os.pipe()
        prover_t = StdioTransport(os.fdopen(v2p_r, "rb"), os.fdopen(p2v_w, "wb"))
        verifier_t = StdioTransport(os.fdopen(p2v_r, "rb"), os.fdopen(v2p_w, "wb"))
        outcome = {}

        def prover_side():
            outcome["prover"] = serve_prover(SchemeId.SDHID, kp, prover_t, seed=3)

        worker = threading.Thread(target=prover_side)
        worker.start()
        result = run_verifier(SchemeId.SDHID, kp.public(), verifier_t, seed=3)
        worker.join()
        for t in (prover_t, verifier_t):
            t.infile.close()
            t.outfile.close()
        assert result.decision
        assert outcome["prover"].decision


def _doubled(snapshot: dict) -> dict:
    out = dict(snapshot)
    for key in ("sent_elems", "sent_bytes"):
        out[key] = {kind: 2 * n for kind, n in snapshot[key].items()}
    return out


class TestLoopbackCounting:
    """In-process sessions count each message once; a loopback counts it on
    both ends, with every count of a restarted round landing before the
    prover's reset."""

    def _check(self, scheme, kp, suite, seed):
        suite.counter.reset()
        run_session(scheme, kp, suite, seed=seed)
        local = suite.counter.snapshot()
        suite.counter.reset()
        loopback_session(scheme, kp, seed=seed)
        assert suite.counter.snapshot() == _doubled(local), (scheme, seed)

    def test_every_scheme_counts_twice(self):
        suite = transparent_suite(1009, counted=True)
        for scheme in ALL_SCHEMES:
            self._check(scheme, keygen(scheme, suite, random.Random(11)), suite, seed=4)

    def test_restarted_rounds_count_twice(self):
        suite = transparent_suite(5, counted=True)
        kp = scl_keygen(suite, random.Random(1))
        restart_seeds = [s for s in range(40) if run_session(SchemeId.SCL, kp, suite, seed=s).restarts]
        assert restart_seeds
        for _ in range(10):
            for seed in restart_seeds:
                self._check(SchemeId.SCL, kp, suite, seed)


class TestFrameBounds:
    def test_oversized_length_field_rejected_before_the_body(self, t1009):
        kp = keygen(SchemeId.CDHID, t1009, random.Random(2))
        params = default_scheme_params(t1009)
        hello = frame_encode(TAG_HELLO, hello_payload(SchemeId.CDHID, t1009, params))
        oversized = (2**26).to_bytes(4, "big") + bytes([TAG_CHALLENGE])
        with raises(LengthMismatch):
            serve_prover(SchemeId.CDHID, kp, ScriptedTransport(hello + oversized))

    def test_short_reads_fill_the_frame(self):
        class Trickle:
            """A reader that hands out at most two bytes per call."""

            def __init__(self, data: bytes):
                self.data = data

            def read(self, nbytes: int) -> bytes:
                n = min(2, nbytes)
                chunk, self.data = self.data[:n], self.data[n:]
                return chunk

        frame = frame_encode(TAG_CHALLENGE, bytes(range(9)))
        transport = StdioTransport(Trickle(frame + frame[:3]), None)
        assert transport.read_exact(len(frame)) == frame
        with raises(TransportClosed):
            transport.read_exact(4)
