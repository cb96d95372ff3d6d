import os
import random
import socket
import struct
import threading
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import mark, raises

from pairid.algebra import PeerError, transparent_suite
from pairid.schemes import (
    SCHEMES,
    ProtocolViolation,
    ProverMachine,
    SchemeId,
    VerifierMachine,
    exchange,
    keygen,
    replay_decision,
    run_session,
    scl_keygen,
)
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
    TAG_COMMITMENT,
    TAG_DECISION,
    TAG_ERROR,
    TAG_HELLO,
    TAG_RESPONSE,
    encode_payload,
    frame_decode,
    frame_encode,
)
from pairid.wire import LengthMismatch
from pairid.tate import tate_suite

ALL_SCHEMES = list(SchemeId)


def transcripts_bytes(t, suite):
    ops = SCHEMES[SchemeId(t.scheme)]
    return (
        encode_payload(ops.commitment_fields, t.commitment, suite),
        encode_payload(ops.challenge_fields, t.challenge, suite),
        encode_payload(ops.response_fields, t.response, suite),
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

    def test_wire_reproduces_in_process_transcripts(self, t1009, c59, c523):
        for suite in (t1009, c59, c523):
            for scheme in ALL_SCHEMES:
                kp = keygen(scheme, suite, random.Random(21))
                local = run_session(scheme, kp, suite, seed="match")
                _, wire = loopback_session(scheme, kp, seed="match")
                assert transcripts_bytes(local, suite) == transcripts_bytes(
                    wire.transcript, suite
                ), (suite, scheme)
                assert local.decision == wire.decision

    def test_restart_over_wire_matches_in_process(self):
        suite = transparent_suite(5)
        kp = scl_keygen(suite, random.Random(1))
        seeds_with_restart = []
        for seed in range(40):
            local = run_session(SchemeId.SCL, kp, suite, seed=seed)
            prover, verifier = loopback_session(SchemeId.SCL, kp, seed=seed)
            assert verifier.decision and local.decision
            assert prover.restarts == verifier.restarts == local.restarts
            assert transcripts_bytes(local, suite) == transcripts_bytes(
                verifier.transcript, suite
            )
            if local.restarts:
                seeds_with_restart.append(seed)
        assert seeds_with_restart  # the restart path really ran


class Injected(Exception):
    """A failure planted in one end of a loopback session."""


def _error_within(fn, hang_message: str):
    """The exception fn() raised, or None.

    fn runs in a daemon thread with a bounded wait, so that a hang fails the
    test instead of the run.
    """
    outcome = {}

    def run():
        try:
            fn()
        except Exception as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), hang_message
    return outcome.get("error")


class TestLoopbackFailure:
    """An end that raises ends the whole loopback, with its own error."""

    def _bounded(self, monkeypatch, machine, method, t1009):
        def fail(self, *args):
            raise Injected(method)

        monkeypatch.setattr(machine, method, fail)
        kp = keygen(SchemeId.OWFID, t1009, random.Random(3))
        return _error_within(lambda: loopback_session(SchemeId.OWFID, kp, seed=1),
                             "loopback_session still running 10 s after one end raised")

    def test_verifier_raises(self, monkeypatch, t1009):
        error = self._bounded(monkeypatch, VerifierMachine, "on_response", t1009)
        assert isinstance(error, Injected)

    def test_prover_raises(self, monkeypatch, t1009):
        error = self._bounded(monkeypatch, ProverMachine, "on_challenge", t1009)
        assert isinstance(error, Injected)


class TestLoopbackDriver:
    """loopback_session steps both ends on the caller's thread."""

    def test_starts_no_thread(self, monkeypatch, t1009, c523):
        def refuse(thread):
            raise AssertionError("loopback_session started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for suite in (t1009, c523):
            for scheme in ALL_SCHEMES:
                prover, verifier = loopback_session(scheme, keygen(scheme, suite, random.Random(11)), seed=4)
                assert prover.decision and verifier.decision, (suite, scheme)
        suite = transparent_suite(5)
        kp = scl_keygen(suite, random.Random(1))
        seed = next(s for s in range(40) if run_session(SchemeId.SCL, kp, suite, seed=s).restarts)
        prover, verifier = loopback_session(SchemeId.SCL, kp, seed=seed)
        assert verifier.decision and prover.restarts == verifier.restarts > 0

    def test_both_ends_waiting_ends_the_loopback(self, monkeypatch, t1009):
        # An owfid prover that opens with no commitment leaves the verifier,
        # which waits for one, and itself, waiting for a challenge.
        monkeypatch.setattr(ProverMachine, "start", lambda machine: None)
        kp = keygen(SchemeId.OWFID, t1009, random.Random(3))
        error = _error_within(lambda: loopback_session(SchemeId.OWFID, kp, seed=1),
                              "loopback_session still running 10 s after both ends began to wait")
        assert isinstance(error, ProtocolViolation) and "both ends wait" in str(error)


class TestExchangeStall:
    """A restart carried in place of a prover message leaves both engines waiting."""

    @mark.parametrize("wire", [False, True], ids=["memory", "wire"])
    @mark.parametrize("swapped", [TAG_COMMITMENT, TAG_RESPONSE], ids=["commitment", "response"])
    def test_restart_in_transit_ends_the_exchange(self, t1009, swapped, wire):
        kp = keygen(SchemeId.OWFID, t1009, random.Random(3))
        prover = ProverMachine(SchemeId.OWFID, kp, seed=1, wire=wire)
        verifier = VerifierMachine(SchemeId.OWFID, kp.public(), seed=1, wire=wire)

        def carry(tag, payload):
            return (TAG_ERROR, RESTART) if tag == swapped else (tag, payload)

        error = _error_within(lambda: exchange(prover, verifier, carry),
                              "exchange still running 10 s after both ends began to wait")
        assert isinstance(error, ProtocolViolation)


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
            encode_payload(ops.challenge_fields, (suite.g1_from_int(3),), suite),
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
            outcome["prover"] = serve_prover(SchemeId.SDHID, kp, prover_t)

        worker = threading.Thread(target=prover_side)
        worker.start()
        result = run_verifier(SchemeId.SDHID, kp.public(), verifier_t)
        worker.join()
        for t in (prover_t, verifier_t):
            t.infile.close()
            t.outfile.close()
        assert result.decision
        assert outcome["prover"].decision


def tcp_pair() -> tuple[socket.socket, socket.socket]:
    """Both ends of one TCP loopback connection."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        client = socket.create_connection(server.getsockname())
        conn, _ = server.accept()
    return client, conn


def reset(sock: socket.socket):
    """Close sock with SO_LINGER 0, so that its peer gets a reset, not EOF."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


class TestPeerReset:
    """A peer that resets the stream ends the session as one that closed it."""

    def test_socket_read_then_write(self):
        client, conn = tcp_pair()
        reset(conn)
        transport = SocketTransport(client)
        try:
            with raises(TransportClosed, match="reset"):  # ConnectionResetError
                transport.read_exact(4)
            with raises(TransportClosed, match="reset"):  # BrokenPipeError
                transport.write(b"\x00\x00\x00\x01")
        finally:
            client.close()

    def test_socket_write_first(self):
        client, conn = tcp_pair()
        reset(conn)
        try:
            with raises(TransportClosed, match="reset"):
                SocketTransport(client).write(b"\x00\x00\x00\x01")
        finally:
            client.close()

    def test_stdio_read_reset(self):
        client, conn = tcp_pair()
        reset(conn)
        with os.fdopen(client.detach(), "rb") as infile:
            with raises(TransportClosed, match="reset"):  # ConnectionResetError
                StdioTransport(infile, None).read_exact(4)

    def test_stdio_reader_gone(self):
        r, w = os.pipe()
        os.close(r)
        with os.fdopen(w, "wb", buffering=0) as out:
            with raises(TransportClosed):  # BrokenPipeError
                StdioTransport(None, out).write(b"\x00\x00\x00\x01")


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


def _changed_in_transit(raw: bytes, data) -> bytes:
    """One frame changed in transit.

    A bit is flipped, the payload cut short, the tag rewritten, a byte
    appended, or the whole frame swapped for a restart.  A cut or an appended
    byte comes with a length field that matches, so the frame decodes and the
    change reaches the engine.
    """
    tag, payload = raw[4], raw[5:]
    change = data.draw(st.sampled_from(["flip", "truncate", "tag", "append", "restart"]))
    if change == "restart":
        return frame_encode(TAG_ERROR, RESTART)
    if change == "flip":
        out = bytearray(raw)
        out[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        return bytes(out)
    if change == "tag":
        # Tags 1-6 are assigned, 0 and 7 are not.
        return raw[:4] + bytes([data.draw(st.integers(0, 7))]) + payload
    if change == "truncate":
        payload = payload[: data.draw(st.integers(0, max(len(payload) - 1, 0)))]
    else:
        payload += bytes([data.draw(st.integers(0, 255))])
    return (len(payload) + 1).to_bytes(4, "big") + bytes([tag]) + payload


class TestFrameFuzz:
    """A wire session relayed in memory with one frame changed on the way."""

    @given(data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_changed_frame_decides_or_raises_a_peer_error(self, data):
        suite = data.draw(st.sampled_from([transparent_suite(1009), tate_suite(59)]))
        scheme = data.draw(st.sampled_from(ALL_SCHEMES))
        seed = data.draw(st.integers(0, 2**16))
        target = data.draw(st.integers(0, 2 if SCHEMES[scheme].three_message else 1))
        kp = keygen(scheme, suite, random.Random(seed))
        carried = []

        def carry(tag: int, payload: bytes) -> tuple[int, bytes]:
            raw = frame_encode(tag, payload)
            if len(carried) == target:
                raw = _changed_in_transit(raw, data)
            carried.append(raw)
            return frame_decode(raw)

        prover = ProverMachine(scheme, kp, seed=seed, wire=True)
        verifier = VerifierMachine(scheme, kp.public(), seed=seed, wire=True)
        try:
            transcript = exchange(prover, verifier, carry)
        except PeerError:
            return
        assert transcript.decision in (True, False)


def _any_value(suites: list):
    """An int, a str, None, bytes, or an element or scalar of one of suites."""
    made = st.tuples(st.sampled_from(suites), st.sampled_from(["g1_from_int", "g2_from_int", "scalar"]),
                     st.integers(0, 2**16))
    return st.one_of(st.integers(-1, 2**16), st.text(max_size=2), st.none(), st.binary(max_size=4),
                     made.map(lambda m: getattr(m[0], m[1])(m[2])))


def _outcome(call):
    try:
        return call()
    except PeerError:
        return "peer error"


class TestMessageFuzz:
    """An in-memory message of any length holding any values, handed to an
    engine or replayed: each call ends in a message, a decision or a PeerError."""

    @given(data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_any_values_end_in_a_message_a_decision_or_a_peer_error(self, data):
        suite, other = data.draw(st.sampled_from([(transparent_suite(1009), tate_suite(59)),
                                                  (tate_suite(59), transparent_suite(1013))]))
        scheme = data.draw(st.sampled_from(ALL_SCHEMES))
        values = tuple(data.draw(st.lists(_any_value([suite, other]), max_size=3)))
        kp = keygen(scheme, suite, random.Random(0))
        honest = run_session(scheme, kp, suite, seed=0)
        prover = ProverMachine(scheme, kp, seed=0)
        prover.open()
        messages = _outcome(lambda: prover.receive(TAG_CHALLENGE, values))
        assert messages == "peer error" or messages[0][0] in (TAG_RESPONSE, TAG_ERROR)
        verifier = VerifierMachine(scheme, kp.public(), seed=0)
        messages = _outcome(lambda: verifier.receive(TAG_COMMITMENT, values))
        assert messages == "peer error" or [tag for tag, _ in messages] == [TAG_CHALLENGE]
        verifier = VerifierMachine(scheme, kp.public(), seed=0)
        verifier.open() or verifier.receive(TAG_COMMITMENT, honest.commitment)
        messages = _outcome(lambda: verifier.receive(TAG_RESPONSE, values))
        assert messages == "peer error" or messages in ([(TAG_DECISION, b"\x00")], [(TAG_DECISION, b"\x01")])
        for field in ("commitment", "challenge", "response"):
            decision = _outcome(lambda: replay_decision(replace(honest, **{field: values}), kp.public()))
            assert decision in ("peer error", True, False)


class TestBitFlipRelay:
    """Every single-bit flip of every frame of an in-memory curve exchange,
    for every scheme: each run ends in a decision or a PeerError.  Any other
    exception, NotOnCurve included, fails the test, so no hostile byte
    stream reaches the curve backend's errors."""

    def test_every_bit_of_every_frame(self):
        suite = tate_suite(59)
        outcomes = {"decision": 0, "peer error": 0}
        for scheme in ALL_SCHEMES:
            for seed in range(3):
                kp = keygen(scheme, suite, random.Random(seed))

                def run(carry):
                    prover = ProverMachine(scheme, kp, seed=seed, wire=True)
                    verifier = VerifierMachine(scheme, kp.public(), seed=seed, wire=True)
                    try:
                        transcript = exchange(prover, verifier, carry)
                    except PeerError:
                        return "peer error"
                    assert transcript.decision in (True, False)
                    return "decision"

                honest = []
                assert run(lambda tag, payload: honest.append(frame_encode(tag, payload)) or (tag, payload)) == "decision"
                for index, raw in enumerate(honest):
                    for bit in range(8 * len(raw)):
                        carried = []

                        def carry(tag, payload):
                            out = bytearray(frame_encode(tag, payload))
                            if len(carried) == index:
                                out[bit // 8] ^= 1 << bit % 8
                            carried.append(out)
                            return frame_decode(bytes(out))

                        outcomes[run(carry)] += 1
        assert outcomes["decision"] and outcomes["peer error"], outcomes
