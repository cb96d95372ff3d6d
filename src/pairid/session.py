"""Identification sessions over a byte transport.

One sans-I/O engine (schemes.SessionEngine) restarts, counts and records
every session; three drivers carry its messages.  schemes.run_session joins
both roles in memory with value tuples and counts each message once.
serve_prover and run_verifier run one role over a transport as frames and
count each message on both ends.  Both run one driver, _steps, that pauses
before each frame it reads; loopback_session steps its two ends by it on
one thread, over a socketpair, so a loopback counts each message twice.
lab.mitm_relay_demo joins both roles in memory through a frame-level relay.

Over a transport both peers start with a hello exchange pinning (scheme,
backend, p, n, q), with n = bits(p - 1) the suite's challenge length; any
disagreement aborts before group elements flow.  The verifier is the
client: it sends hello, the prover echoes it, then the protocol messages
run inside commitment/challenge/response frames and the verifier closes
with a one-byte decision frame.  A prover that cannot answer the challenge
it was dealt (the inversion-based three-message scheme has one unanswerable
challenge per commitment) sends an error frame with payload b"restart" and
both sides rerun the whole exchange with fresh randomness.  A frame whose
length field exceeds the widest frame the session can carry is rejected
before its body is read.  Whatever a peer, or the wire between the peers,
ends a session with is an algebra.PeerError, TransportClosed included.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

from .algebra import GroupSuite, PeerError
from .schemes import (  # RESTART is re-exported as part of the wire protocol
    RESTART,
    ProtocolViolation,
    ProverMachine,
    SchemeId,
    SchemeParams,
    SessionEngine,
    Transcript,
    VerifierMachine,
    raise_peer_error,
)
from .wire import (
    TAG_ERROR,
    TAG_HELLO,
    LengthMismatch,
    frame_decode,
    frame_encode,
    frame_length,
    payload_width,
)

# Error frames carry short ASCII reasons such as b"hello mismatch".
MAX_ERROR_BYTES = 64


class TransportClosed(PeerError):
    """Peer went away mid-frame, or reset the stream."""


class _StreamTransport:
    """read_exact and write over a transport's raw _read(n), which returns at
    most n bytes, and _write(data).  A reset stream raises TransportClosed."""

    @staticmethod
    def _io(step, arg):
        try:
            return step(arg)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise TransportClosed(f"peer reset the connection: {exc.strerror}") from exc

    def write(self, data: bytes):
        self._io(self._write, data)

    def read_exact(self, nbytes: int) -> bytes:
        # A bytearray grows in amortized constant time per byte; bytes += is
        # quadratic in the number of short reads.  A read that returns the
        # whole frame part at once, the common case, is passed on uncopied.
        buf = bytearray()
        while len(buf) < nbytes:
            chunk = self._io(self._read, nbytes - len(buf))
            if not chunk:
                raise TransportClosed("peer closed the stream mid-frame")
            if not buf and len(chunk) == nbytes:
                return chunk
            buf += chunk
        return bytes(buf)


class SocketTransport(_StreamTransport):
    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._read, self._write = sock.recv, sock.sendall


class StdioTransport(_StreamTransport):
    """Frames over a pair of binary file objects."""

    def __init__(self, infile, outfile):
        self.infile = infile
        self.outfile = outfile

    def _write(self, data: bytes):
        self.outfile.write(data)
        self.outfile.flush()

    def _read(self, nbytes: int) -> bytes:
        return self.infile.read(nbytes)


def send_frame(transport, tag: int, payload: bytes):
    transport.write(frame_encode(tag, payload))


def recv_frame(transport, limit: int) -> tuple[int, bytes]:
    """Read one frame whose length field is at most limit bytes."""
    header = transport.read_exact(4)
    length = frame_length(header)
    if length > limit:
        raise LengthMismatch(f"frame advertises {length} bytes; this session's frames carry at most {limit}")
    return frame_decode(header + transport.read_exact(length))


_HELLO = struct.Struct(">BBQHQ")
_SCHEME_CODE = {scheme: i for i, scheme in enumerate(SchemeId, start=1)}
_BACKEND_CODE = {"transparent": 0, "tate": 1}


def hello_payload(scheme: SchemeId, suite: GroupSuite, params: SchemeParams) -> bytes:
    return _HELLO.pack(
        _SCHEME_CODE[SchemeId(scheme)],
        _BACKEND_CODE[suite.backend.name],
        suite.p,
        params.n,
        getattr(suite.backend, "q", 0),
    )


@dataclass
class SessionResult:
    decision: bool
    transcript: Transcript
    restarts: int = 0


def _steps(engine: SessionEngine, transport):
    """Hello exchange, then the engine's messages as frames until it decides.

    A generator: just before each frame it reads, it yields the number of
    frames it has written since its last yield; it returns the SessionResult.
    """
    ops, suite, params = engine.ops, engine.suite, engine.params
    hello = hello_payload(ops.scheme, suite, params)
    messages = (ops.commitment_fields, ops.challenge_fields, ops.response_fields)
    # The widest length field (tag byte plus payload) this session can carry.
    limit = 1 + max([len(hello), 1, MAX_ERROR_BYTES] + [payload_width(f, suite) for f in messages])
    prover = engine.role == "prover"
    if not prover:
        send_frame(transport, TAG_HELLO, hello)
    yield 0 if prover else 1
    tag, payload = recv_frame(transport, limit)
    if tag == TAG_ERROR and not prover:
        raise_peer_error(payload)
    if tag != TAG_HELLO or payload != hello:
        if prover:
            send_frame(transport, TAG_ERROR, b"hello mismatch")
        raise ProtocolViolation("peer hello does not match these parameters")
    outgoing = [(TAG_HELLO, hello)] * prover + engine.open()
    while True:
        for tag, payload in outgoing:
            send_frame(transport, tag, payload)
        transcript = engine.transcript()
        if transcript is not None:
            return SessionResult(transcript.decision, transcript, engine.restarts)
        yield len(outgoing)
        outgoing = engine.receive(*recv_frame(transport, limit))


def _finish(steps):
    """Run a session's steps to the end over a blocking transport."""
    try:
        while True:
            next(steps)
    except StopIteration as done:
        return done.value


def serve_prover(scheme: SchemeId, kp, transport, seed=None) -> SessionResult:
    """Serve one session; unseeded, as it must be for a real key, it draws from the OS."""
    return _finish(_steps(ProverMachine(scheme, kp, seed=seed, wire=True), transport))


def run_verifier(scheme: SchemeId, pk, transport, seed=None) -> SessionResult:
    """Verify one session; unseeded, as it must be for a real key, it draws from the OS."""
    return _finish(_steps(VerifierMachine(scheme, pk, seed=seed, wire=True), transport))


def loopback_session(scheme: SchemeId, kp, seed=0) -> tuple[SessionResult, SessionResult]:
    """Run prover and verifier over a socketpair; returns both results.

    Both endpoints share the keypair's suite, so with a counted suite every
    protocol message is charged twice (once per endpoint).  Both ends run on
    the caller's thread, and neither keeps state on the suite or the key, so
    loopbacks on one key may run at once.  An end is resumed only when a
    frame it has not read waits in its socket, or when its peer has ended
    and closed its socket, so that it reads the rest and then EOF.  The call
    raises the first error either end raises, and ProtocolViolation when
    both ends wait for a frame.
    """
    socks = socket.socketpair()
    steps = [_steps(ProverMachine(scheme, kp, seed=seed, wire=True), SocketTransport(socks[0])),
             _steps(VerifierMachine(scheme, kp.public(), seed=seed, wire=True), SocketTransport(socks[1]))]
    results = [None, None]
    try:
        # An end writes at most a few frames between reads, which fit the
        # socket buffer, so each is in its peer's socket before the end
        # yields, and counting frames tells which end can read: unread[i]
        # counts those written to end i (0 the prover) that it has not read.
        unread = [next(steps[1]), next(steps[0])]
        while None in results:
            i = next((i for i in (0, 1) if results[i] is None and (unread[i] or results[1 - i] is not None)), None)
            if i is None:
                raise ProtocolViolation("both ends wait for a frame; the loopback cannot go on")
            unread[i] -= 1
            try:
                unread[1 - i] += next(steps[i])
            except StopIteration as done:
                results[i] = done.value
                socks[i].close()
    finally:
        for sock in socks:
            sock.close()
    return results[0], results[1]
