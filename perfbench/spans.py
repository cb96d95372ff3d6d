"""Spans and counters around pairid's public entry points, from outside.

Tracer.install() replaces each traced function or method with a wrapper and
uninstall() puts the originals back, so only the traced phase of a traced
run pays for it.  A module-level function is replaced in every pairid module
that binds it (session.py, for example, holds its own reference to
wire.encode_payload), so calls are caught whichever module makes them.

Each span records calls and self time: its duration minus the part covered
by spans nested inside it on the same thread.  Span stacks are per thread
because loopback sessions run the prover on a second thread.  Counters are
plain named totals; snapshot() copies spans and counters so that a caller
can take per-operation differences.  While `active` is false the wrappers
record nothing, so the benchmark's own checks stay out of the figures.
"""

from __future__ import annotations

import struct
import sys
import threading
import time

from pairid import lab, schemes, session, signatures, tate, wire
from pairid.algebra import KIND_G1, KIND_G2

# Span names with their targets: (owner, attribute) pairs.  A module owner
# names a module-level function, replaced in every pairid module that binds
# it; a class owner names a method.
SPANS = {
    "tate.pair": [(tate, "tate_pairing")],
    "tate.point_mul": [(tate, "point_mul")],
    "signatures.hash_to_group": [(signatures, "hash_to_group")],
    "schemes.run_session": [(schemes, "run_session")],
    "schemes.prover": [(schemes.ProverMachine, "start"), (schemes.ProverMachine, "on_challenge")],
    "schemes.verifier": [(schemes.VerifierMachine, "on_response")],
    "wire.encode_payload": [(wire, "encode_payload")],
    "wire.decode_payload": [(wire, "decode_payload")],
    "wire.frame": [(wire, "frame_encode"), (wire, "frame_decode")],
    "session.send_frame": [(session, "send_frame")],
    "session.recv_frame": [(session, "recv_frame")],
    "lab.run_attack": [(lab, "run_attack")],
    "lab.probe_strategy": [(lab, "probe_strategy")],
    "lab.owfid_extractor": [(lab, "owfid_extractor")],
    "lab.mitm_relay_demo": [(lab, "mitm_relay_demo")],
}
# Backend methods whose span name depends on the element kind argument.
KIND_SPANS = {
    (tate.TateBackend, "power"): {KIND_G2: "tate.power_g2"},
    (tate.TateBackend, "from_int"): {KIND_G2: "tate.power_g2"},
    (tate.TateBackend, "decode"): {KIND_G1: "tate.decode_g1", KIND_G2: "tate.decode_g2"},
}
SPAN_NAMES = tuple(SPANS) + tuple(dict.fromkeys(n for names in KIND_SPANS.values() for n in names.values()))


def hello_fits(scheme, suite, params) -> int:
    """1 if session.hello_payload can describe this suite, else 0."""
    try:
        session.hello_payload(scheme, suite, params)
    except (struct.error, OverflowError):
        return 0
    return 1


class Tracer:
    def __init__(self):
        self.spans = {name: [0, 0.0] for name in SPAN_NAMES}
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []
        self.active = True

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += duration
            with self._lock:
                rec = self.spans[name]
                rec[0] += 1
                rec[1] += duration - child

    def count(self, name: str, n: int = 1):
        if not self.active:
            return
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> tuple[dict, dict]:
        with self._lock:
            return {k: tuple(v) for k, v in self.spans.items()}, dict(self.counts)

    # -- wrappers ------------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._timed(name, fn, args, kwargs)

        return wrapper

    def _kind_wrapper(self, names, fn):
        def wrapper(backend, kind, *args):
            name = names.get(kind)
            if name is None:
                return fn(backend, kind, *args)
            return self._timed(name, fn, (backend, kind) + args, {})

        return wrapper

    def _patch(self, owner, attr, make):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for mod in [m for name, m in sys.modules.items() if name.startswith("pairid.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self):
        for name, targets in SPANS.items():
            for owner, attr in targets:
                self._patch(owner, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for (owner, attr), names in KIND_SPANS.items():
            self._patch(owner, attr, lambda fn, names=names: self._kind_wrapper(names, fn))
        self._patch(session, "send_frame", self._frame_counter)
        self._patch(schemes.ProverMachine, "on_challenge", lambda fn: self._completion_counter("prover", fn))
        self._patch(schemes.VerifierMachine, "on_response", lambda fn: self._completion_counter("verifier", fn))
        self._patch(lab.HonestProverOracle, "finish", self._oracle_counter)

    def uninstall(self):
        # Undo in reverse so a doubly wrapped target gets its true original.
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # Counters layered over the span wrappers installed above.

    def _frame_counter(self, fn):
        def wrapper(transport, tag, payload):
            self.count("session.frames")
            self.count("session.bytes", 5 + len(payload))
            return fn(transport, tag, payload)

        return wrapper

    def _completion_counter(self, role, fn):
        # Completed role steps per scheme: the base of the EXPECTED-weighted
        # operation counts that the counted suite must reproduce.
        def wrapper(machine, message):
            out = fn(machine, message)
            self.count(f"{role}:{machine.ops.scheme.value}")
            return out

        return wrapper

    def _oracle_counter(self, fn):
        def wrapper(oracle, challenge):
            self.count("lab.oracle_queries")
            return fn(oracle, challenge)

        return wrapper
