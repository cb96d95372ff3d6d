"""Command line front end: keys, sessions, signatures, benchmarks, lab games.

`lab` prints one of pairid.lab's named demos; `selftest` runs all of them.

`prove` and `verify` take no seed, so their draws come from the OS: a prover
that repeats a commitment for two challenges gives its key away, and a
challenge that can be foreseen can be answered without the key.  A seed on
`keygen` or `sign` is for reproducible tests only.

Exit codes: 0 for accept/pass, 1 for reject or a failed bound (a session
that a peer ends early with a PeerError is a reject), 2 for usage errors (from
argparse or a command), bad hex input, group parameters or counts, unreadable
or malformed record files, a key whose suite the session hello cannot
describe, and OS errors (a missing directory, a busy port).
A keygen or verify that fails leaves none of the records it was to write.
"""

from __future__ import annotations

import argparse
import os
import socket
import struct
import sys
from contextlib import contextmanager, suppress
from random import Random, SystemRandom

from .algebra import MalformedEncoding, PeerError, Scalar, ValidationFailed, transparent_suite
from .bench import bench_all, bench_costs
from .lab import DEMO_DEFAULTS, DEMOS, DemoInputError, run_demo
from .records import RecordError, load_key, save_key, save_transcript
from .schemes import SchemeId, default_scheme_params, keygen, run_session
from .session import SocketTransport, StdioTransport, hello_payload, loopback_session, run_verifier, serve_prover
from .signatures import BbKeyPair, ExpKeyPair, bb_sign, bb_verify, bls_sign, bls_verify
from .tate import tate_suite
from .wire import TAG_CHALLENGE, frame_encode


class UsageError(Exception):
    """Command-line input that cannot be used; pairid exits 2 with it."""


def _build_suite(args):
    if args.backend == "transparent":
        return transparent_suite(1009 if args.p is None else args.p)
    return tate_suite(args.q, args.p)


def _add_suite_args(sub):
    sub.add_argument("--backend", choices=("transparent", "tate"), default="transparent")
    sub.add_argument("--p", type=int, default=None, help="group order (transparent) or subgroup order (tate)")
    sub.add_argument("--q", type=int, default=523, help="field size for the tate backend (default 523)")


def _parse_addr(text: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise UsageError(f"address must be host:port, got {text!r}")
    return host, int(port)


_SEED_HELP = ("seed for reproducible tests only, for anyone who knows it can recompute the key or "
              "signature; without it every draw is from the OS")


def _rng(seed):
    return SystemRandom() if seed is None else Random(seed)


def _from_hex(flag: str, text: str, decode=bytes):
    """decode(bytes.fromhex(text)), with bad input a UsageError naming flag."""
    try:
        return decode(bytes.fromhex(text))
    except (ValueError, MalformedEncoding) as exc:
        raise UsageError(f"bad {flag}: {exc}") from exc


def _message_bytes(args) -> bytes:
    if args.message_hex is not None:
        return _from_hex("--message-hex", args.message_hex)
    if args.message is not None:
        return args.message.encode()
    raise UsageError("one of --message / --message-hex is required")


def _require_signing_key(scheme: SchemeId, kp):
    if not isinstance(kp, (BbKeyPair, ExpKeyPair)):
        raise UsageError(f"key scheme {scheme.value} has no signature counterpart")


@contextmanager
def _removed_on_error(path):
    """Remove the file at path (None for no file) if the block raises, so
    that a command that fails leaves no file it wrote behind."""
    try:
        yield
    except BaseException:
        if path is not None:
            with suppress(FileNotFoundError):
                os.remove(path)
        raise


def _require_hello(scheme: SchemeId, kp):
    """Refuse a suite that the session hello cannot describe (a real-size
    curve), before any socket opens or file is written."""
    try:
        hello_payload(scheme, kp.suite, default_scheme_params(kp.suite))
    except struct.error as exc:
        raise UsageError(f"the session hello cannot describe this suite ({exc})") from exc


# -- subcommands ----------------------------------------------------------------


def cmd_keygen(args) -> int:
    suite = _build_suite(args)
    scheme = SchemeId(args.scheme)
    kp = keygen(scheme, suite, _rng(args.seed))
    params = default_scheme_params(suite)
    save_key(args.out, scheme, kp, params, include_secret=True)
    if args.pub_out:
        with _removed_on_error(args.out):
            save_key(args.pub_out, scheme, kp.public(), params, include_secret=False)
    print(f"wrote secret key for {scheme.value} over {suite!r} to {args.out}")
    if args.pub_out:
        print(f"wrote public key to {args.pub_out}")
    return 0


def cmd_prove(args) -> int:
    scheme, kp, _ = load_key(args.key)
    if not kp.has_secret:
        raise UsageError("record holds a public key; proving needs the secret")
    _require_hello(scheme, kp)
    if args.stdio:
        transport = StdioTransport(sys.stdin.buffer, sys.stdout.buffer)
        result = serve_prover(scheme, kp, transport)
        print(f"prover: {'accepted' if result.decision else 'rejected'} "
              f"(restarts {result.restarts})", file=sys.stderr)
        return 0 if result.decision else 1
    host, port = _parse_addr(args.listen)
    with socket.create_server((host, port)) as server:
        print(f"listening on {host}:{port} for one session", file=sys.stderr)
        conn, peer = server.accept()
        with conn:
            result = serve_prover(scheme, kp, SocketTransport(conn))
    print(f"prover: {'accepted' if result.decision else 'rejected'} by {peer[0]} "
          f"(restarts {result.restarts})")
    return 0 if result.decision else 1


def cmd_verify(args) -> int:
    scheme, kp, params = load_key(args.pk)
    pk = kp.public()
    _require_hello(scheme, pk)
    if args.transcript_out:
        # A path that cannot be written fails before the session.
        open(args.transcript_out, "w").close()
    with _removed_on_error(args.transcript_out):
        if args.stdio:
            transport = StdioTransport(sys.stdin.buffer, sys.stdout.buffer)
            result = run_verifier(scheme, pk, transport)
            out = sys.stderr
        else:
            host, port = _parse_addr(args.connect)
            with socket.create_connection((host, port)) as conn:
                result = run_verifier(scheme, pk, SocketTransport(conn))
            out = sys.stdout
        if args.transcript_out:
            save_transcript(args.transcript_out, result.transcript, pk.suite, params)
            print(f"wrote transcript to {args.transcript_out}", file=out)
    print(f"verifier: {'accept' if result.decision else 'reject'} (restarts {result.restarts})", file=out)
    return 0 if result.decision else 1


def cmd_sign(args) -> int:
    scheme, kp, _ = load_key(args.key)
    message = _message_bytes(args)
    suite = kp.suite
    _require_signing_key(scheme, kp)
    if not kp.has_secret:
        raise UsageError("record holds a public key")
    if isinstance(kp, BbKeyPair):
        m = Scalar(int.from_bytes(message, "big"), suite.p)
        sig, r = bb_sign(kp, m, _rng(args.seed))
        print(f"sig = {suite.encode_element(sig).hex()}")
        print(f"r = {suite.encode_scalar(r).hex()}")
        return 0
    sig = bls_sign(kp, message)
    print(f"sig = {suite.encode_element(sig).hex()}")
    return 0


def cmd_sigverify(args) -> int:
    scheme, kp, _ = load_key(args.pk)
    pk = kp.public()
    message = _message_bytes(args)
    suite = pk.suite
    sig = _from_hex("--sig", args.sig, suite.decode_g1)
    _require_signing_key(scheme, pk)
    if isinstance(pk, BbKeyPair):
        if args.r is None:
            raise UsageError("this signature scheme needs --r")
        ok = bb_verify(pk, Scalar(int.from_bytes(message, "big"), suite.p), sig, _from_hex("--r", args.r, suite.decode_scalar))
    else:
        ok = bls_verify(pk, message, sig)
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    if args.sessions < 1:
        raise UsageError(f"sessions must be at least 1, got {args.sessions}")
    suite = _build_suite(args)
    if args.scheme and not args.all_schemes:
        results = [bench_costs(SchemeId(args.scheme), suite, sessions=args.sessions)]
    else:
        results = bench_all(suite, sessions=args.sessions)
    for res in results:
        print(res.line())
    return 0 if all(res.matches for res in results) else 1


def cmd_lab(args) -> int:
    suite = transparent_suite(args.p)
    ok, lines = run_demo(args.game, suite, args.seed, args.eps, args.trials, args.queries, args.mode)
    print(*lines, sep="\n")
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    failures = 0

    def check(label: str, ok: bool):
        nonlocal failures
        print(f"[{'ok' if ok else 'FAIL'}] {label}")
        failures += 0 if ok else 1

    probe = transparent_suite(11)
    vector = frame_encode(TAG_CHALLENGE, probe.encode_scalar(probe.scalar(3)))
    check("challenge frame byte layout", vector == bytes.fromhex("00000003030003"))

    suite = transparent_suite(1009)
    for scheme in SchemeId:
        kp = keygen(scheme, suite, Random(f"selftest:{scheme.value}"))
        prover_res, verifier_res = loopback_session(scheme, kp, seed=7)
        check(f"{scheme.value} loopback session accepts", prover_res.decision and verifier_res.decision)
    for res in bench_all(suite, sessions=2, seed="selftest"):
        check(f"{res.scheme.value} costs match the expected table", res.matches)
    for name in DEMOS:
        check(f"lab {name}", run_demo(name, suite, **DEMO_DEFAULTS)[0])

    curve = tate_suite(83)
    for scheme in SchemeId:
        kp = keygen(scheme, curve, Random(f"selftest:{scheme.value}"))
        t = run_session(scheme, kp, curve, seed=3)
        check(f"{scheme.value} session accepts on the curve backend", t.decision)

    print(f"{failures} failures")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pairid",
        description="Pairing-based identification protocols with an executable security lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("keygen", help="generate a keypair and write it to a record file")
    sp.add_argument("--scheme", required=True, choices=[s.value for s in SchemeId])
    _add_suite_args(sp)
    sp.add_argument("--seed", default=None, help=_SEED_HELP)
    sp.add_argument("--out", required=True)
    sp.add_argument("--pub-out", default=None)
    sp.set_defaults(func=cmd_keygen)

    sp = sub.add_parser("prove", help="serve one identification session as the prover")
    sp.add_argument("--key", required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--listen", help="host:port to accept one verifier connection on")
    group.add_argument("--stdio", action="store_true", help="speak frames on stdin/stdout")
    sp.set_defaults(func=cmd_prove)

    sp = sub.add_parser("verify", help="run one identification session as the verifier")
    sp.add_argument("--pk", required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--connect", help="host:port of a listening prover")
    group.add_argument("--stdio", action="store_true", help="speak frames on stdin/stdout")
    sp.add_argument("--transcript-out", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sign", help="sign a message with a key record")
    sp.add_argument("--key", required=True)
    sp.add_argument("--message", default=None)
    sp.add_argument("--message-hex", default=None)
    sp.add_argument("--seed", default=None, help=_SEED_HELP)
    sp.set_defaults(func=cmd_sign)

    sp = sub.add_parser("sigverify", help="check a signature against a key record")
    sp.add_argument("--pk", required=True)
    sp.add_argument("--message", default=None)
    sp.add_argument("--message-hex", default=None)
    sp.add_argument("--sig", required=True)
    sp.add_argument("--r", default=None, help="blinding scalar hex (inversion-based scheme)")
    sp.set_defaults(func=cmd_sigverify)

    sp = sub.add_parser("bench", help="measure per-session costs against the expected table")
    sp.add_argument("--scheme", choices=[s.value for s in SchemeId], default=None)
    sp.add_argument("--all", action="store_true", dest="all_schemes", help="measure every scheme")
    _add_suite_args(sp)
    sp.add_argument("--sessions", type=int, default=4)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("lab", help="run a security-game demonstration")
    sp.add_argument("--game", required=True, choices=sorted(DEMOS))
    sp.add_argument("--p", type=int, default=1009, help="transparent group order (default 1009)")
    sp.add_argument("--eps", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--queries", type=int)
    sp.add_argument("--seed")
    sp.add_argument("--mode", choices=("iterated", "single-shot"))
    sp.set_defaults(func=cmd_lab, **DEMO_DEFAULTS)

    sp = sub.add_parser("selftest", help="quick end-to-end exercise of both backends")
    sp.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DemoInputError, OSError, RecordError, UsageError, ValidationFailed) as exc:
        print(f"pairid: {exc}", file=sys.stderr)
        return 2
    except PeerError as exc:
        # A session that the peer or the wire ended early is a reject.
        print(f"pairid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
