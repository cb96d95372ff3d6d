"""Command line front end: keys, sessions, signatures, benchmarks, lab games.

Exit codes: 0 for accept/pass, 1 for reject or a failed bound, 2 for usage
errors (from argparse or a command), for bad hex input or group parameters,
and for unreadable or malformed record files.
"""

from __future__ import annotations

import argparse
import socket
import sys
from random import Random, SystemRandom

from .algebra import MalformedEncoding, Scalar, ValidationFailed, transparent_suite
from .bench import bench_all, bench_costs
from .lab import (
    ProtocolSim,
    ScriptedBlsidAttacker,
    ScriptedCdhidAttacker,
    ScriptedOwfidAttacker,
    InversionFailed,
    blsid_forger,
    build_summary_matrix,
    cdhid_reduction_game,
    heavy_row_stats,
    invert_to_cdh,
    invert_to_ddh,
    mitm_relay_demo,
    owfid_inverter,
    transparent_pairing_inverter,
)
from .records import RecordError, load_key, save_key, save_transcript
from .schemes import SchemeId, default_scheme_params, keygen, run_session
from .session import SocketTransport, StdioTransport, loopback_session, run_verifier, serve_prover
from .signatures import (
    BbKeyPair,
    ExpKeyPair,
    ForgeryGameConfig,
    bb_sign,
    bb_verify,
    bls_sign,
    bls_verify,
    forgery_game,
)
from .tate import tate_suite
from .wire import TAG_CHALLENGE, frame_encode


class UsageError(Exception):
    """Command-line input that cannot be used; pairid exits 2 with it."""


def _build_suite(args):
    if args.backend == "transparent":
        return transparent_suite(args.p if args.p else 1009)
    return tate_suite(args.q if args.q else 523, args.p)


def _add_suite_args(sub, default_backend="transparent"):
    sub.add_argument("--backend", choices=("transparent", "tate"), default=default_backend)
    sub.add_argument("--p", type=int, default=None, help="group order (transparent) or subgroup order (tate)")
    sub.add_argument("--q", type=int, default=None, help="field size for the tate backend (default 523)")


def _parse_addr(text: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise UsageError(f"address must be host:port, got {text!r}")
    return host, int(port)


_SEED_HELP = "seed for a reproducible run; without it every draw is from the OS"


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


# -- subcommands ----------------------------------------------------------------


def cmd_keygen(args) -> int:
    suite = _build_suite(args)
    scheme = SchemeId(args.scheme)
    kp = keygen(scheme, suite, _rng(args.seed))
    params = default_scheme_params(suite)
    save_key(args.out, scheme, kp, params, include_secret=True)
    print(f"wrote secret key for {scheme.value} over {suite!r} to {args.out}")
    if args.pub_out:
        save_key(args.pub_out, scheme, kp.public(), params, include_secret=False)
        print(f"wrote public key to {args.pub_out}")
    return 0


def cmd_prove(args) -> int:
    scheme, kp, params = load_key(args.key)
    if not kp.has_secret:
        raise UsageError("record holds a public key; proving needs the secret")
    if args.stdio:
        transport = StdioTransport(sys.stdin.buffer, sys.stdout.buffer)
        result = serve_prover(scheme, kp, transport, seed=args.seed, params=params)
        print(f"prover: {'accepted' if result.decision else 'rejected'} "
              f"(restarts {result.restarts})", file=sys.stderr)
        return 0 if result.decision else 1
    host, port = _parse_addr(args.listen)
    with socket.create_server((host, port)) as server:
        print(f"listening on {host}:{port} for one session", file=sys.stderr)
        conn, peer = server.accept()
        with conn:
            result = serve_prover(scheme, kp, SocketTransport(conn), seed=args.seed, params=params)
    print(f"prover: {'accepted' if result.decision else 'rejected'} by {peer[0]} "
          f"(restarts {result.restarts})")
    return 0 if result.decision else 1


def cmd_verify(args) -> int:
    scheme, kp, params = load_key(args.pk)
    pk = kp.public()
    if args.stdio:
        transport = StdioTransport(sys.stdin.buffer, sys.stdout.buffer)
        result = run_verifier(scheme, pk, transport, seed=args.seed, params=params)
        out = sys.stderr
    else:
        host, port = _parse_addr(args.connect)
        with socket.create_connection((host, port)) as conn:
            result = run_verifier(scheme, pk, SocketTransport(conn), seed=args.seed, params=params)
        out = sys.stdout
    if args.transcript_out:
        save_transcript(args.transcript_out, result.transcript, pk.suite, params)
        print(f"wrote transcript to {args.transcript_out}", file=out)
    print(f"verifier: {'accept' if result.decision else 'reject'} (restarts {result.restarts})", file=out)
    return 0 if result.decision else 1


def cmd_sign(args) -> int:
    scheme, kp, params = load_key(args.key)
    message = _message_bytes(args)
    suite = kp.suite
    if not isinstance(kp, (BbKeyPair, ExpKeyPair)):
        raise UsageError(f"key scheme {scheme.value} has no signature counterpart")
    if not kp.has_secret:
        raise UsageError("record holds a public key")
    if isinstance(kp, BbKeyPair):
        m = Scalar(int.from_bytes(message, "big"), suite.p)
        sig, r = bb_sign(kp, m, _rng(args.seed))
        print(f"sig = {suite.encode_element(sig).hex()}")
        print(f"r = {suite.encode_scalar(r).hex()}")
        return 0
    sig = bls_sign(kp, message, params.hash_spec)
    print(f"sig = {suite.encode_element(sig).hex()}")
    return 0


def cmd_sigverify(args) -> int:
    scheme, kp, params = load_key(args.pk)
    pk = kp.public()
    message = _message_bytes(args)
    suite = pk.suite
    sig = _from_hex("--sig", args.sig, suite.decode_g1)
    if isinstance(pk, BbKeyPair):
        if args.r is None:
            raise UsageError("this signature scheme needs --r")
        ok = bb_verify(pk, Scalar(int.from_bytes(message, "big"), suite.p), sig, _from_hex("--r", args.r, suite.decode_scalar))
    elif isinstance(pk, ExpKeyPair):
        ok = bls_verify(pk, message, sig, params.hash_spec)
    else:
        raise UsageError(f"key scheme {scheme.value} has no signature counterpart")
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    suite = _build_suite(args)
    if args.scheme and not args.all_schemes:
        results = [bench_costs(SchemeId(args.scheme), suite, sessions=args.sessions)]
    else:
        results = bench_all(suite, sessions=args.sessions)
    for res in results:
        print(res.line())
    return 0 if all(res.matches for res in results) else 1


def _lab_omcdh(args, suite) -> int:
    attacker = ScriptedCdhidAttacker(eps=args.eps, queries=args.queries)
    report = cdhid_reduction_game(attacker, suite, q=args.queries, trials=args.trials, seed=args.seed)
    print(report.line())
    return 0 if report.wins > 0 else 1


def _lab_forgery(args, suite) -> int:
    params = default_scheme_params(suite)
    attacker = ScriptedBlsidAttacker(n=params.n, queries=args.queries)
    config = ForgeryGameConfig(q_s=args.queries, q_h=4 * args.queries, trials=args.trials, seed=args.seed)
    report = forgery_game("bls", blsid_forger(attacker, params), config, suite)
    print(report.line())
    return 0 if report.wins > 0 else 1


def _lab_invert_cdh(args, suite) -> int:
    rng = Random(args.seed)
    inverter = transparent_pairing_inverter(suite)
    g = suite.g1
    a = suite.random_scalar(rng, nonzero=True)
    b = suite.random_scalar(rng, nonzero=True)
    answer = invert_to_cdh(inverter, g, g**a, g**b)
    ok = answer == g ** (a * b)
    print(f"exponent-combination answer {'correct' if ok else 'wrong'}")
    return 0 if ok else 1


def _lab_invert_ddh(args, suite) -> int:
    rng = Random(args.seed)
    inverter = transparent_pairing_inverter(suite)
    y = suite.random_g2(rng, nonidentity=True)
    a = suite.random_scalar(rng, nonzero=True)
    b = suite.random_scalar(rng, nonzero=True)
    real = invert_to_ddh(inverter, y, y**a, y**b, y ** (a * b), suite, rng)
    fake = invert_to_ddh(inverter, y, y**a, y**b, y ** (a * b + 1), suite, rng)
    print(f"matched tuple: {real}, mismatched tuple: {fake}")
    return 0 if real and not fake else 1


def _lab_heavyrow(args, suite) -> int:
    attacker = ScriptedCdhidAttacker(eps=args.eps, queries=0)
    sim = ProtocolSim.new(SchemeId.CDHID, suite, seed=args.seed, q=0)
    seeds = [f"{args.seed}:row{i}" for i in range(args.trials)]
    cols = min(suite.p - 1, 8)
    challenges = [(suite.g1_from_int(k),) for k in range(1, cols + 1)]
    stats = heavy_row_stats(build_summary_matrix(attacker, sim, seeds, challenges))
    print(
        f"matrix {stats.shape[0]}x{stats.shape[1]}: {stats.ones} ones, "
        f"{len(stats.heavy_rows)} heavy rows carrying {stats.heavy_mass:.3f} of the mass"
    )
    return 0 if stats.heavy_mass > 0.5 else 1


def _lab_extractor(args, suite) -> int:
    rng = Random(args.seed)
    attacker = ScriptedOwfidAttacker(eps=args.eps)
    P = suite.random_g1(rng, nonidentity=True)
    y = suite.random_g2(rng, nonidentity=True)
    try:
        Z = owfid_inverter(attacker, P, y, suite, mode=args.mode, eps=args.eps, rng=rng)
    except InversionFailed as exc:
        print(f"inversion failed: {exc}")
        return 1
    ok = suite.pairing(P, Z) == y
    print(f"extracted preimage {'verifies' if ok else 'does not verify'}")
    return 0 if ok else 1


def _lab_mitm(args, suite) -> int:
    clean = mitm_relay_demo(suite, seed=args.seed)
    flipped = mitm_relay_demo(suite, seed=args.seed, flip=(2, 5, 0))
    for label, report in (("verbatim", clean), ("bit-flipped", flipped)):
        print(f"{label}: {'accept' if report.decision else 'reject'} over {len(report.frames)} frames")
        print(f"  {report.note}")
    return 0 if clean.decision and not flipped.decision else 1


_LAB_GAMES = {
    "omcdh": _lab_omcdh,
    "forgery": _lab_forgery,
    "invert-cdh": _lab_invert_cdh,
    "invert-ddh": _lab_invert_ddh,
    "heavyrow": _lab_heavyrow,
    "extractor": _lab_extractor,
    "mitm": _lab_mitm,
}


def cmd_lab(args) -> int:
    suite = transparent_suite(args.p if args.p else 1009)
    return _LAB_GAMES[args.game](args, suite)


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
    sp.add_argument("--seed", default=None, help=_SEED_HELP)
    sp.set_defaults(func=cmd_prove)

    sp = sub.add_parser("verify", help="run one identification session as the verifier")
    sp.add_argument("--pk", required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--connect", help="host:port of a listening prover")
    group.add_argument("--stdio", action="store_true", help="speak frames on stdin/stdout")
    sp.add_argument("--seed", default=None, help=_SEED_HELP)
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
    sp.add_argument("--game", required=True, choices=sorted(_LAB_GAMES))
    sp.add_argument("--p", type=int, default=None, help="transparent group order (default 1009)")
    sp.add_argument("--eps", type=float, default=0.4)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--queries", type=int, default=4)
    sp.add_argument("--seed", default="lab")
    sp.add_argument("--mode", choices=("iterated", "single-shot"), default="iterated")
    sp.set_defaults(func=cmd_lab)

    sp = sub.add_parser("selftest", help="quick end-to-end exercise of both backends")
    sp.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RecordError, UsageError, ValidationFailed) as exc:
        print(f"pairid: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
