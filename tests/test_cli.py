import hashlib
import io
import os
import random
import socket
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import pairid
from pairid.cli import main
from pairid.lab import DEMOS, MalformedTranscripts, owfid_extractor
from pairid.records import load_key, load_transcript
from pairid.schemes import SCHEMES, Transcript
from pairid.session import hello_payload
from pairid.wire import (
    TAG_CHALLENGE,
    TAG_COMMITMENT,
    TAG_DECISION,
    TAG_HELLO,
    TAG_RESPONSE,
    decode_payload,
    encode_payload,
    frame_decode,
    frame_encode,
    frame_length,
)
from test_session import reset


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture
def keyfiles(tmp_path):
    sk = tmp_path / "id.key"
    pk = tmp_path / "id.pub"
    assert main(["keygen", "--scheme", "owfid", "--seed", "cli", "--out", str(sk), "--pub-out", str(pk)]) == 0
    return sk, pk


class TestKeygen:
    def test_writes_loadable_records(self, keyfiles):
        sk, pk = keyfiles
        scheme, kp, _ = load_key(str(sk))
        assert scheme.value == "owfid" and kp.s is not None
        _, pub, _ = load_key(str(pk))
        assert pub.s is None

    @pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
    def test_secret_record_is_private(self, tmp_path):
        # Mode 0600 whatever the umask, also over a readable file of that name,
        # and no temporary file is left beside it.
        sk, pk = tmp_path / "id.key", tmp_path / "id.pub"
        sk.write_text("")
        sk.chmod(0o644)
        assert main(["keygen", "--scheme", "owfid", "--out", str(sk), "--pub-out", str(pk)]) == 0
        assert stat.S_IMODE(sk.stat().st_mode) == 0o600
        assert sorted(tmp_path.iterdir()) == [sk, pk]

    def test_curve_backend_keygen(self, tmp_path):
        out = tmp_path / "curve.key"
        assert main(["keygen", "--scheme", "cdhid", "--backend", "tate", "--q", "59", "--out", str(out)]) == 0
        _, kp, _ = load_key(str(out))
        assert kp.suite.describe()["backend"] == "tate"


class TestProveVerify:
    def test_tcp_session(self, keyfiles, tmp_path):
        sk, pk = keyfiles
        transcript = tmp_path / "session.transcript"
        assert _tcp_session(sk, pk, transcript) == 0
        t, _, _ = load_transcript(str(transcript))
        assert t.decision

    def test_stdio_session_between_processes(self, keyfiles, tmp_path):
        # Each end's stdout is the other's stdin.  The verifier's frames pass
        # through this test, which checks that they are all its stdout holds:
        # its verdict goes to stderr.
        sk, pk = keyfiles
        transcript = tmp_path / "stdio.transcript"
        env = {**os.environ, "PYTHONPATH": str(Path(pairid.__file__).resolve().parents[1])}
        cli = [sys.executable, "-m", "pairid"]
        verify = [*cli, "verify", "--pk", str(pk), "--stdio", "--transcript-out", str(transcript)]
        pipe = subprocess.PIPE
        with (
            subprocess.Popen(verify, stdin=pipe, stdout=pipe, stderr=pipe, env=env) as verifier,
            subprocess.Popen([*cli, "prove", "--key", str(sk), "--stdio"],
                             stdin=pipe, stdout=verifier.stdin, stderr=pipe, env=env) as prover,
        ):
            verifier.stdin.close()  # the prover holds the only write end
            sent = b""
            while chunk := os.read(verifier.stdout.fileno(), 4096):
                sent += chunk
                prover.stdin.write(chunk)
                prover.stdin.flush()
            prover.stdin.close()
            assert (prover.wait(timeout=30), verifier.wait(timeout=30)) == (0, 0)
            assert prover.stderr.read().decode() == "prover: accepted (restarts 0)\n"
            assert verifier.stderr.read().decode().splitlines() == [f"wrote transcript to {transcript}",
                                                                    "verifier: accept (restarts 0)"]
        tags = []
        while sent:
            size = 4 + frame_length(sent[:4])
            tag, payload = frame_decode(sent[:size])
            tags.append(tag)
            sent = sent[size:]
        assert tags == [TAG_HELLO, TAG_CHALLENGE, TAG_DECISION] and payload == b"\x01"
        assert "decision = accept" in transcript.read_text().splitlines()

    def test_two_proofs_do_not_give_the_key_away(self, keyfiles, monkeypatch):
        # Two prove --stdio runs of one owfid key, answered with different
        # challenges.  A repeated commitment would let owfid_extractor's
        # division recover the secret key.
        sk, _ = keyfiles
        scheme, kp, params = load_key(str(sk))
        suite, ops = kp.suite, SCHEMES[scheme]
        hello = frame_encode(TAG_HELLO, hello_payload(scheme, suite, params))
        transcripts = []
        for m in (suite.scalar(3), suite.scalar(5)):
            challenge = frame_encode(TAG_CHALLENGE, encode_payload(ops.challenge_fields, (m,), suite))
            inbound = hello + challenge + frame_encode(TAG_DECISION, b"\x01")
            wire = io.BytesIO()
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(inbound)))
            monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(wire))
            assert main(["prove", "--key", str(sk), "--stdio"]) == 0
            sys.stdout.flush()
            sent, out = {}, wire.getvalue()
            while out:
                size = 4 + frame_length(out[:4])
                tag, payload = frame_decode(out[:size])
                sent[tag], out = payload, out[size:]
            assert sorted(sent) == sorted([TAG_HELLO, TAG_COMMITMENT, TAG_RESPONSE])
            transcripts.append(Transcript(scheme, decode_payload(ops.commitment_fields, sent[TAG_COMMITMENT], suite),
                                          (m,), decode_payload(ops.response_fields, sent[TAG_RESPONSE], suite), True))
        assert transcripts[0].commitment != transcripts[1].commitment
        with pytest.raises(MalformedTranscripts, match="do not share a commitment"):
            owfid_extractor(*transcripts, kp)


class TestBrokenSessions:
    """A session the peer ends early is a reject: one line on stderr, exit 1."""

    @pytest.mark.parametrize(
        "argv, inbound",
        [
            (["verify", "--pk", "{pk}", "--stdio"], b""),
            (["prove", "--key", "{sk}", "--stdio"], b"\x00\x00\x00\x02\x06x"),
            (["prove", "--key", "{sk}", "--stdio"], b"\x00\x00\x00\x02\x09x"),
            # The peer's reason holds a newline and a forged second pairid: line.
            (["verify", "--pk", "{pk}", "--stdio"], b"\x00\x00\x00\x23\x06go away\npairid: forged second line"),
        ],
        ids=["verify-empty-stdin", "prove-error-frame", "prove-unknown-tag", "verify-error-frame-newline"],
    )
    def test_one_line_exit_1(self, argv, inbound, keyfiles, monkeypatch, capsys):
        sk, pk = keyfiles
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(inbound)))
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO()))
        capsys.readouterr()
        assert main([arg.format(sk=sk, pk=pk) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("pairid: ")

    def test_failed_session_leaves_no_transcript(self, keyfiles, tmp_path, monkeypatch, capsys):
        _, pk = keyfiles
        transcript = tmp_path / "t.rec"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO()))
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO()))
        assert main(["verify", "--pk", str(pk), "--stdio", "--transcript-out", str(transcript)]) == 1
        assert not transcript.exists()

    def test_verify_connect_peer_reset(self, keyfiles, capsys):
        # The prover reads the hello and resets the connection.
        _, pk = keyfiles
        with socket.create_server(("127.0.0.1", 0)) as server:
            def prover():
                conn, _ = server.accept()
                conn.recv(4096)
                reset(conn)

            thread = threading.Thread(target=prover, daemon=True)
            thread.start()
            capsys.readouterr()
            rc = main(["verify", "--pk", str(pk), "--connect", f"127.0.0.1:{server.getsockname()[1]}"])
            thread.join(timeout=5)
        assert not thread.is_alive() and rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("pairid: ")

    def test_prove_listen_peer_reset(self, keyfiles, capsys):
        # The verifier connects and resets the connection before its hello.
        sk, _ = keyfiles
        port = free_port()
        prover_rc = []
        thread = threading.Thread(
            target=lambda: prover_rc.append(main(["prove", "--key", str(sk), "--listen", f"127.0.0.1:{port}"])),
            daemon=True)
        capsys.readouterr()
        thread.start()
        deadline = time.monotonic() + 5
        while True:
            try:
                reset(socket.create_connection(("127.0.0.1", port)))
                break
            except ConnectionRefusedError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        thread.join(timeout=5)
        assert not thread.is_alive() and prover_rc == [1]
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("listening on ")
        assert len(err) == 2 and err[1].startswith("pairid: ")


class TestBadRecords:
    def test_malformed_key_is_a_usage_error(self, keyfiles, capsys):
        # One line on stderr and exit 2, before any socket is opened.
        _, pk = keyfiles
        pk.write_text("".join(ln for ln in pk.read_text().splitlines(True) if not ln.startswith("pk.v")))
        capsys.readouterr()
        assert main(["verify", "--pk", str(pk), "--connect", "127.0.0.1:1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.splitlines() == ["pairid: record has no 'pk.v' field"]


@pytest.fixture(scope="module")
def real_keyfiles(tmp_path_factory):
    """A cdhid key record and its public record on the pinned real-size curve."""
    from pairid.records import save_key
    from pairid.schemes import SchemeId, default_scheme_params, keygen
    from pairid.tate import suite_from_curve_params
    from test_tate import REAL_GEN, REAL_H, REAL_P, REAL_Q

    suite = suite_from_curve_params(REAL_Q, REAL_P, REAL_H, REAL_GEN)
    kp = keygen(SchemeId.CDHID, suite, random.Random("real-size record"))
    root = tmp_path_factory.mktemp("real")
    sk, pk = root / "real.key", root / "real.pub"
    save_key(sk, SchemeId.CDHID, kp, default_scheme_params(suite), include_secret=True)
    save_key(pk, SchemeId.CDHID, kp.public(), default_scheme_params(suite), include_secret=False)
    return sk, pk


class TestRealSizeRecord:
    """A real-size record loads, but the session hello cannot describe its
    suite: prove and verify refuse it with one pairid: line and exit 2,
    before any stream or socket is opened and before the transcript file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["prove", "--key", "{sk}", "--stdio"],
            ["prove", "--key", "{sk}", "--listen", "127.0.0.1:{port}"],
            ["verify", "--pk", "{pk}", "--stdio", "--transcript-out", "{transcript}"],
            ["verify", "--pk", "{pk}", "--connect", "127.0.0.1:{port}", "--transcript-out", "{transcript}"],
        ],
        ids=["prove-stdio", "prove-listen", "verify-stdio", "verify-connect"],
    )
    def test_refused_before_the_session(self, argv, real_keyfiles, tmp_path, monkeypatch, capsys):
        from pairid import cli

        def refuse(*args, **kwargs):
            raise AssertionError("the session was started")

        for name in ("create_server", "create_connection"):
            monkeypatch.setattr(cli.socket, name, refuse)
        monkeypatch.setattr(cli, "StdioTransport", refuse)
        sk, pk = real_keyfiles
        transcript = tmp_path / "t.rec"
        names = {"sk": sk, "pk": pk, "port": free_port(), "transcript": transcript}
        capsys.readouterr()
        assert main([arg.format(**names) for arg in argv]) == 2
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1
        assert out.err.startswith("pairid: the session hello cannot describe this suite")
        assert not transcript.exists()


class TestSignatures:
    def test_bls_roundtrip(self, tmp_path, capsys):
        sk = tmp_path / "bls.key"
        pk = tmp_path / "bls.pub"
        main(["keygen", "--scheme", "blsid", "--out", str(sk), "--pub-out", str(pk)])
        assert main(["sign", "--key", str(sk), "--message", "hello"]) == 0
        sig = capsys.readouterr().out.strip().splitlines()[-1].split(" = ")[1]
        assert main(["sigverify", "--pk", str(pk), "--message", "hello", "--sig", sig]) == 0
        assert "valid" in capsys.readouterr().out
        assert main(["sigverify", "--pk", str(pk), "--message", "other", "--sig", sig]) == 1

    def test_bls_roundtrip_on_curve(self, tmp_path, capsys):
        sk = tmp_path / "bls.key"
        pk = tmp_path / "bls.pub"
        main(["keygen", "--scheme", "blsid", "--backend", "tate", "--q", "523",
              "--out", str(sk), "--pub-out", str(pk)])
        assert main(["sign", "--key", str(sk), "--message", "hello"]) == 0
        sig = capsys.readouterr().out.strip().splitlines()[-1].split(" = ")[1]
        assert main(["sigverify", "--pk", str(pk), "--message", "hello", "--sig", sig]) == 0
        assert capsys.readouterr().out.strip() == "valid"
        assert main(["sigverify", "--pk", str(pk), "--message", "other", "--sig", sig]) == 1
        identity = "00" + "00" * (len(sig) // 2 - 1)
        assert main(["sigverify", "--pk", str(pk), "--message", "hello", "--sig", identity]) == 1
        assert capsys.readouterr().out.strip().splitlines()[-1] == "invalid"

    def test_bb_roundtrip(self, tmp_path, capsys):
        sk = tmp_path / "bb.key"
        pk = tmp_path / "bb.pub"
        main(["keygen", "--scheme", "sdhid", "--out", str(sk), "--pub-out", str(pk)])
        capsys.readouterr()
        main(["sign", "--key", str(sk), "--message-hex", "0abc"])
        lines = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        rc = main(["sigverify", "--pk", str(pk), "--message-hex", "0abc",
                   "--sig", lines["sig"], "--r", lines["r"]])
        assert rc == 0


class TestBenchCommand:
    def test_all_schemes(self, capsys):
        assert main(["bench", "--all", "--sessions", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.endswith("ok") for line in lines)

    def test_single_scheme(self, capsys):
        assert main(["bench", "--scheme", "hls", "--sessions", "1"]) == 0
        assert capsys.readouterr().out.startswith("hls")


class TestLabCommand:
    @pytest.mark.parametrize("game", ["invert-cdh", "invert-ddh", "heavyrow", "extractor", "mitm"])
    def test_quick_games(self, game):
        assert main(["lab", "--game", game, "--p", "101", "--trials", "10", "--seed", "t"]) == 0

    def test_omcdh_game(self):
        assert main(["lab", "--game", "omcdh", "--p", "101", "--trials", "20", "--eps", "0.8"]) == 0

    def test_forgery_game(self):
        assert main(["lab", "--game", "forgery", "--p", "101", "--trials", "10", "--queries", "4"]) == 0


def test_selftest_runs():
    assert main(["selftest"]) == 0


# `pairid lab --game G --p P FLAGS` for each P in _LAB_P and flag set in
# _LAB_FLAGS, in that order: SHA-256 over each run's exit code and stdout.
_LAB_P = ("101", "1009")
_LAB_FLAGS = (
    [],
    ["--seed", "t", "--trials", "10", "--eps", "0.8", "--queries", "2"],
    ["--mode", "single-shot", "--seed", "s", "--trials", "5", "--eps", "0.6", "--queries", "0"],
    ["--seed", "z", "--trials", "3", "--eps", "0.05", "--queries", "1"],
    ["--seed", "a", "--trials", "2", "--queries", "100"],
)
_LAB_DIGESTS = {
    "omcdh": "9f9af959d8b56260b227ec202f7e06dbe252027dbd1e934857c94aa810e3c857",
    "forgery": "bb0efbedafb72d787b83a5744ffae889671cb610f787502c286cb17c076bf4c3",
    "invert-cdh": "00a9835becb6974b9bd546e9f24c90efac1c11cf7800d4962df0278306456adc",
    "invert-ddh": "aaa40811c6da6090e102e579f2699672c357fcbe9ffe8840612439f67ecf6107",
    "heavyrow": "7bdad392233882c2a6f8e810f37af5079ecc002ee00a9194547215798ef6098b",
    "extractor": "13b7ac8450e6e183f03f5e5454185b9b5b04625f84e87ce48b8dda1b206ca146",
    "mitm": "036f4bf0efd100856cdf2768b7e16c5491f61535e3f2a5add73fd7afbf0d7fda",
}


class TestLabPinned:
    @pytest.mark.parametrize("game", list(DEMOS))
    def test_output_digest(self, game, capsys):
        digest = hashlib.sha256()
        for p in _LAB_P:
            for flags in _LAB_FLAGS:
                rc = main(["lab", "--game", game, "--p", p, *flags])
                digest.update(f"{rc}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == _LAB_DIGESTS[game]

    def test_selftest_runs_every_demo(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if " lab " in line] == [f"[ok] lab {name}" for name in DEMOS]


# SHA-256 over each `pairid bench --all FLAGS` run's exit code and stdout, for
# each flag set in _BENCH_FLAGS in that order, and over `pairid selftest`'s.
_BENCH_FLAGS = ([], ["--backend", "tate", "--q", "59"], ["--backend", "tate", "--q", "83"])
_BENCH_DIGEST = "137793d43889475ba901058c14b0dfa0131b172498585a1d54646d02c59d47d2"
_SELFTEST_DIGEST = "17071284bcc03cdcb28d9f56420f3549f1cc7a65de9e68181a0ba4608d6741cb"


class TestBenchPinned:
    def test_bench_digest(self, capsys):
        digest = hashlib.sha256()
        for flags in _BENCH_FLAGS:
            rc = main(["bench", "--all", *flags])
            digest.update(f"{rc}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == _BENCH_DIGEST

    def test_selftest_digest(self, capsys):
        rc = main(["selftest"])
        assert hashlib.sha256(f"{rc}\n{capsys.readouterr().out}".encode()).hexdigest() == _SELFTEST_DIGEST


def _tcp_session(sk, pk, transcript) -> int:
    """One prove/verify session over TCP with default seeds on both ends."""
    port = free_port()
    prover_rc = []
    # A daemon: should the verifier never connect, the prover's accept must
    # not keep pytest from reporting the failure and exiting.
    thread = threading.Thread(
        target=lambda: prover_rc.append(main(["prove", "--key", str(sk), "--listen", f"127.0.0.1:{port}"])),
        daemon=True)
    thread.start()
    # The prover accepts exactly one connection, so retry the real session
    # rather than probing the port: a refused connection exits 2.
    argv = ["verify", "--pk", str(pk), "--connect", f"127.0.0.1:{port}", "--transcript-out", str(transcript)]
    deadline = time.monotonic() + 5
    while (rc := main(argv)) == 2 and time.monotonic() < deadline:
        time.sleep(0.05)
    thread.join(timeout=5)
    assert not thread.is_alive() and prover_rc == [0]
    return rc


class TestDefaultRandomness:
    def test_default_keygens_differ(self, tmp_path):
        paths = [tmp_path / f"{i}.key" for i in range(2)]
        for path in paths:
            assert main(["keygen", "--scheme", "owfid", "--out", str(path)]) == 0
        assert paths[0].read_bytes() != paths[1].read_bytes()

    def test_default_sessions_draw_fresh_commitments(self, keyfiles, tmp_path):
        # A repeated owfid commitment with two challenges reveals the secret Q.
        sk, pk = keyfiles
        commitments = []
        for i in range(2):
            transcript = tmp_path / f"{i}.transcript"
            assert _tcp_session(sk, pk, transcript) == 0
            commitments.append(load_transcript(str(transcript))[0].commitment)
        assert commitments[0] != commitments[1]


class TestUsageErrors:
    """Unusable command-line input: one line on stderr and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sigverify", "--pk", "{blsid_pub}", "--message", "m", "--sig", "zz"],
            ["sigverify", "--pk", "{blsid_pub}", "--message", "m", "--sig", "ffff"],
            ["sign", "--key", "{blsid_key}", "--message-hex", "zz"],
            ["sigverify", "--pk", "{sdhid_pub}", "--message", "m", "--sig", "0001", "--r", "zz"],
            ["keygen", "--scheme", "cdhid", "--backend", "tate", "--q", "13", "--out", "{out}"],
            ["bench", "--p", "1000"],
            ["sign", "--key", "{blsid_key}"],
            ["sign", "--key", "{blsid_pub}", "--message", "m"],
            ["prove", "--key", "{blsid_pub}", "--listen", "127.0.0.1:1"],
            ["verify", "--pk", "{blsid_pub}", "--connect", "nohostport"],
            ["sigverify", "--pk", "{sdhid_pub}", "--message", "m", "--sig", "0001"],
            ["bench", "--sessions", "0"],
            ["lab", "--game", "omcdh", "--trials", "-3"],
            ["lab", "--game", "forgery", "--queries", "-1"],
            ["lab", "--game", "forgery", "--p", "5", "--queries", "9"],
            ["lab", "--game", "extractor", "--eps", "nan"],
            ["lab", "--game", "extractor", "--eps", "inf"],
            ["lab", "--game", "extractor", "--eps", "1e-9"],
            ["keygen", "--scheme", "cdhid", "--p", "0", "--out", "{out}"],
            ["keygen", "--scheme", "cdhid", "--backend", "tate", "--q", "0", "--out", "{out}"],
            ["lab", "--game", "forgery", "--p", "0"],
            ["keygen", "--scheme", "cdhid", "--out", "{missing}"],
            ["verify", "--pk", "{blsid_pub}", "--connect", "127.0.0.1:{closed}"],
            ["sign", "--key", "{owfid_key}", "--message", "m"],
            ["sigverify", "--pk", "{owfid_pub}", "--message", "m", "--sig", "0001"],
        ],
        ids=["sig-not-hex", "sig-unreduced", "message-not-hex", "r-not-hex", "q-1-mod-4", "p-composite",
             "sign-no-message", "sign-public-key", "prove-public-key", "connect-no-port", "sigverify-no-r",
             "sessions-zero", "trials-negative", "queries-negative", "queries-over-challenges",
             "eps-nan", "eps-inf", "eps-tiny", "p-zero", "tate-q-zero", "lab-p-zero", "out-missing-dir",
             "connect-refused", "sign-no-signature-scheme", "sigverify-no-signature-scheme"],
    )
    def test_one_line_exit_2(self, argv, tmp_path, capsys):
        names = {"out": str(tmp_path / "new.key"), "missing": str(tmp_path / "missing" / "new.key"),
                 "closed": free_port()}
        for scheme in ("blsid", "sdhid", "owfid"):
            names[f"{scheme}_key"] = str(tmp_path / f"{scheme}.key")
            names[f"{scheme}_pub"] = str(tmp_path / f"{scheme}.pub")
            assert main(["keygen", "--scheme", scheme, "--seed", "cli", "--out", names[f"{scheme}_key"],
                         "--pub-out", names[f"{scheme}_pub"]]) == 0
        capsys.readouterr()
        assert main([arg.format(**names) for arg in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("pairid: ")


class TestOsErrors:
    """An operating-system error ends in one pairid: line and exit 2."""

    def test_pub_out_missing_dir(self, tmp_path, capsys):
        argv = ["keygen", "--scheme", "owfid", "--out", str(tmp_path / "id.key"),
                "--pub-out", str(tmp_path / "missing" / "id.pub")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("pairid: ")
        assert not (tmp_path / "id.key").exists()  # a failed keygen leaves no file behind

    def test_out_is_a_directory(self, tmp_path, capsys):
        # The secret record is written to a temporary file beside --out first;
        # the failed replace removes it.
        (tmp_path / "keys").mkdir()
        assert main(["keygen", "--scheme", "owfid", "--out", str(tmp_path / "keys")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("pairid: ")
        assert list(tmp_path.iterdir()) == [tmp_path / "keys"] and not any((tmp_path / "keys").iterdir())

    def test_listen_port_in_use(self, keyfiles, capsys):
        sk, _ = keyfiles
        with socket.create_server(("127.0.0.1", 0)) as held:
            capsys.readouterr()
            assert main(["prove", "--key", str(sk), "--listen", f"127.0.0.1:{held.getsockname()[1]}"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1 and out.err.startswith("pairid: ")

    def test_transcript_out_missing_dir(self, keyfiles, tmp_path, capsys):
        # Saving the transcript would fail, so no session starts.  Should the
        # verifier connect anyway, nobody answers its hello: a timeout ends its
        # wait, and the listener's backlog shows the connection.
        _, pk = keyfiles
        with socket.create_server(("127.0.0.1", 0)) as server:
            capsys.readouterr()
            socket.setdefaulttimeout(5)
            try:
                rc = main(["verify", "--pk", str(pk), "--connect", f"127.0.0.1:{server.getsockname()[1]}",
                           "--transcript-out", str(tmp_path / "missing" / "t.rec")])
            finally:
                socket.setdefaulttimeout(None)
            server.setblocking(False)
            with pytest.raises(BlockingIOError):  # nobody connected
                server.accept()
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1 and out.err.startswith("pairid: ")
