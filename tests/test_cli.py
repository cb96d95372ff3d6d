import socket
import threading
import time

import pytest

from pairid.cli import main
from pairid.records import load_key, load_transcript


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

    def test_curve_backend_keygen(self, tmp_path):
        out = tmp_path / "curve.key"
        assert main(["keygen", "--scheme", "cdhid", "--backend", "tate", "--q", "59", "--out", str(out)]) == 0
        _, kp, _ = load_key(str(out))
        assert kp.suite.describe()["backend"] == "tate"


class TestProveVerify:
    def test_tcp_session(self, keyfiles, tmp_path):
        sk, pk = keyfiles
        port = free_port()
        transcript = tmp_path / "session.transcript"
        prover_rc = []

        def prove():
            prover_rc.append(main(["prove", "--key", str(sk), "--listen", f"127.0.0.1:{port}"]))

        thread = threading.Thread(target=prove)
        thread.start()
        # the prover accepts exactly one connection, so retry the real session
        # rather than probing the port
        deadline = time.monotonic() + 5
        while True:
            try:
                rc = main(["verify", "--pk", str(pk), "--connect", f"127.0.0.1:{port}",
                           "--transcript-out", str(transcript)])
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        thread.join(timeout=5)
        assert rc == 0 and prover_rc == [0]
        t, _, _ = load_transcript(str(transcript))
        assert t.decision


class TestBadRecords:
    def test_malformed_key_is_a_usage_error(self, keyfiles, capsys):
        # One line on stderr and exit 2, before any socket is opened.
        _, pk = keyfiles
        pk.write_text("".join(ln for ln in pk.read_text().splitlines(True) if not ln.startswith("pk.v")))
        capsys.readouterr()
        assert main(["verify", "--pk", str(pk), "--connect", "127.0.0.1:1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.splitlines() == ["pairid: record has no 'pk.v' field"]


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


def _tcp_session(sk, pk, transcript) -> int:
    """One prove/verify session over TCP with default seeds on both ends."""
    port = free_port()
    prover_rc = []
    thread = threading.Thread(
        target=lambda: prover_rc.append(main(["prove", "--key", str(sk), "--listen", f"127.0.0.1:{port}"])))
    thread.start()
    deadline = time.monotonic() + 5
    while True:
        try:
            rc = main(["verify", "--pk", str(pk), "--connect", f"127.0.0.1:{port}", "--transcript-out", str(transcript)])
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
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
        ],
        ids=["sig-not-hex", "sig-unreduced", "message-not-hex", "r-not-hex", "q-1-mod-4", "p-composite",
             "sign-no-message", "sign-public-key", "prove-public-key", "connect-no-port", "sigverify-no-r"],
    )
    def test_one_line_exit_2(self, argv, tmp_path, capsys):
        names = {"out": str(tmp_path / "new.key")}
        for scheme in ("blsid", "sdhid"):
            names[f"{scheme}_key"] = str(tmp_path / f"{scheme}.key")
            names[f"{scheme}_pub"] = str(tmp_path / f"{scheme}.pub")
            assert main(["keygen", "--scheme", scheme, "--seed", "cli", "--out", names[f"{scheme}_key"],
                         "--pub-out", names[f"{scheme}_pub"]]) == 0
        capsys.readouterr()
        assert main([arg.format(**names) for arg in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("pairid: ")
