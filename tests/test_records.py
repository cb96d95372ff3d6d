import random
import re

import pytest

from pairid.records import (
    RecordError,
    load_key,
    load_transcript,
    save_key,
    save_report,
    save_transcript,
)
from pairid.schemes import SchemeId, default_scheme_params, keygen, replay_decision, run_session
from pairid.signatures import ForgeryGameConfig, forgery_game

ALL_SCHEMES = list(SchemeId)


class TestKeyRecords:
    @pytest.mark.parametrize("fixture", ["t1009", "c59"])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_round_trip(self, scheme, fixture, request, tmp_path):
        suite = request.getfixturevalue(fixture)
        kp = keygen(scheme, suite, random.Random(5))
        params = default_scheme_params(suite)
        path = tmp_path / "key.txt"
        save_key(path, scheme, kp, params)
        got_scheme, got_kp, got_params = load_key(path)
        assert got_scheme == scheme
        assert got_params == params
        assert got_kp.suite.describe() == suite.describe()
        # the reloaded secret key must still drive accepting sessions
        assert run_session(scheme, got_kp, got_kp.suite, seed=8).decision

    def test_public_only_round_trip(self, t1009, tmp_path):
        kp = keygen(SchemeId.OWFID, t1009, random.Random(5))
        t = run_session(SchemeId.OWFID, kp, t1009, seed=1)
        path = tmp_path / "pub.txt"
        save_key(path, SchemeId.OWFID, kp.public(), default_scheme_params(t1009), include_secret=False)
        _, pk, _ = load_key(path)
        assert pk.Q is None and pk.s is None
        assert replay_decision(t, pk)

    def test_saving_public_key_as_secret_fails(self, t1009, tmp_path):
        kp = keygen(SchemeId.SCL, t1009, random.Random(5))
        with pytest.raises(RecordError):
            save_key(tmp_path / "x.txt", SchemeId.SCL, kp.public(), default_scheme_params(t1009))

    def test_partial_secret_rejected(self, t1009, tmp_path):
        kp = keygen(SchemeId.SDHID, t1009, random.Random(5))
        path = tmp_path / "key.txt"
        save_key(path, SchemeId.SDHID, kp, default_scheme_params(t1009))
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("sk.y")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordError, match="partial"):
            load_key(path)

    def test_malformed_records(self, t1009, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("")
        with pytest.raises(RecordError):
            load_key(path)
        path.write_text("pairid-record key v2\n")
        with pytest.raises(RecordError):
            load_key(path)
        path.write_text("pairid-record key v1\nscheme = blsid\nscheme = blsid\n")
        with pytest.raises(RecordError, match="duplicate"):
            load_key(path)
        path.write_text("pairid-record key v1\nnot a field line\n")
        with pytest.raises(RecordError):
            load_key(path)

    def test_key_of_another_scheme_rejected(self, t1009, tmp_path):
        # An sdhid keypair has a field v too; saving it as cdhid would write
        # v = g^y next to x, a key no session accepts.
        kp = keygen(SchemeId.SDHID, t1009, random.Random(5))
        with pytest.raises(RecordError, match="cdhid"):
            save_key(tmp_path / "x.txt", SchemeId.CDHID, kp, default_scheme_params(t1009))

    def test_pinned_owfid_text(self, t1009, tmp_path):
        kp = keygen(SchemeId.OWFID, t1009, random.Random(1))
        params = default_scheme_params(t1009)
        public = [
            "pairid-record key v1",
            "scheme = owfid",
            "backend = transparent",
            "p = 1009",
            "n = 10",
            "hash.mode = test-vector",
            "hash.key = ",
            "pk.P = 0089",
            "pk.y = 0246",
            "pk.v = 02d7",
        ]
        save_key(tmp_path / "sk.txt", SchemeId.OWFID, kp, params)
        save_key(tmp_path / "pk.txt", SchemeId.OWFID, kp.public(), params, include_secret=False)
        assert (tmp_path / "sk.txt").read_text() == "\n".join(public + ["sk.Q = 0363", "sk.s = 0335"]) + "\n"
        assert (tmp_path / "pk.txt").read_text() == "\n".join(public) + "\n"

    def test_comments_and_blank_lines_ignored(self, t1009, tmp_path):
        kp = keygen(SchemeId.BLSID, t1009, random.Random(5))
        path = tmp_path / "key.txt"
        save_key(path, SchemeId.BLSID, kp, default_scheme_params(t1009))
        path.write_text("# a note\n\n" + path.read_text())
        scheme, _, _ = load_key(path)
        assert scheme == SchemeId.BLSID


def _edit(text: str, name: str, value: str | None) -> str:
    """The record text with field `name` set to value, or dropped for None."""
    lines = [ln for ln in text.splitlines() if ln.split(" = ")[0] != name]
    if value is not None:
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


class TestMalformedFields:
    """Every malformed field is a RecordError that names it."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("scheme", None),
            ("n", None),
            ("pk.v", None),
            ("pk.v", "zz"),
            ("sk.x", "0"),
            ("scheme", "nosuch"),
            ("hash.mode", "nosuch"),
            ("hash.key", "xyz"),
            ("n", "ten"),
            ("p", "1O09"),
            ("p", "1001"),
            ("pk.v", "ffff"),
        ],
    )
    def test_key_record(self, name, value, t1009, tmp_path):
        kp = keygen(SchemeId.CDHID, t1009, random.Random(5))
        path = tmp_path / "key.txt"
        save_key(path, SchemeId.CDHID, kp, default_scheme_params(t1009))
        path.write_text(_edit(path.read_text(), name, value))
        with pytest.raises(RecordError, match=re.escape(repr(name))):
            load_key(path)

    @pytest.mark.parametrize("name, value", [("q", "0"), ("p", "4"), ("gen", "35,31,1")])
    def test_curve_fields(self, name, value, c59, tmp_path):
        kp = keygen(SchemeId.CDHID, c59, random.Random(5))
        path = tmp_path / "key.txt"
        save_key(path, SchemeId.CDHID, kp, default_scheme_params(c59))
        path.write_text(_edit(path.read_text(), name, value))
        with pytest.raises(RecordError, match="curve fields"):
            load_key(path)

    @pytest.mark.parametrize(
        "name, value",
        [("commitment", None),("response", "00"), ("challenge", "0g"), ("decision", None), ("p", "7a")],
    )
    def test_transcript_record(self, name, value, t1009, tmp_path):
        kp = keygen(SchemeId.SCL, t1009, random.Random(6))
        params = default_scheme_params(t1009)
        path = tmp_path / "transcript.txt"
        save_transcript(path, run_session(SchemeId.SCL, kp, t1009, seed=1), t1009, params)
        path.write_text(_edit(path.read_text(), name, value))
        with pytest.raises(RecordError, match=re.escape(repr(name))):
            load_transcript(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(RecordError, match="cannot read"):
            load_key(tmp_path / "absent.txt")


class TestTranscriptRecords:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_round_trip(self, scheme, t1009, tmp_path):
        kp = keygen(scheme, t1009, random.Random(6))
        params = default_scheme_params(t1009)
        t = run_session(scheme, kp, t1009, seed=12)
        path = tmp_path / "transcript.txt"
        save_transcript(path, t, t1009, params)
        got, suite, got_params = load_transcript(path)
        assert got.scheme == scheme
        assert got.decision == t.decision
        assert got.rng_seed == "12"
        assert got.commitment == t.commitment
        assert got.challenge == t.challenge
        assert got.response == t.response
        assert replay_decision(got, kp.public(), got_params) == t.decision

    def test_wrong_kind_rejected(self, t1009, tmp_path):
        kp = keygen(SchemeId.HLS, t1009, random.Random(6))
        path = tmp_path / "key.txt"
        save_key(path, SchemeId.HLS, kp, default_scheme_params(t1009))
        with pytest.raises(RecordError, match="transcript"):
            load_transcript(path)

    def test_curve_transcript_round_trip(self, c83, tmp_path):
        kp = keygen(SchemeId.SCL, c83, random.Random(6))
        params = default_scheme_params(c83)
        t = run_session(SchemeId.SCL, kp, c83, seed=2)
        path = tmp_path / "transcript.txt"
        save_transcript(path, t, c83, params)
        got, suite, _ = load_transcript(path)
        assert suite.describe() == c83.describe()
        assert got.decision == t.decision


class TestReports:
    def test_saved_report_is_parseable(self, t1009, tmp_path):
        report = forgery_game(
            "bls",
            lambda ctx, rng: (b"\x00\x01", ctx.suite.g1_identity()),
            ForgeryGameConfig(trials=3),
            t1009,
        )
        path = tmp_path / "report.txt"
        save_report(path, report)
        text = path.read_text()
        assert text.startswith("pairid-record report v1\n")
        assert "game = forgery:bls" in text
        assert "trials = 3" in text
        assert "query.sign = 0" in text
