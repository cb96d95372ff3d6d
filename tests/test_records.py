import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairid import algebra, tate
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


def _no_primality_test(n):
    raise AssertionError("a record field reached the primality test")


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
            ("hash.mode", "try-increment"),
            ("hash.mode", "pseudorandom"),
            ("n", "-3"),
            ("n", "70000"),
            ("n", "11"),
            ("hash.key", "00"),
        ],
    )
    def test_key_record(self, name, value, t1009, tmp_path):
        kp = keygen(SchemeId.CDHID, t1009, random.Random(5))
        path = tmp_path / "key.txt"
        save_key(path, SchemeId.CDHID, kp, default_scheme_params(t1009))
        path.write_text(_edit(path.read_text(), name, value))
        with pytest.raises(RecordError, match=re.escape(repr(name))):
            load_key(path)

    @pytest.mark.parametrize("name, value", [("q", "0"), ("p", "4"), ("gen", "35,31,1"), ("gen", "5")])
    def test_curve_fields(self, name, value, c59, tmp_path):
        kp = keygen(SchemeId.CDHID, c59, random.Random(5))
        path = tmp_path / "key.txt"
        save_key(path, SchemeId.CDHID, kp, default_scheme_params(c59))
        path.write_text(_edit(path.read_text(), name, value))
        with pytest.raises(RecordError, match="curve fields"):
            load_key(path)

    @pytest.mark.parametrize("fixture, name", [("t1009", "p"), ("c59", "p"), ("c59", "q")])
    def test_wide_numbers_refused_before_primality(self, fixture, name, request, tmp_path, monkeypatch):
        # 2^11213 - 1 is prime, and testing it takes seconds.
        suite = request.getfixturevalue(fixture)
        kp = keygen(SchemeId.CDHID, suite, random.Random(5))
        path = tmp_path / "key.txt"
        save_key(path, SchemeId.CDHID, kp, default_scheme_params(suite))
        path.write_text(_edit(path.read_text(), name, str(2**11213 - 1)))
        for module in (algebra, tate):
            monkeypatch.setattr(module, "is_prime", _no_primality_test)
        with pytest.raises(RecordError, match=re.escape(repr(name)) + ".*wider than 1024"):
            load_key(path)

    @pytest.mark.parametrize(
        "name, value",
        [("commitment", None),("response", "00"), ("challenge", "0g"), ("decision", None), ("p", "7a"),
         ("decision", "maybe"), ("decision", ""), ("decision", "ACCEPT")],
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


@pytest.fixture(scope="module")
def saved_records(tmp_path_factory, c59):
    """(loader, text) of a saved owfid key and transcript on t1009 and c59,
    and a path to write a mutated record to."""
    folder = tmp_path_factory.mktemp("records")
    records = []
    for suite in (algebra.transparent_suite(1009), c59):
        kp = keygen(SchemeId.OWFID, suite, random.Random(5))
        save_key(folder / "key.txt", SchemeId.OWFID, kp, default_scheme_params(suite))
        t = run_session(SchemeId.OWFID, kp, suite, seed=1)
        save_transcript(folder / "transcript.txt", t, suite, default_scheme_params(suite))
        records += [(load_key, (folder / "key.txt").read_text()),
                    (load_transcript, (folder / "transcript.txt").read_text())]
    return records, folder / "mutated.txt"


# Short texts of digits, hex, commas and "-": a small integer or a hex
# string, alone or in a comma list.
_TOKEN = st.one_of(st.integers(-9, 99).map(str), st.text("0123456789abcdef-", max_size=6))
_VALUE = st.one_of(_TOKEN, st.lists(_TOKEN, max_size=3).map(",".join))


def _mutations(text: str, data) -> list:
    """text with each line in turn given a new value, and with one line
    dropped, one duplicated, two swapped and one character changed."""
    lines = text.splitlines()

    def join(edited):
        return "\n".join(edited) + "\n"

    out = [join(lines[:i] + [f"{line.split(' = ')[0]} = {data.draw(_VALUE)}"] + lines[i + 1 :])
           for i, line in enumerate(lines)]
    index = st.integers(0, len(lines) - 1)
    i, j = data.draw(index), data.draw(index)
    swapped = list(lines)
    swapped[i], swapped[j] = lines[j], lines[i]
    out += [join(lines[:i] + lines[i + 1 :]), join(lines[: i + 1] + lines[i:]), join(swapped)]
    k = data.draw(st.integers(0, len(text) - 1))
    out.append(text[:k] + data.draw(st.characters(max_codepoint=255)) + text[k + 1 :])
    return out


class TestRecordFuzz:
    @given(data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_mutated_records_load_or_raise_record_error(self, saved_records, data):
        records, path = saved_records
        load, text = data.draw(st.sampled_from(records))
        for mutated in _mutations(text, data):
            path.write_bytes(mutated.encode("utf-8"))
            try:
                load(path)
            except RecordError:
                pass


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
        assert replay_decision(got, kp.public()) == t.decision

    @pytest.mark.parametrize("seed", ["a\nb", "x\ndecision = accept", "a\rb", "a\x0bb", " padded ", "tab\t", "caf\xe9"])
    def test_seed_a_record_cannot_hold_is_refused(self, seed, t1009, tmp_path):
        kp = keygen(SchemeId.SCL, t1009, random.Random(6))
        t = run_session(SchemeId.SCL, kp, t1009, seed=seed)
        path = tmp_path / "transcript.txt"
        with pytest.raises(RecordError, match="'seed'"):
            save_transcript(path, t, t1009, default_scheme_params(t1009))
        assert not path.exists()

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
