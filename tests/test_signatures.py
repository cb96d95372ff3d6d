import hashlib
import random
from itertools import count

import pytest

from pairid import tate
from pairid.algebra import G1Element, GroupSuite, Scalar, transparent_suite
from pairid.primes import _jacobi
from pairid.signatures import (
    DegenerateSuite,
    ExpKeyPair,
    ForgeryGameConfig,
    HashMode,
    HashSpec,
    ModeBackendMismatch,
    bb_keygen,
    bb_sign,
    bb_verify,
    bls_keygen,
    bls_sign,
    bls_verify,
    default_hash_spec,
    forgery_game,
    hash_to_group,
)
from pairid.tate import (
    TateBackend,
    enumerate_and_validate,
    lift_x,
    point_mul,
    suite_from_curve_params,
    tate_suite,
)

from oracles import curve_points
from test_tate import REAL_GEN, REAL_H, REAL_P, REAL_Q


class FakeRng:
    def __init__(self, values):
        self.values = list(values)

    def randrange(self, *args):
        return self.values.pop(0)


class TestHashing:
    def test_test_vector_mode(self, t11):
        spec = HashSpec(HashMode.TEST_VECTOR)
        assert hash_to_group(b"\x07", spec, t11) == t11.g1_from_int(7)
        assert hash_to_group((18).to_bytes(1, "big"), spec, t11) == t11.g1_from_int(7)

    def test_test_vector_needs_transparent(self, c59):
        with pytest.raises(ModeBackendMismatch):
            hash_to_group(b"\x01", HashSpec(HashMode.TEST_VECTOR), c59)

    def test_try_increment_lands_in_subgroup(self, c83):
        spec = HashSpec(HashMode.TRY_INCREMENT)
        seen = set()
        for k in range(30):
            h = hash_to_group(k.to_bytes(2, "big"), spec, c83)
            assert point_mul(c83.p, h.payload, c83.backend.q) is None
            seen.add(h.payload)
        assert len(seen) > 1
        again = hash_to_group((3).to_bytes(2, "big"), spec, c83)
        assert again == hash_to_group((3).to_bytes(2, "big"), spec, c83)

    def test_try_increment_needs_curve(self, t11):
        with pytest.raises(ModeBackendMismatch):
            hash_to_group(b"\x01", HashSpec(HashMode.TRY_INCREMENT), t11)

    def test_default_spec_tracks_backend(self, t11, c59):
        assert default_hash_spec(t11).mode == HashMode.TEST_VECTOR
        assert default_hash_spec(c59).mode == HashMode.TRY_INCREMENT


class TestHashSigned:
    @pytest.mark.parametrize("fixture", ["t1009", "c83"])
    def test_sign_verify(self, fixture, request):
        suite = request.getfixturevalue(fixture)
        kp = bls_keygen(suite, random.Random(1))
        sig = bls_sign(kp, b"\x05")
        assert bls_verify(kp.public(), b"\x05", sig)
        assert not bls_verify(kp.public(), b"\x06", sig)
        other = bls_keygen(suite, random.Random(2))
        assert not bls_verify(other.public(), b"\x05", sig)

    def test_transparent_verify_is_the_hashed_compare(self, t11):
        # Every key, every signature and every 4-bit message at p = 11.
        g = t11.g1
        for x in range(11):
            v = t11.g1_from_int(x)
            pk = ExpKeyPair(t11, None, v)
            for s in range(11):
                sig = t11.g1_from_int(s)
                for m in range(16):
                    expect = t11.pairings_equal(g, sig, v, t11.g1_from_int(m))
                    assert bls_verify(pk, bytes([m]), sig) is expect, (x, s, m)

    def test_keygen_never_zero(self, t11):
        for seed in range(50):
            assert bls_keygen(t11, random.Random(seed)).x != 0


class TestInversionSigned:
    @pytest.mark.parametrize("fixture", ["t1009", "c83"])
    def test_sign_verify(self, fixture, request):
        suite = request.getfixturevalue(fixture)
        kp = bb_keygen(suite, random.Random(1))
        rng = random.Random(2)
        for k in range(5):
            m = suite.scalar(k + 1)
            sig, r = bb_sign(kp, m, rng)
            assert bb_verify(kp.public(), m, sig, r)
            assert not bb_verify(kp.public(), m, sig, r + 1)
            assert not bb_verify(kp.public(), m + 1, sig, r)

    def test_redraw_limit(self, t11):
        kp = bb_keygen(t11, random.Random(1))
        # force the denominator x + m + y*r to vanish on every draw
        m = t11.scalar(3)
        bad_r = int((-(kp.x + m) / kp.y))
        with pytest.raises(DegenerateSuite):
            bb_sign(kp, m, FakeRng([bad_r] * 101))

    def test_signature_matches_inverse_exponent(self, t11):
        kp = bb_keygen(t11, random.Random(4))
        m = t11.scalar(2)
        sig, r = bb_sign(kp, m, random.Random(9))
        denom = kp.x + m + kp.y * r
        assert sig == t11.g1 ** denom.inv()


class TestForgeryGame:
    def test_hopeless_adversary(self, t1009):
        def adv(ctx, rng):
            return b"\x00\x01", ctx.suite.g1_from_int(0)

        report = forgery_game("bls", adv, ForgeryGameConfig(trials=20), t1009)
        assert report.wins == 0
        assert report.advantage == 0.0
        assert report.trials == 20

    def test_dlog_cheat_wins_every_trial(self, t1009):
        # the transparent backend leaks x through the free discrete log
        def adv(ctx, rng):
            x = ctx.suite.discrete_log(ctx.pk.v)
            message = rng.randrange(2 ** 10).to_bytes(2, "big")
            h = ctx.hash(message)
            return message, h ** x

        report = forgery_game("bls", adv, ForgeryGameConfig(trials=25, seed=3), t1009)
        assert report.wins == 25
        assert report.queries["hash"] == 25
        assert report.queries["sign"] == 0

    def test_replayed_query_gets_no_credit(self, t1009):
        def adv(ctx, rng):
            message = b"\x00\x07"
            return message, ctx.sign(message)

        report = forgery_game("bls", adv, ForgeryGameConfig(trials=10), t1009)
        assert report.wins == 0
        assert report.queries["sign"] == 10

    def test_budget_enforced(self, t1009):
        def adv(ctx, rng):
            for k in range(100):
                ctx.sign(k.to_bytes(2, "big"))
            return b"\x01\x00", ctx.suite.g1_from_int(0)

        report = forgery_game("bls", adv, ForgeryGameConfig(q_s=8, trials=5), t1009)
        assert report.wins == 0
        # each trial dies on the ninth call
        assert report.queries["sign"] == 5 * 9

    def test_inversion_scheme_game(self, t1009):
        def adv(ctx, rng):
            suite = ctx.suite
            x = suite.scalar(suite.discrete_log(ctx.pk.u))
            y = suite.scalar(suite.discrete_log(ctx.pk.v))
            m = suite.random_scalar(rng, nonzero=True)
            r = suite.random_scalar(rng)
            denom = x + m + y * r
            if denom == 0:
                r = r + 1
                denom = x + m + y * r
            return m, (suite.g1 ** denom.inv(), r)

        report = forgery_game("bb", adv, ForgeryGameConfig(trials=15, seed=1), t1009)
        assert report.wins == 15

    def test_bb_sign_oracle(self, t1009):
        signed = []

        def adv(ctx, rng):
            m = ctx.suite.random_scalar(rng, nonzero=True)
            sig, r = ctx.sign(m)
            signed.append((ctx.pk, m, sig, r))
            return m, (sig, r)  # the signed message itself: never fresh

        report = forgery_game("bb", adv, ForgeryGameConfig(trials=10, seed=2), t1009)
        assert report.wins == 0
        assert report.queries["sign"] == len(signed) == 10
        assert all(bb_verify(pk, m, sig, r) for pk, m, sig, r in signed)

    @pytest.mark.parametrize("scheme, adv", [
        ("bls", lambda ctx, rng: ctx.sign(5)),
        ("bls", lambda ctx, rng: ctx.hash("text")),
        ("bb", lambda ctx, rng: ctx.sign(b"\x05")),
        ("bb", lambda ctx, rng: (ctx.suite.scalar(3), ctx.suite.g1)),
        ("bls", lambda ctx, rng: (b"\x00\x01", (ctx.suite.g1,))),
        ("bls", lambda ctx, rng: ctx.suite.g1),
        ("bb", lambda ctx, rng: ctx.sign(Scalar(3, 7))),
        ("bls", lambda ctx, rng: (b"m", transparent_suite(1013).g1)),
        ("bb", lambda ctx, rng: (Scalar(3, 7), (ctx.suite.g1, ctx.suite.scalar(1)))),
        ("bls", lambda ctx, rng: ctx.hash(ctx.suite.g1)),
    ], ids=["bls-int-sign", "str-hash", "bb-bytes-sign", "bb-bare-forgery", "bls-tuple-forgery", "no-message",
            "bb-other-modulus-sign", "bls-other-suite-forgery", "bb-other-modulus-forgery", "element-hash"])
    def test_malformed_adversary_loses_its_trials(self, t1009, scheme, adv):
        report = forgery_game(scheme, adv, ForgeryGameConfig(trials=2), t1009)
        assert (report.wins, report.trials, report.queries) == (0, 2, {"sign": 0, "hash": 0})

    def test_unknown_scheme_rejected(self, t1009):
        with pytest.raises(ValueError):
            forgery_game("rsa", lambda ctx, rng: None, ForgeryGameConfig(trials=1), t1009)

    def test_report_line_format(self, t1009):
        report = forgery_game(
            "bls", lambda ctx, rng: (b"\x00\x01", ctx.suite.g1_from_int(0)),
            ForgeryGameConfig(trials=4), t1009,
        )
        line = report.line()
        assert line.startswith("forgery:bls: 0/4 wins")
        assert "hash=0" in line and "sign=0" in line


# SHA-256 over the encoded hash_to_group points of _PIN_MESSAGES, recorded
# while try-and-increment still called lift_x on every x, before the Jacobi
# skip and the candidate generator.
_PIN_MESSAGES = [b"pin %d" % i for i in range(40)]
_PINNED_HASHES = {
    83: "efaddbb2ffbffbab914d8f68f67ee81e8223909af25ce9ac3d74be61e81fb471",
    523: "0b5b1124406042ffba1f7d0cc4bbdd8a3c19a82353a9b4d1b82e1f76ef91b49c",
    "real": "7bf8f5af341b465cf227042530ed126a766cf957c6340ee6d272c1b09c3ec697",
}
_TRY = HashSpec(HashMode.TRY_INCREMENT)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the type must match too
        return type(exc)


def _moved_on(monkeypatch):
    """A bls_verify that also says whether the fold moved on past its first
    hash candidate, which it does exactly when h sends that one to O."""
    drawn = []
    fold = TateBackend._pair_equal_folded

    def counted(self, a, b, c, candidates, *holders):
        def counting():
            for pt in candidates:
                drawn.append(pt)
                yield pt

        return fold(self, a, b, c, counting(), *holders)

    monkeypatch.setattr(TateBackend, "_pair_equal_folded", counted)

    def verify(*args):
        drawn.clear()
        return _outcome(lambda: bls_verify(*args)), len(drawn) > 1

    return verify


class TestTryIncrementPinned:
    @pytest.mark.parametrize("curve", [83, 523, "real"])
    def test_hash_values(self, curve):
        if curve == "real":
            suite = suite_from_curve_params(REAL_Q, REAL_P, REAL_H, REAL_GEN)
        else:
            suite = tate_suite(curve)
        encoded = b"".join(suite.encode_element(hash_to_group(m, _TRY, suite)) for m in _PIN_MESSAGES)
        assert hashlib.sha256(encoded).hexdigest() == _PINNED_HASHES[curve]

    @pytest.mark.parametrize("q", [59, 83, 523])
    def test_jacobi_skip_is_exactly_lift_failure(self, q):
        for x in range(q):
            assert (_jacobi(x * x * x + x, q) == -1) == (lift_x(x, q) is None), x


def _sweep_messages(suite):
    # Twelve messages; some first candidate P' has h * P' = O, so its hash
    # is drawn from a later counter.
    msgs = [b"m%d" % i for i in range(3, 15)]
    h, q = suite.backend.params.h, suite.backend.q
    assert any(point_mul(h, next(tate._try_increment(m, q)), q) is None for m in msgs)
    return msgs


def _falls_back_message(params):
    # A message whose first candidate P' has h * P' = O, so that its hash is
    # drawn from a later counter and bls_verify's fold moves on to it.
    q, h = params.q, params.h
    return next(m for m in (b"fb%d" % i for i in count()) if point_mul(h, next(tate._try_increment(m, q)), q) is None)


class TestCofactorFold:
    """bls_verify on the curve backend, whose fold takes the first hash
    candidate that h does not send to O, against the two-pairing compare
    with the cofactor cleared, exceptions included."""

    @pytest.mark.parametrize("q", [59, 83])
    def test_every_key_cold_and_warm(self, q, monkeypatch):
        params = enumerate_and_validate(q)
        backend = TateBackend(params)
        suite = GroupSuite(backend)
        g, p = suite.g1, suite.p
        msgs = _sweep_messages(suite)
        pts = curve_points(q)
        off = G1Element(suite, next(pt for pt in pts if pt is not None and point_mul(p, pt, q) is not None))
        logs = {point_mul(x, params.gen, q): x for x in range(p)}
        verify = _moved_on(monkeypatch)
        cold_moved_on = {}
        for warm in (False, True):
            moves = [0, 0]
            # Keys of order p and O; a key off the subgroup raises NotOnCurve
            # (tests/test_tate.py::TestSubgroupContract).  off stays a signature.
            for pt in logs:
                v = G1Element(suite, pt)
                for _ in range(2 if warm else 0):  # two uses build v's lines
                    suite.pairing(v, g)
                for m in msgs:
                    hm = hash_to_group(m, _TRY, suite)
                    for sig in (suite.g1_from_int(0), g, g ** 2, off, hm ** logs[pt]):
                        if not warm:
                            v = G1Element(suite, pt)  # cold: the verify is the first use of v
                        got, moved_on = verify(ExpKeyPair(suite, None, v), m, sig)
                        assert got == _outcome(lambda: suite.pairings_equal(g, sig, v, hm)), (pt, m, sig)
                        # A key moves on cold, on its live walk, exactly where
                        # it moves on warm, on its stored lines.
                        assert cold_moved_on.setdefault((pt, m, sig), moved_on) == moved_on, (pt, m, sig)
                        moves[moved_on] += 1
            assert all(moves)

    def test_charges_two_pairings_on_both_paths(self, monkeypatch):
        params = enumerate_and_validate(523)
        falls_back = _falls_back_message(params)
        assert falls_back == b"fb1"
        verify = _moved_on(monkeypatch)
        multiples = []
        monkeypatch.setattr(tate, "point_mul", lambda k, *args: multiples.append(k) or point_mul(k, *args))
        # Each key verifies both messages twice, one of them first: cold (v's
        # first use), while building v's lines (its second), then warm.
        for msgs in ((b"counted", falls_back), (falls_back, b"counted")):
            suite = GroupSuite(TateBackend(params), counted=True)
            kp = bls_keygen(suite, random.Random("counted fold"))
            for m in msgs + msgs:
                sig = bls_sign(kp, m)
                suite.counter.reset()
                multiples.clear()
                with suite.role("verifier"):
                    assert verify(kp.public(), m, sig) == (True, m == falls_back), m
                assert params.h not in multiples, m  # no candidate is multiplied by h
                assert suite.counter.pairings == {"prover": 0, "verifier": 2}
                assert suite.counter.g1_exp == {"prover": 0, "verifier": 0}
                assert suite.counter.g2_exp == {"prover": 0, "verifier": 0}

    def test_one_table_use_per_verify(self, monkeypatch):
        # v is used once per verify, as in the two-pairing compare, whether
        # or not the fold moves on: its first verify marks its holder with
        # no table, its second builds its lines; g has its lines from the
        # first.
        params = enumerate_and_validate(523)
        other = GroupSuite(TateBackend(params))
        kp = bls_keygen(other, random.Random("table use"))
        falls_back = _falls_back_message(params)
        verify = _moved_on(monkeypatch)
        for msgs in ((b"first", falls_back), (falls_back, b"first")):
            folded = GroupSuite(TateBackend(params))
            plain = GroupSuite(TateBackend(params))
            v_folded, v_plain = G1Element(folded, kp.v.payload), G1Element(plain, kp.v.payload)
            for m, built in zip(msgs + msgs, (0, 1, 1, 1)):
                sig = bls_sign(kp, m)
                s = G1Element(folded, sig.payload)
                assert verify(ExpKeyPair(folded, None, v_folded), m, s) == (True, m == falls_back), m
                s = G1Element(plain, sig.payload)
                assert plain.pairings_equal(plain.g1, s, v_plain, hash_to_group(m, _TRY, plain))
                for suite, v in ((folded, v_folded), (plain, v_plain)):
                    lines = suite.backend._lines
                    assert list(v.tables) == [lines] * built, m
                    assert lines in suite.g1.tables, m
