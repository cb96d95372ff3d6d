import random
from dataclasses import fields

import pytest

from pairid.algebra import KIND_ZP, Scalar, transparent_suite
from pairid.schemes import (
    SCHEMES,
    BadChallengeLength,
    IdentityChallenge,
    OwfidKeyPair,
    ProtocolViolation,
    ProverMachine,
    SchemeId,
    SclKeyPair,
    VerifierMachine,
    ZeroChallenge,
    ZeroExponent,
    blsid_respond,
    blsid_verify,
    blsid_verify_point,
    cdhid_respond,
    cdhid_verify,
    default_scheme_params,
    hls_commit,
    hls_respond,
    hls_verify,
    keygen,
    owfid_commit,
    owfid_keygen,
    owfid_respond,
    owfid_verify,
    replay_decision,
    run_session,
    scl_commit,
    scl_keygen,
    scl_respond,
    scl_verify,
    sdhid_respond,
    sdhid_verify,
    HlsKeyPair,
)
from pairid.signatures import BbKeyPair, ExpKeyPair, HashMode

ALL_SCHEMES = list(SchemeId)


class FakeRng:
    """Plays back a queue of randrange results."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, *args):
        return self.values.pop(0)


# -- worked vectors mod 11 (recomputed in integer arithmetic; see oracles) -----


class TestWorkedVectors:
    def test_cdhid(self, t11):
        kp = ExpKeyPair(t11, t11.scalar(4), t11.g1_from_int(4))
        h = t11.g1_from_int(3)
        sigma = cdhid_respond(kp, h)
        assert sigma == t11.g1_from_int(1)  # 3 * 4 = 12 = 1 (mod 11)
        assert cdhid_verify(kp.public(), h, sigma)
        assert not cdhid_verify(kp.public(), h, sigma * t11.g1)
        with pytest.raises(IdentityChallenge):
            cdhid_respond(kp, t11.g1_identity())
        with pytest.raises(IdentityChallenge):
            cdhid_verify(kp.public(), t11.g1_identity(), sigma)

    def test_blsid(self, t11):
        kp = ExpKeyPair(t11, t11.scalar(4), t11.g1_from_int(4))
        params = default_scheme_params(t11)
        assert params.n == 4
        message = (7).to_bytes(1, "big")
        sigma = blsid_respond(kp, message, params)
        assert sigma == t11.g1_from_int(6)  # H(7) = g^7, 7 * 4 = 28 = 6
        assert blsid_verify(kp.public(), message, sigma, params)
        assert not blsid_verify(kp.public(), (8).to_bytes(1, "big"), sigma, params)

    def test_blsid_challenge_length(self, t11):
        kp = ExpKeyPair(t11, t11.scalar(4), t11.g1_from_int(4))
        params = default_scheme_params(t11)
        with pytest.raises(BadChallengeLength):
            blsid_respond(kp, b"\x00\x07", params)  # two bytes for 4 bits
        with pytest.raises(BadChallengeLength):
            blsid_respond(kp, b"\x10", params)  # 16 does not fit in 4 bits

    def test_blsid_point_form(self, t11):
        kp = ExpKeyPair(t11, t11.scalar(4), t11.g1_from_int(4))
        for k in range(11):
            h = t11.g1_from_int(k)
            assert blsid_verify_point(kp.public(), h, h ** 4)
            if k:
                assert not blsid_verify_point(kp.public(), h, h ** 5)

    def test_sdhid_with_redraw(self, t11):
        kp = BbKeyPair(t11, t11.scalar(2), t11.scalar(3), t11.g1_from_int(2), t11.g1_from_int(3), t11.g2)
        m = t11.scalar(4)
        # r = 9 collides: 2 + 4 + 3*9 = 33 = 0 (mod 11); the next draw lands
        counter = type("C", (), {"redraws": 0})()
        sigma, r = sdhid_respond(kp, m, FakeRng([9, 5]), counter)
        assert r == 5
        assert counter.redraws == 1
        assert sigma == t11.g1_from_int(10)  # 1/(2 + 4 + 15) = 1/10 = 10
        assert sdhid_verify(kp.public(), m, sigma, r)
        assert not sdhid_verify(kp.public(), m, sigma, r + 1)
        with pytest.raises(ZeroChallenge):
            sdhid_respond(kp, t11.scalar(0), FakeRng([1]))
        with pytest.raises(ZeroChallenge):
            sdhid_verify(kp.public(), t11.scalar(0), sigma, r)

    def test_owfid(self, t11):
        kp = OwfidKeyPair(
            t11,
            P=t11.g1_from_int(2),
            y=t11.g2_from_int(5),
            Q=t11.g1_from_int(3),
            s=t11.scalar(4),
            v=t11.g2_from_int(7),
        )
        # key equation: v = (e(P, Q) * y^s)^-1 = g2^-(2*3 + 5*4) = g2^7
        assert (t11.pairing(kp.P, kp.Q) * kp.y ** kp.s).inverse() == kp.v
        state = (t11.g1_from_int(1), t11.scalar(2))
        x = t11.pairing(kp.P, state[0]) * kp.y ** state[1]
        assert x == t11.g2_from_int(1)
        for m, expect_T, expect_a in [(3, 10, 3), (5, 5, 0)]:
            T, a = owfid_respond(kp, state, t11.scalar(m))
            assert T == t11.g1_from_int(expect_T)
            assert a == expect_a
            assert owfid_verify(kp.public(), x, t11.scalar(m), T, a)
            assert not owfid_verify(kp.public(), x, t11.scalar(m), T, a + 1)
        with pytest.raises(ZeroChallenge):
            owfid_respond(kp, state, t11.scalar(0))

    def test_scl(self, t11):
        kp = SclKeyPair(t11, t11.g1, t11.scalar(4), t11.g1_from_int(4), t11.g2)
        tau = kp.g ** 2
        sigma = scl_respond(kp, t11.scalar(2), t11.scalar(3))
        assert sigma == t11.g1_from_int(4)  # 1/(4*3 + 2) = 1/3 = 4
        assert scl_verify(kp.public(), tau, t11.scalar(3), sigma)
        assert not scl_verify(kp.public(), tau, t11.scalar(3), sigma * t11.g1)
        # 4*1 + 7 = 11 = 0: this (commitment, challenge) pair has no answer
        with pytest.raises(ZeroExponent):
            scl_respond(kp, t11.scalar(7), t11.scalar(1))
        with pytest.raises(ZeroChallenge):
            scl_respond(kp, t11.scalar(2), t11.scalar(0))
        with pytest.raises(ZeroChallenge):
            scl_verify(kp.public(), tau, t11.scalar(0), sigma)

    def test_hls(self, t11):
        kp = HlsKeyPair(
            t11,
            P=t11.g1_from_int(2),
            Q=t11.g1_from_int(2),
            z=t11.g2_from_int(4),
            v=t11.g2_from_int(4),
        )
        w = kp.z ** 5
        assert w == t11.g2_from_int(9)
        sigma = hls_respond(kp, t11.scalar(5), t11.scalar(2))
        assert sigma == t11.g1_from_int(3)  # 2*5 + 2*2 = 14 = 3
        assert hls_verify(kp.public(), w, t11.scalar(2), sigma)
        assert not hls_verify(kp.public(), w, t11.scalar(2), sigma * t11.g1)
        with pytest.raises(ZeroChallenge):
            hls_respond(kp, t11.scalar(5), t11.scalar(0))


class TestKeygen:
    def test_key_equations_transparent(self, t1009, rng):
        for _ in range(20):
            o = owfid_keygen(t1009, rng)
            assert not o.P.is_identity and not o.y.is_identity
            assert (t1009.pairing(o.P, o.Q) * o.y ** o.s).inverse() == o.v
            s = scl_keygen(t1009, rng)
            assert not s.g.is_identity
            assert s.v == s.g ** s.x
            assert s.z == t1009.pairing(s.g, s.g)

    def test_key_equations_curve(self, c83, rng):
        o = owfid_keygen(c83, rng)
        assert (c83.pairing(o.P, o.Q) * o.y ** o.s).inverse() == o.v
        kp = keygen(SchemeId.HLS, c83, rng)
        assert kp.z == c83.pairing(kp.P, kp.P)
        assert kp.v == c83.pairing(kp.P, kp.Q)

    def test_dispatch_types(self, t11, rng):
        assert isinstance(keygen(SchemeId.BLSID, t11, rng), ExpKeyPair)
        assert isinstance(keygen(SchemeId.CDHID, t11, rng), ExpKeyPair)
        assert isinstance(keygen(SchemeId.SDHID, t11, rng), BbKeyPair)
        assert isinstance(keygen("owfid", t11, rng), OwfidKeyPair)
        assert isinstance(keygen("scl", t11, rng), SclKeyPair)
        assert isinstance(keygen("hls", t11, rng), HlsKeyPair)

    def test_public_halves_drop_secrets(self, t11, rng):
        secret_names = {
            SchemeId.BLSID: ("x",),
            SchemeId.CDHID: ("x",),
            SchemeId.SDHID: ("x", "y"),
            SchemeId.OWFID: ("Q", "s"),
            SchemeId.SCL: ("x",),
            SchemeId.HLS: ("Q",),
        }
        for scheme, names in secret_names.items():
            pk = keygen(scheme, t11, rng).public()
            assert all(getattr(pk, name) is None for name in names)


class TestSessions:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_honest_sessions_accept_transparent(self, scheme, t1009):
        kp = keygen(scheme, t1009, random.Random(7))
        for seed in range(10):
            t = run_session(scheme, kp, t1009, seed=seed)
            assert t.decision
            assert replay_decision(t, kp.public())

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_honest_sessions_accept_curve(self, scheme, c59):
        kp = keygen(scheme, c59, random.Random(7))
        for seed in range(3):
            assert run_session(scheme, kp, c59, seed=seed).decision

    def test_session_determinism(self, t1009):
        kp = keygen(SchemeId.OWFID, t1009, random.Random(3))
        a = run_session(SchemeId.OWFID, kp, t1009, seed="fixed")
        b = run_session(SchemeId.OWFID, kp, t1009, seed="fixed")
        assert (a.commitment, a.challenge, a.response) == (b.commitment, b.challenge, b.response)
        c = run_session(SchemeId.OWFID, kp, t1009, seed="other")
        assert (a.commitment, a.challenge) != (c.commitment, c.challenge)

    def test_scl_restarts_and_still_accepts(self):
        # At p = 5 roughly one session in five needs a fresh commitment.
        suite = transparent_suite(5)
        kp = scl_keygen(suite, random.Random(1))
        outcomes = [run_session(SchemeId.SCL, kp, suite, seed=seed) for seed in range(60)]
        assert all(t.decision for t in outcomes)
        assert any(t.restarts > 0 for t in outcomes)
        assert any(t.restarts == 0 for t in outcomes)

    def test_restart_keeps_costs_of_final_run_only(self):
        suite = transparent_suite(5, counted=True)
        kp = scl_keygen(suite, random.Random(1))
        baseline = None
        for seed in range(60):
            suite.counter.reset()
            t = run_session(SchemeId.SCL, kp, suite, seed=seed)
            snap = suite.counter.snapshot()
            if baseline is None:
                baseline = snap
            assert snap == baseline  # identical whether or not a restart happened
            if t.restarts:
                assert suite.counter.redraws >= 1

    def test_tampered_transcript_replays_false(self, t1009):
        kp = keygen(SchemeId.HLS, t1009, random.Random(5))
        t = run_session(SchemeId.HLS, kp, t1009, seed=1)
        t.response = (t.response[0] * t1009.g1,)
        assert not replay_decision(t, kp.public())


class TestMachines:
    def test_two_message_flow(self, t11):
        kp = keygen(SchemeId.CDHID, t11, random.Random(2))
        prover = ProverMachine(SchemeId.CDHID, kp, rng=random.Random(3))
        verifier = VerifierMachine(SchemeId.CDHID, kp.public(), rng=random.Random(4))
        assert prover.start() is None
        challenge = verifier.start()
        response = prover.on_challenge(challenge)
        assert verifier.on_response(response)

    def test_three_message_flow(self, t11):
        kp = keygen(SchemeId.SCL, t11, random.Random(2))
        prover = ProverMachine(SchemeId.SCL, kp, rng=random.Random(3))
        verifier = VerifierMachine(SchemeId.SCL, kp.public(), rng=random.Random(4))
        commitment = prover.start()
        challenge = verifier.on_commitment(commitment)
        try:
            response = prover.on_challenge(challenge)
        except ZeroExponent:
            pytest.skip("unlucky draw for this fixed seed")
        assert verifier.on_response(response)

    def test_forced_challenge(self, t11):
        kp = keygen(SchemeId.SDHID, t11, random.Random(2))
        forced = (t11.scalar(6),)
        verifier = VerifierMachine(SchemeId.SDHID, kp.public(), forced_challenge=forced)
        assert verifier.start() == forced

    def test_out_of_order_messages(self, t11):
        kp = keygen(SchemeId.OWFID, t11, random.Random(2))
        prover = ProverMachine(SchemeId.OWFID, kp)
        with pytest.raises(ProtocolViolation):
            prover.on_challenge((t11.scalar(1),))
        prover.start()
        with pytest.raises(ProtocolViolation):
            prover.start()
        verifier = VerifierMachine(SchemeId.OWFID, kp.public())
        with pytest.raises(ProtocolViolation):
            verifier.start()  # three-message scheme: must wait for commitment
        with pytest.raises(ProtocolViolation):
            verifier.on_response((t11.g1, t11.scalar(1)))

    def test_two_message_has_no_commitment(self, t11):
        kp = keygen(SchemeId.CDHID, t11, random.Random(2))
        verifier = VerifierMachine(SchemeId.CDHID, kp.public())
        with pytest.raises(ProtocolViolation):
            verifier.on_commitment(())

    def test_wrong_field_counts(self, t11):
        kp = keygen(SchemeId.OWFID, t11, random.Random(2))
        prover = ProverMachine(SchemeId.OWFID, kp, rng=random.Random(0))
        prover.start()
        with pytest.raises(ProtocolViolation):
            prover.on_challenge((t11.scalar(1), t11.scalar(2)))
        verifier = VerifierMachine(SchemeId.OWFID, kp.public(), rng=random.Random(0))
        with pytest.raises(ProtocolViolation):
            verifier.on_commitment((t11.g2, t11.g2))

    def test_registry_shapes(self, t11, rng):
        params = default_scheme_params(t11)
        for scheme, ops in SCHEMES.items():
            ch = ops.sample_challenge(t11, params, rng)
            assert len(ch) == len(ops.challenge_fields)
            assert ops.three_message == (ops.commit is not None)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_keypair_declares_its_layout(self, scheme, t11):
        # PUBLIC and SECRET name every field after the suite, with its kind.
        ops = SCHEMES[scheme]
        kp = ops.keygen(t11, random.Random(3))
        assert type(kp) is ops.keypair
        layout = ops.keypair.PUBLIC + ops.keypair.SECRET
        assert sorted(name for name, _ in layout) == sorted(f.name for f in fields(kp) if f.name != "suite")
        for name, kind in layout:
            value = getattr(kp, name)
            assert (KIND_ZP if isinstance(value, Scalar) else value.kind) == kind
        pk = kp.public()
        assert kp.has_secret and not pk.has_secret
        assert pk.suite is kp.suite
        assert all(getattr(pk, name) is getattr(kp, name) for name, _ in ops.keypair.PUBLIC)


class TestCosts:
    def test_owfid_costs_by_role(self):
        suite = transparent_suite(1009, counted=True)
        kp = owfid_keygen(suite, random.Random(1))
        run_session(SchemeId.OWFID, kp, suite, seed=2)
        snap = suite.counter.snapshot()
        assert snap["g1_exp"] == {"prover": 1, "verifier": 0}
        assert snap["g2_exp"] == {"prover": 1, "verifier": 2}
        assert snap["pairings"] == {"prover": 1, "verifier": 1}
        # bandwidth: one g2 commitment, one scalar challenge, g1 + scalar response
        assert snap["sent_elems"] == {"g1": 1, "g2": 1, "zp": 2, "nbits": 0}

    def test_commit_helpers_return_state_and_value(self, t11, rng):
        okp = owfid_keygen(t11, rng)
        (R, r), x = owfid_commit(okp, rng)
        assert t11.pairing(okp.P, R) * okp.y ** r == x
        skp = scl_keygen(t11, rng)
        w, tau = scl_commit(skp, rng)
        assert skp.g ** w == tau
        hkp = keygen(SchemeId.HLS, t11, rng)
        r2, w2 = hls_commit(hkp, rng)
        assert hkp.z ** r2 == w2
