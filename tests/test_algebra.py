import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairid.algebra import (
    KIND_BITS,
    KIND_G1,
    KIND_ZP,
    CostCounter,
    GroupSuite,
    MalformedEncoding,
    Scalar,
    ZeroInverse,
    scalar_width,
    transparent_suite,
)

from oracles import inverse_mod

# Recomputed with extended Euclid (see oracles.inverse_mod).
INV_MOD_11 = {1: 1, 2: 6, 3: 4, 4: 3, 5: 9, 6: 2, 7: 8, 8: 7, 9: 5, 10: 10}


class TestScalar:
    def test_inverse_table_mod_11(self):
        for a, expect in INV_MOD_11.items():
            assert Scalar(a, 11).inv() == expect

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroInverse):
            Scalar(0, 11).inv()
        with pytest.raises(ZeroInverse):
            Scalar(5, 11) / 0

    def test_operator_arithmetic(self):
        a = Scalar(7, 11)
        b = Scalar(9, 11)
        assert a + b == 5
        assert a - b == 9
        assert b - a == 2
        assert a * b == 8
        assert -a == 4
        assert a / b == 7 * INV_MOD_11[9] % 11
        assert 3 + a == 10
        assert 3 - a == 7
        assert int(a) == 7

    def test_mixed_modulus_rejected(self):
        with pytest.raises(ValueError):
            Scalar(1, 11) + Scalar(1, 13)

    def test_reduction_on_construction(self):
        assert Scalar(25, 11) == 3
        assert Scalar(-1, 11) == 10

    def test_hash_and_set_membership(self):
        assert len({Scalar(3, 11), Scalar(14, 11), Scalar(3, 13)}) == 2

    @given(a=st.integers(0, 1008), b=st.integers(0, 1008), c=st.integers(0, 1008))
    @settings(max_examples=60, deadline=None)
    def test_field_laws(self, a, b, c):
        p = 1009
        sa, sb, sc = Scalar(a, p), Scalar(b, p), Scalar(c, p)
        assert (sa + sb) + sc == sa + (sb + sc)
        assert sa * (sb + sc) == sa * sb + sa * sc
        assert sa + (-sa) == 0
        if a % p:
            assert sa * sa.inv() == 1
            assert sa.inv() == inverse_mod(a, p)


class TestSuiteBasics:
    def test_small_or_composite_modulus_rejected(self):
        for bad in (3, 4, 1, 9, 1001):
            with pytest.raises(ValueError):
                transparent_suite(bad)

    def test_generators(self, t11):
        assert not t11.g1.is_identity
        assert not t11.g2.is_identity
        assert t11.pairing(t11.g1, t11.g1) == t11.g2

    def test_group_operations(self, t11):
        a = t11.g1_from_int(3)
        b = t11.g1_from_int(5)
        assert a * b == t11.g1_from_int(8)
        assert a / b == t11.g1_from_int(9)
        assert a.inverse() == t11.g1_from_int(8)
        assert a ** 4 == t11.g1_from_int(1)
        assert a ** t11.scalar(4) == t11.g1_from_int(1)
        assert (a ** 0).is_identity
        assert t11.g1_identity().is_identity
        assert t11.g2_identity().is_identity

    def test_kind_and_suite_separation(self, t11):
        other = transparent_suite(13)
        with pytest.raises(TypeError):
            t11.g1_from_int(2) * t11.g2_from_int(2)
        with pytest.raises(TypeError):
            t11.g1_from_int(2) * other.g1_from_int(2)
        assert t11.g1_from_int(2) != t11.g2_from_int(2)
        assert t11.g1_from_int(2) != other.g1_from_int(2)

    def test_pairing_argument_checks(self, t11):
        with pytest.raises(TypeError):
            t11.pairing(t11.g1, t11.g2)
        other = transparent_suite(13)
        with pytest.raises(ValueError):
            t11.pairing(t11.g1, other.g1)

    def test_same_parameters_compatible(self):
        a = transparent_suite(11)
        b = transparent_suite(11)
        assert a.g1_from_int(4) == b.g1_from_int(4)

    def test_bilinearity_exhaustive_mod_11(self, t11):
        g = t11.g1
        base = t11.pairing(g, g)
        for a in range(11):
            for b in range(11):
                assert t11.pairing(g ** a, g ** b) == base ** (a * b)

    def test_scalar_exponent_of_wrong_modulus_rejected(self, t11):
        with pytest.raises(ValueError):
            t11.g1 ** Scalar(2, 13)

    def test_discrete_log(self, t11):
        for k in range(11):
            assert t11.discrete_log(t11.g1_from_int(k)) == k
            assert t11.discrete_log(t11.g2_from_int(k)) == k

    def test_sampling(self, t11, rng):
        seen = {int(t11.random_scalar(rng)) for _ in range(200)}
        assert seen == set(range(11))
        assert all(int(t11.random_scalar(rng, nonzero=True)) for _ in range(100))
        assert all(not t11.random_g1(rng, nonidentity=True).is_identity for _ in range(100))
        assert all(not t11.random_g2(rng, nonidentity=True).is_identity for _ in range(100))


class TestDdhSolver:
    def test_exhaustive_mod_11(self, t11):
        g = t11.g1
        for a in range(11):
            for b in range(11):
                for c in range(11):
                    got = t11.ddh_solve(g, g ** a, g ** b, g ** c)
                    assert got == (c % 11 == a * b % 11)

    def test_random_tuples_mod_1009(self, t1009, rng):
        g = t1009.g1
        for _ in range(300):
            a, b = rng.randrange(1009), rng.randrange(1009)
            real = rng.random() < 0.5
            c = a * b % 1009 if real else (a * b + rng.randrange(1, 1009)) % 1009
            assert t1009.ddh_solve(g, g ** a, g ** b, g ** c) == real


class TestCostAccounting:
    def test_nothing_counted_without_role(self):
        s = transparent_suite(11, counted=True)
        _ = s.g1 ** 5
        _ = s.pairing(s.g1, s.g1)
        snap = s.counter.snapshot()
        assert snap["g1_exp"] == {"prover": 0, "verifier": 0}
        assert snap["pairings"] == {"prover": 0, "verifier": 0}

    def test_role_scoped_counting(self):
        s = transparent_suite(11, counted=True)
        with s.role("prover"):
            _ = s.g1 ** 5
            _ = s.g2 ** 3
        with s.role("verifier"):
            _ = s.pairing(s.g1, s.g1)
        snap = s.counter.snapshot()
        assert snap["g1_exp"] == {"prover": 1, "verifier": 0}
        assert snap["g2_exp"] == {"prover": 1, "verifier": 0}
        assert snap["pairings"] == {"prover": 0, "verifier": 1}

    def test_sampling_and_log_are_free(self):
        s = transparent_suite(11, counted=True)
        r = random.Random(1)
        with s.role("prover"):
            s.random_g1(r)
            s.random_scalar(r)
            s.discrete_log(s.g1)
            s.g1_from_int(7)
            _ = s.g1 * s.g1
            _ = s.g1.inverse()
        snap = s.counter.snapshot()
        assert snap["g1_exp"]["prover"] == 0
        assert snap["pairings"]["prover"] == 0

    def test_role_context_not_reentrant(self):
        s = transparent_suite(11, counted=True)
        with s.role("prover"):
            with pytest.raises(RuntimeError):
                with s.role("verifier"):
                    pass

    def test_threads_hold_roles_on_one_suite_at_once(self):
        # Each thread's role charges its own operations, even while the other
        # thread holds a different role on the same suite.
        s = transparent_suite(11, counted=True)
        both_open = threading.Barrier(2, timeout=10)
        errors = []

        def work(who, k):
            try:
                with s.role(who):
                    both_open.wait()
                    for _ in range(k):
                        _ = s.g1 ** 3
                    _ = s.pairing(s.g1, s.g1)
                    both_open.wait()
            except Exception as exc:  # surfaced below
                errors.append(exc)
                both_open.abort()

        threads = [threading.Thread(target=work, args=args) for args in (("prover", 3), ("verifier", 5))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        snap = s.counter.snapshot()
        assert snap["g1_exp"] == {"prover": 3, "verifier": 5}
        assert snap["pairings"] == {"prover": 1, "verifier": 1}

    def test_unknown_role_rejected(self, t11):
        with pytest.raises(ValueError):
            with t11.role("eavesdropper"):
                pass

    def test_uncounted_suite_has_no_counter(self, t11):
        assert t11.counter is None
        with t11.role("prover"):
            _ = t11.g1 ** 3  # must not blow up

    def test_snapshot_excludes_redraws_and_reset_keeps_them(self):
        c = CostCounter()
        c.add_exp(KIND_G1, "prover")
        c.redraws = 4
        assert "redraws" not in c.snapshot()
        c.reset(keep_redraws=True)
        assert c.redraws == 4
        assert c.snapshot()["g1_exp"]["prover"] == 0
        c.reset()
        assert c.redraws == 0

    def test_sent_accounting(self):
        c = CostCounter()
        c.add_sent(KIND_G1, 2)
        c.add_sent(KIND_G1, 2)
        c.add_sent(KIND_ZP, 2)
        assert c.sent_elems[KIND_G1] == 2
        assert c.sent_bytes[KIND_G1] == 4
        assert c.sent_elems[KIND_ZP] == 1


class TestCodecs:
    def test_widths(self, t11, t1009):
        assert scalar_width(11) == 2
        assert scalar_width(1009) == 2
        assert scalar_width(100003) == 3
        assert t11.width(KIND_ZP) == 2
        assert t11.width(KIND_G1) == 2
        assert t11.width(KIND_BITS) == 1
        assert t1009.width(KIND_BITS) == 2

    def test_scalar_round_trip(self, t1009):
        for v in range(0, 1009, 37):
            s = t1009.scalar(v)
            assert t1009.decode_scalar(t1009.encode_scalar(s)) == s

    def test_element_round_trip(self, t11):
        for k in range(11):
            e1 = t11.g1_from_int(k)
            e2 = t11.g2_from_int(k)
            assert t11.decode_g1(t11.encode_element(e1)) == e1
            assert t11.decode_g2(t11.encode_element(e2)) == e2

    def test_unreduced_rejected(self, t11):
        with pytest.raises(MalformedEncoding):
            t11.decode_scalar((11).to_bytes(2, "big"))
        with pytest.raises(MalformedEncoding):
            t11.decode_g1((255).to_bytes(2, "big"))

    def test_wrong_width_rejected(self, t11):
        with pytest.raises(MalformedEncoding):
            t11.decode_scalar(b"\x01")
        with pytest.raises(MalformedEncoding):
            t11.decode_g1(b"\x00\x01\x02")

    def test_foreign_scalar_rejected(self, t11):
        with pytest.raises(ValueError):
            t11.encode_scalar(Scalar(1, 13))

    def test_foreign_element_rejected(self, t11, t1009, c59, c83):
        for suite, other in ((t11, t1009), (c59, c83)):
            with pytest.raises(ValueError):
                suite.encode_element(other.g1 ** 3)
            with pytest.raises(ValueError):
                suite.encode_element(other.g2)
        # A suite over the same backend, such as a counted clone, shares its elements.
        clone = GroupSuite(c59.backend, counted=True)
        assert clone.encode_element(c59.g1 ** 3) == c59.encode_element(c59.g1 ** 3)

    @given(v=st.integers(0, 1008))
    @settings(max_examples=50, deadline=None)
    def test_codec_round_trip_property(self, v):
        s = transparent_suite(1009)
        assert s.decode_scalar(s.encode_scalar(s.scalar(v))) == v
        assert s.decode_g1(s.encode_element(s.g1_from_int(v))).payload == v

    def test_describe(self, t11):
        assert t11.describe() == {"backend": "transparent", "p": "11"}
