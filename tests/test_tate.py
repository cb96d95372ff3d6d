import dataclasses
import itertools
import random
import sys
import threading
from collections import Counter
from types import SimpleNamespace

import pytest

from pairid.algebra import KIND_G1, KIND_G2, G1Element, G2Element, GroupSuite, MalformedEncoding
from pairid.primes import factor
from pairid.schemes import SchemeId, keygen, replay_decision, run_session
from pairid.session import loopback_session
from pairid.tate import (
    CurveParams,
    Fq2,
    NotOnCurve,
    TateBackend,
    ValidationFailed,
    _comb_spacing,
    _comb_table,
    _double_and_add,
    _easy_part,
    _final_exp,
    _fq2_comb_table,
    _loop_digits,
    _miller_at,
    _miller_stored,
    _norm1_pow,
    _stored_walk,
    enumerate_and_validate,
    lift_x,
    on_curve,
    point_add,
    point_mul,
    point_neg,
    suite_from_curve_params,
    tate_pairing,
    tate_suite,
)

from oracles import (
    ReferenceDegenerate,
    curve_points,
    is_prime_naive,
    naive_add,
    naive_double_and_add,
    naive_mul,
    point_order_naive,
    reference_line,
    reference_miller,
    reference_pairing,
)

# Frozen outcomes of the exhaustive point count (oracles.curve_points).
CURVE_TABLE = {
    59: dict(n=60, p=5, h=12, factors={2: 2, 3: 1, 5: 1}),
    83: dict(n=84, p=7, h=12, factors={2: 2, 3: 1, 7: 1}),
    523: dict(n=524, p=131, h=4, factors={2: 2, 131: 1}),
}

# A "type A" set at real size: q = h*p - 1 is a 512-bit prime = 3 (mod 4),
# p a 160-bit prime, GEN a point of order p on y^2 = x^3 + x over F_q.
REAL_Q = int(
    "12754743815247551365903365207536378201741095838320536339596390385544169603786"
    "678652508398311134647025207903486521270149881763601534714163324164140990938387"
)
REAL_P = 1408604150366267513563008725244081754033323226391
REAL_H = int(
    "9054881608811845679594536373982893014369005124167353844278982683044586091547"
    "299475405238810860755912441868"
)
REAL_GEN = (
    int(
        "1224893490930503794004075466789973377976387194103161177031006933445828165313"
        "4392274262626062867364572122220681834808723957244612444984282110057601856774166"
    ),
    int(
        "4719368216839730560990156005391368034105920765539885550883455572281314241991"
        "956851955514171891276748054785903373997938302622881312521909056028975195513150"
    ),
)


def _real_multiple(k):
    """k * REAL_GEN by the oracle's affine double-and-add."""
    return naive_double_and_add(k % REAL_P, REAL_GEN, REAL_Q)


def _multiples(pt, q):
    """[O, pt, 2 pt, ...] up to pt's order, by the oracle's group law."""
    out, acc = [None], pt
    while acc is not None:
        out.append(acc)
        acc = naive_add(acc, pt, q)
    return out


def _by_order(q):
    """The finite points of the desk curve at q, split by the oracle's point
    order: (those of order p, those off the order-p subgroup)."""
    inside, off = [], []
    for pt in filter(None, curve_points(q)):
        (inside if point_order_naive(pt, q) == CURVE_TABLE[q]["p"] else off).append(pt)
    return inside, off


def _holder():
    """A table holder for a backend call on a raw payload, as an element is."""
    return SimpleNamespace(tables=None)


def _random_curve_point(q, rng):
    """A uniformly drawn affine point of the whole curve, not cofactor-cleared."""
    while True:
        x = rng.randrange(q)
        rhs = (x * x * x + x) % q
        y = pow(rhs, (q + 1) // 4, q)
        if (y * y - rhs) % q == 0:
            return (x, y) if rng.getrandbits(1) else (x, (-y) % q)


class TestValidation:
    @pytest.mark.parametrize("q", sorted(CURVE_TABLE))
    def test_known_curves(self, q):
        expect = CURVE_TABLE[q]
        params = enumerate_and_validate(q)
        # the curve has q + 1 points (test_point_count_matches_oracle)
        assert q + 1 == expect["n"] == params.p * params.h
        assert factor(q + 1) == expect["factors"]
        assert params.p == expect["p"]
        assert params.h == expect["h"]
        # the generator really has order p
        gen = params.gen
        assert point_mul(expect["p"], gen, q) is None
        assert point_order_naive(gen, q) == expect["p"]

    def test_point_count_matches_oracle(self):
        for q in range(7, 10_001, 4):
            if is_prime_naive(q):
                assert len(curve_points(q)) == q + 1, q

    def test_wrong_residue_class_rejected(self):
        # 13 = 1 (mod 4): i^2 = -1 already has a root, the extension collapses
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(13)

    def test_composite_rejected(self):
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(63)

    def test_tiny_subgroup_rejected(self):
        # q = 7: N = 8 = 2^3, largest prime factor is below 5
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(7)

    def test_repeated_factor_rejected(self):
        # q = 199: N = 200 = 2^3 * 5^2, so p = 5 but 25 | N
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(199)

    def test_explicit_subgroup_order_checked(self):
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(59, p=7)  # 7 does not divide 60
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(59, p=3)  # prime but below the floor
        assert enumerate_and_validate(59, p=5).p == 5

    def test_size_cap(self):
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(10007)


class TestFq2:
    def test_i_squared_is_minus_one(self):
        q = 59
        assert Fq2(0, 1, q) * Fq2(0, 1, q) == Fq2(-1, 0, q)

    def test_inverse_exhaustive_q59(self):
        q = 59
        one = Fq2(1, 0, q)
        for a in range(q):
            for b in range(q):
                z = Fq2(a, b, q)
                if (z.a, z.b) == (0, 0):
                    with pytest.raises(ZeroDivisionError):
                        z.inv()
                else:
                    assert z * z.inv() == one

    def test_pow(self):
        q = 59
        z = Fq2(3, 7, q)
        acc = Fq2(1, 0, q)
        for e in range(12):
            assert z ** e == acc
            acc = acc * z
        assert z ** -3 == (z ** 3).inv()
        # multiplicative group of F_{q^2} has order q^2 - 1
        assert z ** (q * q - 1) == Fq2(1, 0, q)


class TestPointArithmetic:
    def test_add_table_matches_oracle_q59(self):
        q = 59
        pts = curve_points(q)
        assert len(pts) == 60
        for a in pts:
            for b in pts:
                assert point_add(a, b, q) == naive_add(a, b, q)

    def test_mul_matches_oracle(self):
        q = 83
        pts = [pt for pt in curve_points(q) if pt is not None][:7]
        for pt in pts:
            for k in range(90):
                assert point_mul(k, pt, q) == naive_mul(k, pt, q)

    def test_negative_multiplier(self):
        q = 59
        gen = enumerate_and_validate(q).gen
        assert point_mul(-2, gen, q) == point_neg(point_mul(2, gen, q), q)

    def test_off_curve_rejected(self):
        with pytest.raises(NotOnCurve):
            point_add((1, 1), None, 59)
        with pytest.raises(NotOnCurve):
            point_mul(3, (1, 1), 59)

    def test_group_order(self):
        q = 59
        for pt in curve_points(q):
            if pt is not None:
                assert point_mul(60, pt, q) is None


class TestPairing:
    def test_bilinearity_exhaustive_q59(self, c59):
        g = c59.g1
        base = c59.pairing(g, g)
        for a in range(5):
            for b in range(5):
                assert c59.pairing(g ** a, g ** b) == base ** (a * b)

    def test_symmetry(self, c83, rng):
        for _ in range(20):
            a = c83.random_g1(rng)
            b = c83.random_g1(rng)
            assert c83.pairing(a, b) == c83.pairing(b, a)

    def test_non_degenerate_order_is_p(self, c59, c83, c523):
        for suite in (c59, c83, c523):
            base = suite.pairing(suite.g1, suite.g1)
            acc = base
            for _ in range(suite.p - 1):
                assert not acc.is_identity
                acc = acc * base
            assert acc.is_identity

    def test_identity_argument_maps_to_one(self, c59):
        inf = c59.g1_from_int(0)
        assert c59.pairing(inf, c59.g1).is_identity
        assert c59.pairing(c59.g1, inf).is_identity

    def test_offset_rescue_identity(self):
        # oracles.reference_pairing's retry relies on
        # reduced(f(P,Q)) = reduced(f(P,Q+S)/f(P,S)).
        params = enumerate_and_validate(59)
        q, p = params.q, params.p
        exp = (q * q - 1) // p
        pt = params.gen
        other = point_mul(3, params.gen, q)
        direct = _miller_at(pt, None, other, p, q) ** exp
        one = Fq2(1, 0, q)
        for k in range(1, 5):
            s = point_mul(k, params.gen, q)
            shifted = point_add(other, s, q)
            f1 = _miller_at(pt, None, shifted, p, q)
            f2 = _miller_at(pt, None, s, p, q)
            assert (f1 * f2.inv()) ** exp == direct

    def test_line_vanishing_raises(self):
        params = enumerate_and_validate(59)
        q, p = params.q, params.p
        x1, y1 = params.gen
        lam = (3 * x1 * x1 + 1) * pow(2 * y1, -1, q) % q
        # choose the evaluation abscissa so the tangent value is exactly zero;
        # (-xq_im, 0) is not a curve point, where no line of gen's walk vanishes
        xq_im = (x1 - y1 * pow(lam, -1, q)) % q
        # p = 5's walk opens with the tangent at gen, live and stored.
        assert _loop_digits(p)[0] == 0
        assert _miller_at(params.gen, None, (-xq_im, 0), p, q) == Fq2(0, 0, q)
        assert _miller_stored(_stored_walk(params.gen, p, q), (-xq_im, 0), q) == Fq2(0, 0, q)
        # A walk that does not end at infinity proves nothing and raises first.
        with pytest.raises(NotOnCurve):
            _miller_at(params.gen, None, (-xq_im, 0), 2, q)
        with pytest.raises(NotOnCurve):
            _stored_walk(params.gen, 2, q)

    def test_two_torsion_argument_stays_in_target_group(self):
        # (0, 0) sits outside the working subgroup; as a second argument it
        # pairs to 1, since e(gen, (0, 0))^2 = e(gen, O) and p is odd.
        params = enumerate_and_validate(59)
        assert tate_pairing(params.gen, (0, 0), params) == Fq2(1, 0, params.q)

    def test_off_curve_pairing_rejected(self):
        params = enumerate_and_validate(59)
        with pytest.raises(NotOnCurve):
            tate_pairing((1, 1), params.gen, params)


def _walk_lines(a, digits, q):
    """Per step of the Miller walk of a over digits, the point pairs (r, s)
    of its lines that are not vertical, by the oracle's group law."""
    steps, r = [], a
    for d in digits:
        step = []
        for s in (r, None if d == 0 else a if d == 1 else (a[0], -a[1] % q)):
            if s is not None and r is not None and (r[0] != s[0] or (r[1] + s[1]) % q):
                step.append((r, s))
            r = naive_add(r, s, q)
        steps.append(step)
    return steps


class TestLineForm:
    """The one line formula: the coefficient triples that _double_and_add
    stores against the affine lines of oracles.py."""

    @pytest.mark.parametrize("q", [59, 83])
    def test_triples_match_reference_lines(self, q):
        # Every triple of every double-and-add walk over Miller digits, p's
        # signed digits and its bits and those of q + 1, from every curve
        # point (the loop is the same off the subgroup): its value
        # (c0 + c1*xq) + (c2*yq)*i at every distorted point is c2 times the
        # reference line's, so it vanishes exactly where the reference does.
        # Its lines are the tangents and chords the walk meets, the chord
        # through r = s (a tangent) and the skipped verticals included.
        p = enumerate_and_validate(q).p
        pts = [pt for pt in curve_points(q) if pt is not None]
        walks = [digits for n in (p, q + 1) for digits in (_loop_digits(n), tuple(map(int, bin(n)[3:])))]
        vanished, kinds = 0, set()
        for a, digits in itertools.product(pts, walks):
            steps = []
            _double_and_add((*a, 1), digits, (None, a, point_neg(a, q)), q, steps=steps)
            expect = _walk_lines(a, digits, q)
            assert [len(step) for step in steps] == [len(step) for step in expect], (a, digits)
            for line, (r, s) in zip(itertools.chain(*steps), itertools.chain(*expect)):
                kinds.add("tangent" if r == s else "chord")
                c0, c1, c2 = line
                assert c2 % q != 0, (a, r, s)
                for x, y in pts:
                    xq = -x % q
                    got = ((c0 + c1 * xq) % q, c2 * y % q)
                    try:
                        ref = reference_line(r, s, xq, y, q)
                    except ReferenceDegenerate:
                        assert got == (0, 0), (a, r, s, (x, y))
                        vanished += 1
                        continue
                    assert got == (c2 * ref[0] % q, c2 * ref[1] % q), (a, r, s, (x, y))
        assert vanished > 0 and kinds == {"tangent", "chord"}


class TestPairingAgainstReference:
    """The Jacobian Miller loop and Frobenius final exponentiation against
    the affine loop with full-exponent reduction in oracles.py."""

    @pytest.mark.parametrize("q", [59, 83])
    def test_every_pair_of_curve_points(self, q):
        # A first argument of order p or O, against every curve point (O and
        # (0, 0) included), equals the reference, whose retry never runs
        # there; a first argument off the subgroup raises NotOnCurve.
        params = enumerate_and_validate(q)
        off = _by_order(q)[1]
        pts = curve_points(q)
        for a in pts:
            for b in pts:
                if a in off:
                    with pytest.raises(NotOnCurve):
                        tate_pairing(a, b, params)
                    continue
                got = tate_pairing(a, b, params)
                assert (got.a, got.b) == reference_pairing(a, b, q, params.p, params.gen), (a, b)

    @pytest.mark.parametrize("q", [59, 83])
    def test_no_line_vanishes_on_the_subgroup(self, q):
        # For a of order p no line of the reference's walk or of the
        # package's vanishes at any finite b, (0, 0) included.  Some a off
        # the subgroup make the reference's lines vanish; the package's walk
        # raises NotOnCurve for every such a instead.
        p = enumerate_and_validate(q).p
        inside, off = _by_order(q)
        for a in inside:
            for b in inside + off:
                reference_miller(a, b, p, q)
                _miller_at(a, None, b, p, q)
        vanished = 0
        for a in off:
            for b in inside + off:
                try:
                    reference_miller(a, b, p, q)
                except ReferenceDegenerate:
                    vanished += 1
                with pytest.raises(NotOnCurve):
                    _miller_at(a, None, b, p, q)
        assert vanished > 0

    @pytest.mark.parametrize("q", [59, 83])
    def test_live_miller_matches_stored_and_reference(self, q):
        # Every first argument of order p against every finite point, after
        # the final exponentiation: the live loop, which multiplies in each
        # line as it makes it, the stored steps and the oracle's affine loop
        # agree.  A first argument off the subgroup gets no stored steps.
        p = enumerate_and_validate(q).p
        inside, off = _by_order(q)
        for a in inside:
            lines = _stored_walk(a, p, q)
            for b in inside + off:
                expect = _final_exp(Fq2(*reference_miller(a, b, p, q), q), p)
                assert _final_exp(_miller_at(a, None, b, p, q), p) == expect, (a, b)
                assert _final_exp(_miller_stored(lines, b, q), p) == expect, (a, b)
        for a in off:
            with pytest.raises(NotOnCurve):
                _stored_walk(a, p, q)

    def test_live_miller_real_size(self):
        for a, b in self._real_subgroup_pairs(random.Random("real-size live Miller"))[1]:
            expect = _final_exp(Fq2(*reference_miller(a, b, REAL_P, REAL_Q), REAL_Q), REAL_P)
            assert _final_exp(_miller_at(a, None, b, REAL_P, REAL_Q), REAL_P) == expect, (a, b)
            lines = _stored_walk(a, REAL_P, REAL_Q)
            assert _final_exp(_miller_stored(lines, b, REAL_Q), REAL_P) == expect, (a, b)

    @staticmethod
    def _real_subgroup_pairs(rng):
        """Three pairs (a, b) of points of order p, with their logs (i, j)."""
        logs = [(rng.randrange(1, REAL_P), rng.randrange(1, REAL_P)) for _ in range(3)]
        return logs, [(_real_multiple(i), _real_multiple(j)) for i, j in logs]

    def test_real_size_random_pairs(self):
        params = CurveParams(q=REAL_Q, p=REAL_P, h=REAL_H, gen=REAL_GEN)
        rng = random.Random("real-size pairing")
        pairs = self._real_subgroup_pairs(rng)[1]
        # A random curve point is off the subgroup; h times it is not.
        off, other = _random_curve_point(REAL_Q, rng), _random_curve_point(REAL_Q, rng)
        pairs.append((point_mul(REAL_H, off, REAL_Q), other))
        for a, b in pairs:
            got = tate_pairing(a, b, params)
            assert (got.a, got.b) == reference_pairing(a, b, REAL_Q, REAL_P, REAL_GEN)
        with pytest.raises(NotOnCurve):
            tate_pairing(off, other, params)

    def test_real_size_stored_steps(self, monkeypatch):
        # The subgroup pairs above on a warm backend, so that each a's
        # pairing runs its stored steps, and pair_equal zips them with the
        # live walk of a c used there first.
        from pairid import tate

        params = CurveParams(q=REAL_Q, p=REAL_P, h=REAL_H, gen=REAL_GEN)
        backend = TateBackend(params)
        logs, pairs = self._real_subgroup_pairs(random.Random("real-size pairing"))
        for (i, j), (a, b) in zip(logs, pairs):
            ha = _holder()
            backend.pair(a, b, ha)
            got = backend.pair(a, b, ha)
            assert list(ha.tables) == [backend._lines]  # a has its lines
            assert (got.a, got.b) == reference_pairing(a, b, REAL_Q, REAL_P, REAL_GEN)
            # e(2j g, (i/2) g) = e(a, b), and e(3j g, (i/2) g) is not.
            d = _real_multiple(i * pow(2, -1, REAL_P))
            for m, equal in ((2, True), (3, False)):
                c, hc = _real_multiple(m * j), _holder()
                expect = tate_pairing(a, b, params) == tate_pairing(c, d, params)
                with monkeypatch.context() as patch:
                    # The zipped walks decide, not the two-pairing fallback.
                    patch.setattr(tate, "tate_pairing", None)
                    assert backend.pair_equal(a, b, c, d, ha, hc) == expect == equal
                assert hc.tables == {}  # no c got lines

    def test_real_size_point_mul(self):
        rng = random.Random("real-size point_mul")
        k = rng.randrange(REAL_Q)
        for base in (REAL_GEN, _random_curve_point(REAL_Q, rng)):
            for m in (0, 1, REAL_P, REAL_H, k, -k, rng.randrange(REAL_P)):
                assert point_mul(m, base, REAL_Q) == naive_double_and_add(m, base, REAL_Q), m
        assert point_mul(REAL_P, REAL_GEN, REAL_Q) is None


class TestSuiteOverCurve:
    def test_exponent_space_matches_transparent_shape(self, c59):
        for k in range(5):
            assert c59.discrete_log(c59.g1_from_int(k)) == k
            assert c59.discrete_log(c59.g2_from_int(k)) == k

    def test_log_outside_subgroup_rejected(self, c59):
        full_order = next(
            pt for pt in curve_points(59) if pt is not None and point_order_naive(pt, 59) == 60
        )
        with pytest.raises(ValueError):
            c59.backend.log(KIND_G1, full_order)

    def test_default_parameters(self, c523):
        assert c523.p == 131
        assert c523.backend.q == 523

    def test_describe_round_trip(self, c83):
        d = c83.describe()
        x, y = d["gen"].split(",")
        rebuilt = suite_from_curve_params(int(d["q"]), int(d["p"]), int(d["h"]), (int(x), int(y)))
        assert rebuilt.g1 == rebuilt.g1_from_int(1)
        assert rebuilt.p == c83.p
        assert c83.g1.payload == rebuilt.g1.payload

    def test_equal_p_on_different_curves_incompatible(self, c83):
        # q = 83 and q = 139 both give p = 7; their points must never mix.
        other = tate_suite(139)
        assert other.p == c83.p
        with pytest.raises(TypeError):
            c83.g1 * other.g1
        with pytest.raises(ValueError):
            c83.pairing(c83.g1, other.g1)
        assert c83.g1 != other.g1
        assert c83.g1_from_int(3) != other.g1_from_int(3)

    def test_stored_params_revalidated(self):
        good = enumerate_and_validate(59)
        with pytest.raises(ValidationFailed):
            suite_from_curve_params(59, 5, 12, (1, 1))
        full_order = next(
            pt for pt in curve_points(59) if pt is not None and point_order_naive(pt, 59) == 60
        )
        with pytest.raises(ValidationFailed):
            suite_from_curve_params(59, 5, 12, full_order)
        with pytest.raises(ValidationFailed):
            suite_from_curve_params(59, 5, 11, good.gen)


class TestCurveCodecs:
    def test_widths(self, c59, c523):
        assert c59.width(KIND_G1) == 3
        assert c59.width(KIND_G2) == 4
        assert c523.width(KIND_G1) == 3
        assert c523.width(KIND_G2) == 4

    @pytest.mark.parametrize("q", [59, 83])
    def test_g1_round_trip_whole_subgroup(self, q):
        suite = tate_suite(q)
        for k in range(suite.p):
            e = suite.g1_from_int(k)
            data = suite.encode_element(e)
            assert len(data) == suite.width(KIND_G1)
            assert suite.decode_g1(data) == e

    def test_g2_round_trip_whole_subgroup(self, c59):
        for k in range(c59.p):
            e = c59.g2_from_int(k)
            data = c59.encode_element(e)
            assert len(data) == c59.width(KIND_G2)
            assert c59.decode_g2(data) == e

    def test_g1_malformed_rejected(self, c59):
        w = c59.width(KIND_G1)
        with pytest.raises(MalformedEncoding):
            c59.decode_g1(b"\x01" + bytes(w - 1))  # unknown flag
        with pytest.raises(MalformedEncoding):
            c59.decode_g1(b"\x00\x00\x01")  # infinity must be zero-padded
        with pytest.raises(MalformedEncoding):
            c59.decode_g1(b"\x02" + (59).to_bytes(w - 1, "big"))  # x not reduced
        with pytest.raises(MalformedEncoding):
            c59.decode_g1(bytes(w - 1))  # short

    def test_g1_nonresidue_x_rejected(self, c59):
        q = 59
        on = {pt[0] for pt in curve_points(q) if pt is not None}
        bad_x = next(x for x in range(1, q) if x not in on)
        with pytest.raises(MalformedEncoding):
            c59.decode_g1(b"\x02" + bad_x.to_bytes(2, "big"))

    def test_g1_off_subgroup_rejected(self, c59):
        q = 59
        outside = next(
            pt for pt in curve_points(q)
            if pt is not None and point_mul(5, pt, q) is not None
        )
        x, y = outside
        flag = 0x02 if y % 2 == 0 else 0x03
        with pytest.raises(MalformedEncoding):
            c59.decode_g1(bytes([flag]) + x.to_bytes(2, "big"))

    def test_g2_malformed_rejected(self, c59):
        with pytest.raises(MalformedEncoding):
            c59.decode_g2(bytes(3))  # short
        with pytest.raises(MalformedEncoding):
            c59.decode_g2((59).to_bytes(2, "big") + bytes(2))  # coord not reduced
        # (2, 0) lives in F_q* but not in the order-5 target subgroup
        with pytest.raises(MalformedEncoding):
            c59.decode_g2((2).to_bytes(2, "big") + bytes(2))

    def test_identity_encodings(self, c59):
        inf = c59.g1_from_int(0)
        assert c59.decode_g1(c59.encode_element(inf)) == inf
        one = c59.g2_from_int(0)
        assert c59.decode_g2(c59.encode_element(one)) == one


class TestPrecomputedTables:
    """The comb and stored-line paths of TateBackend against the plain
    point_mul and the reference pairing.  Each input's holder is used twice
    first, so that its table exists before the compared call."""

    @pytest.mark.parametrize("q", [59, 83])
    def test_comb_matches_point_mul_on_every_point(self, q):
        # Off-subgroup, 2-torsion and other small-order bases included:
        # 2^(5i) * pt is infinity for some of them.
        backend = TateBackend(enumerate_and_validate(q))
        for pt in curve_points(q):
            h = _holder()
            backend.power(KIND_G1, pt, 1, h)
            backend.power(KIND_G1, pt, 1, h)
            assert list(h.tables or {}) == ([] if pt is None else [backend._comb])
            for k in range(backend.p):
                assert backend.power(KIND_G1, pt, k, h) == point_mul(k, pt, q), (pt, k)

    @pytest.mark.parametrize("q", [59, 83, 523, 1051])
    def test_comb_entries_by_definition(self, q):
        # Entry j is sum(2^(i d) pt for the set bits i of j): for pt = k g of
        # order p that is (k * that sum mod p) g, read off g's multiples.
        # At 59 and 83 every curve point, small orders included, is read off
        # its own multiples.  At 1051 each row has two columns.
        params = enumerate_and_validate(q)
        bits = params.p.bit_length()
        d = _comb_spacing(bits)
        sums = [sum(1 << (i * d) for i in range(8) if j >> i & 1) for j in range(256)]
        mults = _multiples(params.gen, q)
        bases = [(mults[k], mults, k) for k in range(1, params.p)]
        if q < 100:
            bases += [(pt, _multiples(pt, q), 1) for pt in filter(None, curve_points(q))]
        for pt, multiples, k in bases:
            assert _comb_table(pt, bits, q) == (d, [multiples[k * s % len(multiples)] for s in sums]), pt

    @pytest.mark.parametrize("q", [523, 1051])
    def test_comb_power_every_exponent(self, q):
        # Every k in [0, 2p) on every point j*g of order p, through the comb
        # (k = 0 and, at 523, k >= 256 through the wNAF), against the
        # oracle's (j*k mod p) * g.
        params = enumerate_and_validate(q)
        g, p = params.gen, params.p
        multiples = [naive_double_and_add(m, g, q) for m in range(p)]
        for j in range(1, p):
            comb = _comb_table(multiples[j], p.bit_length(), q)
            for k in range(2 * p):
                assert point_mul(k, multiples[j], q, comb) == multiples[j * k % p], (j, k)

    def test_comb_entries_real_size(self):
        d = _comb_spacing(REAL_P.bit_length())
        rows = [_real_multiple(1 << (i * d)) for i in range(8)]
        entries = [None]
        for row in rows:
            entries += [naive_add(e, row, REAL_Q) for e in entries]
        assert _comb_table(REAL_GEN, REAL_P.bit_length(), REAL_Q) == (d, entries)

    def test_comb_uses_several_columns(self):
        # q + 1 = 1052 = 4 * 263, and p = 263 has 9 bits, so each of the
        # comb's rows has two columns.
        suite = tate_suite(1051, 263)
        backend, params = suite.backend, suite.backend.params
        assert _comb_spacing(backend.p.bit_length()) == 2
        rng = random.Random("comb columns")
        bases = [params.gen, (0, 0)] + [_random_curve_point(1051, rng) for _ in range(6)]
        for pt in bases:
            h = _holder()
            backend.power(KIND_G1, pt, 1, h)
            backend.power(KIND_G1, pt, 1, h)
            for k in range(backend.p):
                assert backend.power(KIND_G1, pt, k, h) == naive_mul(k, pt, 1051), (pt, k)
        for k in range(backend.p):
            assert backend.from_int(KIND_G1, k) == naive_mul(k, params.gen, 1051)
        # The G2 comb over the same two columns, on the generator and a
        # value of order p.
        g2 = backend.from_int(KIND_G2, 1)
        for x in (g2, g2 ** 100):
            h = _holder()
            for _ in range(2):
                backend.power(KIND_G2, x, 2, h)
            assert backend._g2_comb in h.tables
            for k in range(backend.p):
                assert backend.power(KIND_G2, x, k, h) == x ** k, (x, k)
        for k in range(backend.p):
            assert backend.from_int(KIND_G2, k) == g2 ** k

    def test_comb_out_of_range_exponents(self):
        params = enumerate_and_validate(523)
        backend, h = TateBackend(params), _holder()
        for _ in range(2):
            backend.power(KIND_G1, params.gen, 1, h)
        assert backend._comb in h.tables
        for k in (-1, -130, 1 << 10, 10**6 + 3):
            assert backend.power(KIND_G1, params.gen, k, h) == naive_mul(k % 524, params.gen, 523)

    @pytest.mark.parametrize("q", [59, 83, 523])
    def test_g2_comb_matches_the_ladder_on_every_value(self, q):
        # Every element of mu_p, the order-p values of F_q^2, each used twice
        # first; exponents past the comb's 2^8 and negative ones take the
        # ladder.
        params = enumerate_and_validate(q)
        backend = TateBackend(params)
        g2 = backend.from_int(KIND_G2, 1)
        mu_p = [g2 ** i for i in range(params.p)]
        holders = [_holder() for _ in mu_p]
        exponents = [*range(params.p), 255, 256, 257, -1, -params.p]
        for x, h in zip(mu_p, holders):
            for _ in range(2):
                backend.power(KIND_G2, x, 2, h)
            for k in exponents:
                assert backend.power(KIND_G2, x, k, h) == _norm1_pow(x, k), (x, k)
        for k in exponents:
            assert backend.from_int(KIND_G2, k) == _norm1_pow(g2, k), k
        # Each value but 1 (b = 0) still has its comb, and 1 never took one.
        assert [list(h.tables or {}) for h in holders] == [[backend._g2_comb] if x.b else [] for x in mu_p]

    def test_g2_table_built_on_second_use(self, monkeypatch):
        from pairid import tate

        builds = []
        monkeypatch.setattr(tate, "_fq2_comb_table", lambda x, bits: builds.append(x) or _fq2_comb_table(x, bits))
        params = enumerate_and_validate(83)
        backend = TateBackend(params)
        z = tate_pairing(point_mul(3, params.gen, 83), params.gen, params)
        hz, hs = _holder(), [_holder(), _holder()]
        # Powers that multiply nothing are no use of their base.
        for x, k, h in ((z, 0, hz), (z, 1, hz), (Fq2(1, 0, 83), 5, hs[0]), (Fq2(-1, 0, 83), 5, hs[1])):
            backend.power(KIND_G2, x, k, h)
        assert [h.tables for h in (hz, *hs)] == [None] * 3
        backend.power(KIND_G2, z, 2, hz)
        assert hz.tables == {} and builds == []
        backend.power(KIND_G2, z, 3, hz)
        assert list(hz.tables) == [backend._g2_comb] and builds == [z]
        assert backend.power(KIND_G2, z, 4, hz) == z ** 4
        assert builds == [z]

    @pytest.mark.parametrize("q", [59, 83])
    def test_stored_lines_match_reference_on_every_pair(self, q):
        # Warm: a first argument of order p pairs on its stored lines and
        # equals the reference against every curve point; one off the
        # subgroup raises NotOnCurve on every use.
        params = enumerate_and_validate(q)
        backend = TateBackend(params)
        off = _by_order(q)[1]
        pts = curve_points(q)
        for a in pts:
            h = _holder()
            for _ in range(2):
                _outcome(lambda: backend.pair(a, params.gen, h))
            for b in pts:
                if a in off:
                    with pytest.raises(NotOnCurve):
                        backend.pair(a, b, h)
                    continue
                got = backend.pair(a, b, h)
                assert (got.a, got.b) == reference_pairing(a, b, q, params.p, params.gen), (a, b)

    @pytest.mark.parametrize("q", [59, 83])
    def test_stored_lines_vanish_exactly_where_miller_does(self, q):
        # For a of order p, at every (x, y) in F_q x F_q as the point that
        # phi distorts, curve points or not: stored steps and the live walk
        # vanish at the same points, none of them on the curve, and
        # elsewhere agree up to an F_q* factor.
        params = enumerate_and_validate(q)
        vanished = 0
        for a in _by_order(q)[0]:
            lines = _stored_walk(a, params.p, q)
            for b in itertools.product(range(q), repeat=2):
                plain, stored = _miller_at(a, None, b, params.p, q), _miller_stored(lines, b, q)
                if plain == Fq2(0, 0, q):
                    vanished += 1
                    assert not on_curve(b, q), (a, b)
                    assert stored == Fq2(0, 0, q), (a, b)
                    continue
                # Equal up to an F_q* factor: the ratio has no imaginary part.
                assert (plain * stored.inv()).b == 0, (a, b)
        assert vanished > 0

    def test_off_curve_inputs_still_rejected(self):
        params = enumerate_and_validate(59)
        backend = TateBackend(params)
        bad, gen = _holder(), _holder()
        for _ in range(3):
            with pytest.raises(NotOnCurve):
                backend.pair((1, 1), params.gen, bad)
            with pytest.raises(NotOnCurve):
                backend.pair(params.gen, (1, 1), gen)
            with pytest.raises(NotOnCurve):
                backend.power(KIND_G1, (1, 1), 2, bad)
        assert bad.tables == {} and list(gen.tables) == [backend._lines]  # only the generator

    def test_real_size(self):
        params = CurveParams(q=REAL_Q, p=REAL_P, h=REAL_H, gen=REAL_GEN)
        backend = TateBackend(params)
        rng = random.Random("real-size tables")
        key = naive_double_and_add(rng.randrange(1, REAL_P), REAL_GEN, REAL_Q)
        holders = {REAL_GEN: _holder(), key: _holder()}
        for base, h in holders.items():
            for k in [rng.randrange(REAL_P) for _ in range(4)] + [1, REAL_P - 1]:
                assert backend.power(KIND_G1, base, k, h) == naive_double_and_add(k, base, REAL_Q), k
        others = [naive_double_and_add(rng.randrange(1, REAL_P), REAL_GEN, REAL_Q),
                  _random_curve_point(REAL_Q, rng)]
        for b in others:
            for _ in range(2):
                got = backend.pair(key, b, holders[key])
                assert (got.a, got.b) == reference_pairing(key, b, REAL_Q, REAL_P, REAL_GEN)
        assert list(holders[REAL_GEN].tables) == [backend._comb]
        assert list(holders[key].tables) == [backend._comb, backend._lines]
        # The G2 comb, on the generator e(g, g) and on a value of order p.
        g2 = backend.from_int(KIND_G2, 1)
        for x in (g2, *_real_g2_values(rng, 1)):
            h = _holder()
            for _ in range(2):
                backend.power(KIND_G2, x, 2, h)
            assert list(h.tables) == [backend._g2_comb]
            for k in [rng.randrange(REAL_P) for _ in range(4)] + [1, REAL_P - 1]:
                assert backend.power(KIND_G2, x, k, h) == x ** k, k
                assert backend.from_int(KIND_G2, k) == g2 ** k, k

    def test_table_built_on_second_use(self):
        # The first use marks the holder, and the second builds only the
        # kind of table that it needs.
        params = enumerate_and_validate(83)
        backend, h = TateBackend(params), _holder()
        pt = point_mul(3, params.gen, 83)
        backend.pair(pt, params.gen, h)
        assert h.tables == {}
        backend.power(KIND_G1, pt, 2, h)
        assert list(h.tables) == [backend._comb]
        backend.pair(pt, params.gen, h)
        assert list(h.tables) == [backend._comb, backend._lines]

    def test_tables_stay_on_their_holders(self):
        self._fill_holders(mixed=False)

    def test_tables_stay_on_their_holders_with_g2_values(self):
        self._fill_holders(mixed=True)

    @staticmethod
    def _fill_holders(mixed):
        # Every point of order p at q = 523 but g, each used twice through
        # its holder: each holder keeps the tables of its own uses, however
        # many holders there are, and the backend keeps none.  Mixed, each
        # point comes with one of the 129 values of order p in F_q^2 other
        # than 1 and e(g, g), whose holder keeps its G2 comb.
        params = enumerate_and_validate(523)
        backend = TateBackend(params)
        names = set(vars(backend))
        pts = [point_mul(k, params.gen, 523) for k in range(2, params.p)]
        g2 = backend.from_int(KIND_G2, 1)
        values = [g2 ** (2 + i) for i in range(len(pts))] if mixed else [None] * len(pts)
        holders = [(_holder(), _holder()) for _ in pts]
        for pt, x, (h, hx) in zip(pts, values, holders):
            for _ in range(2):
                backend.power(KIND_G1, pt, 5, h)
                backend.pair(pt, params.gen, h)
                if mixed:
                    backend.power(KIND_G2, x, 5, hx)
        for pt, x, (h, hx) in zip(pts, values, holders):
            assert backend.power(KIND_G1, pt, 7, h) == point_mul(7, pt, 523)
            assert set(h.tables) == {backend._comb, backend._lines}
            if mixed:
                assert backend.power(KIND_G2, x, 7, hx) == x ** 7
                assert list(hx.tables) == [backend._g2_comb]
        assert vars(backend).keys() == names and backend._generator_tables == {params.gen: {}, g2: {}}

    def test_threads_sharing_one_backend(self):
        params = enumerate_and_validate(523)
        backend = TateBackend(params)
        rng = random.Random("threads")
        bases = [point_mul(rng.randrange(1, 131), params.gen, 523) for _ in range(24)]
        jobs = [(a, rng.randrange(131), rng.choice(bases)) for a in bases for _ in range(8)]
        # Each base also brings a G2 value; every thread uses the same holders.
        g2 = {a: tate_pairing(a, params.gen, params) for a in bases}
        holders = {a: (_holder(), _holder()) for a in bases}
        expect = [(point_mul(k, a, 523), tate_pairing(a, b, params), _norm1_pow(g2[a], k)) for a, k, b in jobs]
        errors = []

        def work(order):
            try:
                for i in order:
                    a, k, b = jobs[i]
                    h, hx = holders[a]
                    got = (backend.power(KIND_G1, a, k, h), backend.pair(a, b, h), backend.power(KIND_G2, g2[a], k, hx))
                    if got != expect[i]:
                        errors.append(i)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(random.Random(t).sample(range(len(jobs)), len(jobs)),))
                       for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # Each holder ends with one table of each kind it was used for, equal
        # to a table built alone.
        for a, (h, hx) in holders.items():
            assert h.tables == {backend._comb: backend._comb(a), backend._lines: backend._lines(a)}, a
            if g2[a].b:
                assert hx.tables == {backend._g2_comb: backend._g2_comb(g2[a])}, a


def _key_tables(kp) -> dict:
    """Each key element's tables, by field name, for the elements that have any."""
    return {name: elem.tables for name, elem in vars(kp).items() if isinstance(elem, (G1Element, G2Element)) and elem.tables}


class TestTableHolders:
    """Tables live on the elements that reuse them, GroupSuite passing each
    base's element to the backend as its holder."""

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        from pairid import tate

        builds = []
        for name in ("_comb_table", "_fq2_comb_table", "_stored_walk"):
            build = getattr(tate, name)
            monkeypatch.setattr(tate, name, lambda *args, build=build, name=name: builds.append(name) or build(*args))
        return builds

    def test_one_shot_elements_build_nothing(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        suite = GroupSuite(TateBackend(enumerate_and_validate(523)))
        rng = random.Random("one shot")
        for _ in range(2):  # the generators' tables, which every suite shares
            suite.random_g1(rng), suite.random_g2(rng, nonidentity=True)
        builds.clear()
        g1 = [suite.random_g1(rng, nonidentity=True) for _ in range(11)]
        y = suite.random_g2(rng, nonidentity=True)
        bases, others = [y, *g1[:7]], g1[7:]
        y ** 5
        g1[0] ** 5
        suite.pairing(g1[1], others[0])
        suite.pairing_from_int(g1[2], suite.g1_from_int(3), 3)
        suite.pairings_equal(g1[3], others[1], g1[4], others[2])
        suite.pairings_equal_hashed(g1[5], others[3], g1[6], b"one shot")
        assert builds == []
        assert [elem.tables for elem in bases] == [{}] * len(bases)
        assert [elem.tables for elem in others] == [None] * len(others)  # not a base: never marked

    def test_second_use_builds_only_the_kind_it_needs(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        suite = GroupSuite(TateBackend(enumerate_and_validate(523)))
        backend, g, rng = suite.backend, suite.g1, random.Random("second use")
        P, Q, R = (suite.random_g1(rng, nonidentity=True) for _ in range(3))
        y = suite.random_g2(rng, nonidentity=True)
        builds.clear()
        uses = [
            (P, lambda: P ** 5, ["_comb_table"], [backend._comb]),
            (Q, lambda: suite.pairing(Q, g), ["_stored_walk"], [backend._lines]),
            # e(R, g)'s comb is made on R's stored lines.
            (R, lambda: suite.pairing_from_int(R, suite.g1_from_int(3), 3), ["_stored_walk", "_fq2_comb_table"],
             [backend._lines, backend._pair_comb]),
            (y, lambda: y ** 5, ["_fq2_comb_table"], [backend._g2_comb]),
        ]
        for elem, use, built, kinds in uses:
            use()
            assert builds == [] and elem.tables == {}
            use()
            use()
            assert builds == built and list(elem.tables) == kinds
            builds.clear()

    def test_generator_tables_are_shared_by_every_suite(self, monkeypatch):
        # The backend's holders for g and e(g, g) are marked from the start,
        # so their first use builds, once for every suite on the backend.
        builds = self._count_builds(monkeypatch)
        backend = TateBackend(enumerate_and_validate(523))
        plain, counted = GroupSuite(backend), GroupSuite(backend, counted=True)
        assert builds == ["_comb_table"]  # from_int(KIND_G1, 1), in the first suite
        for suite in (plain, counted, plain, counted):
            suite.g1 ** 5, suite.g2 ** 5, suite.pairing(suite.g1, suite.g1)
        assert builds == ["_comb_table", "_fq2_comb_table", "_stored_walk"]
        assert plain.g1.tables is counted.g1.tables and plain.g2.tables is counted.g2.tables
        assert set(plain.g1.tables) == {backend._comb, backend._lines}
        assert list(counted.g2.tables) == [backend._g2_comb]
        # So does an element of the same value that another path made.
        decoded = counted.decode_g1(plain.encode_element(plain.g1))
        decoded ** 3
        assert decoded.tables is plain.g1.tables
        a, b = tate_suite(83), tate_suite(83, counted=True)
        a.g1 ** 3, b.g1 ** 3
        assert a.g1.tables is b.g1.tables and a.backend._comb in b.g1.tables

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_replays_under_other_keys_keep_the_scheme_key_tables(self, scheme):
        # 20 unrelated keys each replay two transcripts, which builds tables
        # for many more values than the scheme key has.
        suite = GroupSuite(TateBackend(enumerate_and_validate(523)))
        kp = keygen(scheme, suite, random.Random(f"replay {scheme.value}"))
        transcripts = [run_session(scheme, kp, suite, seed=f"replay {i}") for i in range(3)]
        tables = _key_tables(kp)
        kept = {name: dict(kinds) for name, kinds in tables.items()}
        assert tables
        for j in range(20):
            alt = keygen(scheme, suite, random.Random(f"replay alt {j}")).public()
            for t in transcripts[:2]:
                assert t.decision and not replay_decision(t, alt)
        assert _key_tables(kp) == tables
        for name, kinds in tables.items():
            assert kinds.keys() == kept[name].keys()
            assert all(kinds[kind] is kept[name][kind] for kind in kinds), name
        assert all(replay_decision(t, kp.public()) for t in transcripts)

    def test_threads_sharing_one_key(self):
        # Two threads run loopback sessions, each with a prover thread of its
        # own, on the same key objects: every session accepts on both ends,
        # and each key element ends with one table of each kind, equal to
        # one built alone.
        suite = GroupSuite(TateBackend(enumerate_and_validate(523)))
        backend = suite.backend
        keys = {s: keygen(s, suite, random.Random(f"threads {s.value}")) for s in SchemeId}
        errors = []

        def work(t):
            try:
                for i in range(3):
                    for s, kp in keys.items():
                        prover, verifier = loopback_session(s, kp, seed=f"threads {t} {i}")
                        if not (prover.decision and verifier.decision):
                            errors.append((t, i, s))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for s, kp in keys.items():
            for name, tables in _key_tables(kp).items():
                x = getattr(kp, name).payload
                for kind, table in tables.items():
                    alone = kind(x, _holder()) if kind == backend._pair_comb else kind(x)
                    assert table == alone, (s, name, kind)

    def test_call_counts_do_not_depend_on_the_backend_history(self, monkeypatch):
        # Sessions on freshly made keys make the same point_mul and
        # tate_pairing calls on a new backend as on one that has run 50
        # sessions on other objects of the same key values.
        from pairid import tate

        calls = Counter()
        for name in ("point_mul", "tate_pairing"):
            fn = getattr(tate, name)
            monkeypatch.setattr(tate, name, lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
        params = enumerate_and_validate(523)
        schemes = list(SchemeId)

        def sessions(backend, count, label):
            suite = GroupSuite(backend)
            keys = {s: keygen(s, suite, random.Random(f"history {s.value}")) for s in schemes}
            calls.clear()
            for i in range(count):
                s = schemes[i % len(schemes)]
                assert run_session(s, keys[s], suite, seed=f"{label} {i}").decision
            return dict(calls)

        fresh = sessions(TateBackend(params), 12, "pinned")
        used = TateBackend(params)
        sessions(used, 50, "other")
        assert sessions(used, 12, "pinned") == fresh


class TestSharedBackend:
    def test_stored_params_share_one_backend(self):
        params = enumerate_and_validate(83)
        a = suite_from_curve_params(params.q, params.p, params.h, params.gen)
        b = suite_from_curve_params(params.q, params.p, params.h, params.gen, counted=True)
        assert a.backend is b.backend
        assert a.counter is None and b.counter is not None
        other_gen = point_mul(2, params.gen, params.q)
        c = suite_from_curve_params(params.q, params.p, params.h, other_gen)
        assert c.backend is not a.backend
        assert c.g1 != a.g1

    def test_key_records_share_one_backend(self, tmp_path):
        from pairid.records import load_key, save_key
        from pairid.schemes import SchemeId, default_scheme_params, keygen

        suite = suite_from_curve_params(REAL_Q, REAL_P, REAL_H, REAL_GEN)
        params = default_scheme_params(suite)
        loaded = []
        for i, scheme in enumerate((SchemeId.CDHID, SchemeId.HLS)):
            path = tmp_path / f"{i}.key"
            save_key(path, scheme, keygen(scheme, suite, random.Random(i)), params)
            loaded.append(load_key(path)[1].suite)
        assert all(s.backend is suite.backend for s in loaded)


# Parameter sets that pass the generator-on-curve, p*gen = O and p*h = q + 1
# checks but are not type A.  q = 1 (mod 4) in the first two, so the pairing
# of the first is not bilinear and that of the second divides by zero; the
# third has q = 19 * 71 and 5^2 dividing q + 1.
HOSTILE_SETS = [
    (2957, 29, 102, (843, 2460)),
    (233, 13, 18, (215, 21)),
    (1349, 5, 270, (712, 1269)),
]


class TestCurveParamsValidate:
    @pytest.mark.parametrize("q, p, h, gen", HOSTILE_SETS)
    def test_hostile_sets_rejected(self, q, p, h, gen):
        params = CurveParams(q=q, p=p, h=h, gen=gen)
        with pytest.raises(ValidationFailed):
            params.validate()
        with pytest.raises(ValidationFailed):
            TateBackend(params)
        with pytest.raises(ValidationFailed):
            suite_from_curve_params(q, p, h, gen)

    @pytest.mark.parametrize("q, p, h, gen", HOSTILE_SETS)
    def test_hostile_key_records_rejected(self, q, p, h, gen, c59, tmp_path):
        from pairid.records import RecordError, load_key, save_key
        from pairid.schemes import SchemeId, default_scheme_params, keygen

        path = tmp_path / "key.txt"
        save_key(path, SchemeId.CDHID, keygen(SchemeId.CDHID, c59, random.Random(5)), default_scheme_params(c59))
        fields = {"q": q, "p": p, "h": h, "gen": f"{gen[0]},{gen[1]}"}
        lines = [ln for ln in path.read_text().splitlines() if ln.split(" = ")[0] not in fields]
        path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in fields.items()]) + "\n")
        with pytest.raises(RecordError, match="curve fields"):
            load_key(path)

    def test_real_size_set_accepted(self):
        CurveParams(q=REAL_Q, p=REAL_P, h=REAL_H, gen=REAL_GEN).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("h", REAL_H + 1),
            ("p", REAL_P + 2),
            ("gen", (REAL_GEN[0], REAL_GEN[1] + 1)),
            ("gen", _random_curve_point(REAL_Q, random.Random("full order"))),
            ("gen", None),
            ("gen", (REAL_GEN[0],)),
            ("gen", (*REAL_GEN, 1)),
        ],
        ids=["h+1", "p+2", "off-curve", "full-order", "infinity", "one-coordinate", "three-coordinates"],
    )
    def test_real_size_mutations_rejected(self, field, value):
        params = CurveParams(q=REAL_Q, p=REAL_P, h=REAL_H, gen=REAL_GEN)
        with pytest.raises(ValidationFailed):
            dataclasses.replace(params, **{field: value}).validate()

    def test_square_dividing_the_group_order_rejected(self):
        # q = 199 is a prime = 3 (mod 4), but q + 1 = 2^3 * 5^2.
        gen = next(pt for pt in curve_points(199) if pt is not None and point_order_naive(pt, 199) == 5)
        with pytest.raises(ValidationFailed, match="divides"):
            CurveParams(q=199, p=5, h=40, gen=gen).validate()

    def test_lift_matches_the_point_set(self):
        for q in (59, 83):
            xs = {pt[0] for pt in curve_points(q) if pt is not None}
            for x in range(q):
                y = lift_x(x, q)
                assert (y is not None) == (x in xs), x
                assert y is None or on_curve((x, y), q)

    def test_tate_suite_shares_one_backend(self):
        a, b = tate_suite(83), tate_suite(83, counted=True)
        assert a.backend is b.backend
        assert a.counter is None and b.counter is not None

    def test_repeated_tate_suite_counts_points_once(self, monkeypatch):
        from pairid import tate

        calls = []

        def counting(*args):
            calls.append(args)
            return enumerate_and_validate(*args)

        tate._desk_params.cache_clear()
        monkeypatch.setattr(tate, "enumerate_and_validate", counting)
        first = tate_suite(9967)
        second = tate_suite(9967)
        assert calls == [(9967, None)]
        assert second.backend is first.backend


# -- the pairing pipeline: trace ladder, one-exponentiation equality, wNAF ----------


def _real_g2_values(rng, n):
    """n order-p values of F_q^2 at real size, raised with Fq2.__pow__ alone."""
    out = []
    for _ in range(n):
        f = Fq2(rng.randrange(1, REAL_Q), rng.randrange(1, REAL_Q), REAL_Q)
        out.append((Fq2(f.a, -f.b, REAL_Q) * f.inv()) ** REAL_H)
    return out


class TestTraceLadder:
    """_norm1_pow against the generic square-and-multiply of Fq2.__pow__."""

    @pytest.mark.parametrize("q", [59, 83])
    def test_every_norm1_element_and_exponent(self, q):
        norm1 = [Fq2(a, b, q) for a in range(q) for b in range(q) if (a * a + b * b) % q == 1]
        assert len(norm1) == q + 1  # the kernel of the norm map
        for x in norm1:
            for e in range(2 * (q + 1) + 1):
                assert _norm1_pow(x, e) == x ** e, (x, e)
            assert _norm1_pow(x, -5) == x ** -5, x

    def test_real_size(self):
        rng = random.Random("real-size trace ladder")
        one, minus_one = Fq2(1, 0, REAL_Q), Fq2(-1, 0, REAL_Q)
        values = _real_g2_values(rng, 3) + [one, minus_one]
        for x in values:
            for e in (0, 1, REAL_P - 1, REAL_P, REAL_H, rng.randrange(REAL_Q)):
                assert _norm1_pow(x, e) == x ** e, e
        for x in values[:3]:
            assert x ** REAL_P == one  # the values really lie in G2

    @pytest.mark.parametrize("q", [59, 83, 523])
    def test_final_exp_is_the_full_power(self, q):
        # Every nonzero f at q = 59 and 83, and a seeded sample at 523, with
        # the real and the imaginary f (fa*fb = 0) included.
        p = enumerate_and_validate(q).p
        if q < 100:
            values = [Fq2(a, b, q) for a in range(q) for b in range(q) if a or b]
        else:
            rng = random.Random("final exp")
            values = [Fq2(rng.randrange(q), rng.randrange(1, q), q) for _ in range(2000)]
            values += [Fq2(a, 0, q) for a in range(1, q)] + [Fq2(0, b, q) for b in range(1, q)]
        for f in values:
            assert _easy_part(f)[0] == f ** (q - 1), f
            assert _final_exp(f, p) == f ** ((q * q - 1) // p), f

    def test_final_exp_real_size(self):
        rng = random.Random("real-size final exp")
        f = _miller_at(_real_multiple(rng.randrange(1, REAL_P)), None, _random_curve_point(REAL_Q, rng), REAL_P, REAL_Q)
        for x in (f, Fq2(f.a, 0, REAL_Q), Fq2(0, f.b, REAL_Q)):
            assert _final_exp(x, REAL_P) == x ** ((REAL_Q * REAL_Q - 1) // REAL_P)

    def test_backend_g2_power_and_inverse(self, c59):
        backend = c59.backend
        for k in range(c59.p):
            z = backend.from_int(KIND_G2, k)
            assert z == backend.from_int(KIND_G2, 1) ** k
            assert backend.invert(KIND_G2, z) == z.inv()
            for m in range(2 * c59.p):
                assert backend.power(KIND_G2, z, m) == z ** m

    def test_backend_g1_inverse(self, c59):
        for pt in curve_points(c59.backend.q):
            inv = c59.backend.invert(KIND_G1, pt)
            assert on_curve(inv, c59.backend.q), pt
            assert naive_add(pt, inv, c59.backend.q) is None, pt


class TestG2SubgroupCheck:
    """decode_g2 accepts val exactly when val^p = 1, the check it replaced."""

    @pytest.mark.parametrize("q, accepted", [(59, 5), (83, 7)])
    def test_accepts_exactly_the_order_p_values(self, q, accepted):
        suite = tate_suite(q)
        w = suite.width(KIND_G2) // 2
        one = Fq2(1, 0, q)
        got, expect = set(), set()
        for a in range(q):
            for b in range(q):
                if Fq2(a, b, q) ** suite.p == one:
                    expect.add((a, b))
                try:
                    suite.decode_g2(a.to_bytes(w, "big") + b.to_bytes(w, "big"))
                except MalformedEncoding:
                    continue
                got.add((a, b))
        assert got == expect
        assert len(got) == accepted

    def test_real_size(self):
        backend = TateBackend(CurveParams(q=REAL_Q, p=REAL_P, h=REAL_H, gen=REAL_GEN))
        rng = random.Random("real-size decode_g2")
        for z in _real_g2_values(rng, 2):
            assert backend.decode(KIND_G2, backend.encode(KIND_G2, z)) == z
        f = Fq2(rng.randrange(REAL_Q), rng.randrange(REAL_Q), REAL_Q)
        norm1 = Fq2(f.a, -f.b, REAL_Q) * f.inv()  # norm 1, order not p
        assert norm1 ** REAL_P != Fq2(1, 0, REAL_Q)
        for bad in (norm1, f, Fq2(0, 0, REAL_Q)):
            with pytest.raises(MalformedEncoding):
                backend.decode(KIND_G2, backend.encode(KIND_G2, bad))


def _outcome(fn):
    try:
        return fn()
    except NotOnCurve as exc:
        return type(exc)


class TestPairingsEqual:
    """One final exponentiation per equality check against the two-pairing
    compare, exceptions included."""

    def test_every_quadruple_at_q59(self):
        suite = tate_suite(59)
        q = 59
        pts = [point_mul(k, suite.backend.params.gen, q) for k in range(suite.p)] + [(0, 0)]
        assert len(set(pts)) == 6
        elems = [G1Element(suite, pt) for pt in pts]
        for a in elems:
            for b in elems:
                for c in elems:
                    for d in elems:
                        expect = _outcome(lambda: suite.pairing(a, b) == suite.pairing(c, d))
                        assert _outcome(lambda: suite.pairings_equal(a, b, c, d)) == expect, (a, b, c, d)

    @pytest.mark.parametrize("q", [59, 83])
    def test_seeded_quadruples_and_every_vanishing_input(self, q):
        # Off-subgroup first arguments included, each of which raises
        # NotOnCurve both ways, as do those where the reference's lines
        # vanish.  Each point has one holder, so that most calls run warm.
        params = enumerate_and_validate(q)
        backend = TateBackend(params)
        pts = curve_points(q)
        holders = {pt: _holder() for pt in pts}
        finite = [pt for pt in pts if pt is not None]
        vanishing = []
        for a in finite:
            for b in finite:
                try:
                    reference_miller(a, b, params.p, q)
                except ReferenceDegenerate:
                    vanishing.append((a, b))
        assert vanishing
        rng = random.Random(f"pairings_equal {q}")
        quads = [tuple(rng.choice(pts) for _ in range(4)) for _ in range(2000)]
        for a, b in vanishing:
            c, d = rng.choice(pts), rng.choice(pts)
            quads += [(a, b, c, d), (c, d, a, b)]
        for a, b, c, d in quads:
            expect = _outcome(lambda: tate_pairing(a, b, params) == tate_pairing(c, d, params))
            assert _outcome(lambda: backend.pair_equal(a, b, c, d, holders[a], holders[c])) == expect, (a, b, c, d)

    def test_off_curve_still_rejected(self, c59):
        g = c59.g1
        bad = G1Element(c59, (1, 1))
        for args in ((bad, g, g, g), (g, g, g, bad)):
            with pytest.raises(NotOnCurve):
                c59.pairings_equal(*args)

    def test_charges_two_pairings_to_the_role(self):
        suite = tate_suite(59, counted=True)
        g = suite.g1
        with suite.role("verifier"):
            assert suite.pairings_equal(g, g ** 2, g ** 2, g)
        assert suite.counter.pairings == {"prover": 0, "verifier": 2}
        assert not suite.pairings_equal(g, g, g, g ** 2)  # outside a role: free
        assert suite.counter.pairings == {"prover": 0, "verifier": 2}

    def test_ddh_solve_exhaustive_q59(self):
        suite = tate_suite(59)
        g = suite.g1
        p = suite.p
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    assert suite.ddh_solve(g, g ** a, g ** b, g ** c) == (a * b % p == c), (a, b, c)

    def test_real_size(self):
        suite = suite_from_curve_params(REAL_Q, REAL_P, REAL_H, REAL_GEN)
        rng = random.Random("real-size pairings_equal")
        g = suite.g1
        a, b = suite.random_scalar(rng, nonzero=True), suite.random_scalar(rng, nonzero=True)
        assert suite.pairings_equal(g ** a, g ** b, g, g ** (a * b))
        assert not suite.pairings_equal(g ** a, g ** b, g, g ** (a * b + 1))


class TestWnafPointMul:
    """point_mul's signed-window branch against the affine oracle."""

    @pytest.mark.parametrize("q", [59, 83])
    def test_every_point_small_exponents_and_cofactor(self, q):
        params = enumerate_and_validate(q)
        p, h = params.p, params.h
        for pt in curve_points(q):
            for k in [*range(-2 * p, 2 * p + 1), h]:
                assert point_mul(k, pt, q) == naive_double_and_add(k, pt, q), (pt, k)

    def test_real_size(self):
        rng = random.Random("real-size wNAF")
        for base in (REAL_GEN, _random_curve_point(REAL_Q, rng)):
            for k in (REAL_P - 1, REAL_P, REAL_H, 2**352 - 1, rng.randrange(2**352)):
                assert point_mul(k, base, REAL_Q) == naive_double_and_add(k, base, REAL_Q), k


class TestCofactorFold:
    """_pair_equal_folded, which folds the cofactor h into the pairing and
    moves on past candidates that h sends to O, against pair_equal on the
    first cleared candidate, exceptions included."""

    @pytest.mark.parametrize("q", [59, 83])
    def test_every_key_and_candidate(self, q):
        # Every key of order p, and O, against every first candidate d,
        # (0, 0) included, with g after it.  Cold, with no holder, no c has
        # lines, and c's live walk gives t.  Keys off the subgroup raise
        # (TestSubgroupContract).
        params = enumerate_and_validate(q)
        backend = TateBackend(params)
        g, h = params.gen, params.h
        for warm, c in itertools.product((False, True), [None, *_by_order(q)[0]]):
            hg, hc = (_holder(), _holder()) if warm else (None, None)
            for _ in range(2):  # two uses build c's lines
                backend.pair(c, g, hc)
            for d in filter(None, curve_points(q)):
                hd = point_mul(h, d, q)
                for b in (g, point_mul(2, g, q)):
                    drawn = []

                    def candidates():
                        for pt in (d, g):
                            drawn.append(pt)
                            yield pt

                    got = _outcome(lambda: backend._pair_equal_folded(g, b, c, candidates(), hg, hc))
                    cleared = hd if hd is not None else point_mul(h, g, q)
                    assert got == _outcome(lambda: backend.pair_equal(g, b, c, cleared, hg, hc)), (b, c, d)
                    # It draws no candidate for c = O, and otherwise moves on
                    # exactly past a d with h * d infinity.
                    assert drawn == ([] if c is None else [d] if hd is not None else [d, g]), (b, c, d)

    def test_real_size(self):
        backend = suite_from_curve_params(REAL_Q, REAL_P, REAL_H, REAL_GEN).backend
        rng = random.Random("real-size fold")
        k = rng.randrange(1, REAL_P)
        key, warm, gen = naive_double_and_add(k, REAL_GEN, REAL_Q), _holder(), _holder()
        for _ in range(2):
            backend.pair(key, REAL_GEN, warm)
        for _ in range(2):
            d = _random_curve_point(REAL_Q, rng)
            hd = point_mul(REAL_H, d, REAL_Q)
            # e(gen, k * hd) = e(k * gen, hd) holds; one more hd breaks it.
            # With no holder the key stays cold.
            for b, expect in ((point_mul(k, hd, REAL_Q), True), (point_mul(k + 1, hd, REAL_Q), False)):
                assert backend.pair_equal(REAL_GEN, b, key, hd, gen, warm) is expect
                assert backend._pair_equal_folded(REAL_GEN, b, key, [d], gen, warm) is expect
                assert backend._pair_equal_folded(REAL_GEN, b, key, [d]) is expect


class TestSignedWalk:
    """The Miller loop over p's signed digits (its NAF) for first arguments
    of order p, against the walk over p's bits and the reference pairing."""

    def test_digits_rebuild_n(self):
        for n in range(1, 5000):
            digits = _loop_digits(n)
            value = 1  # the leading digit, where the walk starts
            for d in digits:
                value = 2 * value + d
            assert value == n, (n, digits)
            full = (1, *digits)
            assert not any(x and y for x, y in zip(full, full[1:])), n
        assert (1 + sum(map(abs, _loop_digits(REAL_P))), bin(REAL_P).count("1")) == (52, 90)

    @pytest.mark.parametrize("q", [59, 83])
    def test_signed_and_binary_walks_agree(self, q):
        # The package's walk over p's signed digits, live and stored, against
        # the same double-and-add loop over p's bits.
        params = enumerate_and_validate(q)
        p = params.p
        binary = tuple(map(int, bin(p)[3:]))
        for k in range(1, p):
            a = point_mul(k, params.gen, q)
            lines = _stored_walk(a, p, q)
            assert len(lines) == len(_loop_digits(p))
            for b in filter(None, curve_points(q)):  # (0, 0) included
                r, f = _double_and_add((*a, 1), binary, (None, a, point_neg(a, q)), q, b)
                expect = _final_exp(Fq2(*f, q), p)
                assert not r[2] and _final_exp(_miller_at(a, None, b, p, q), p) == expect, (a, b)
                assert _final_exp(_miller_stored(lines, b, q), p) == expect, (a, b)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("q", [59, 83])
    def test_backend_matches_reference(self, q, warm):
        params = enumerate_and_validate(q)
        g, p, h = params.gen, params.p, params.h
        subgroup = [point_mul(k, g, q) for k in range(1, p)]
        pts = curve_points(q)
        ref = {(a, b): reference_pairing(a, b, q, p, g) for a in subgroup for b in pts}
        backend = TateBackend(params)
        # Cold, no point has a holder.
        holders = {a: _holder() if warm else None for a in subgroup}
        if warm:
            for a in subgroup * 2:
                backend.pair(a, g, holders[a])
            assert all(backend._lines in holders[a].tables for a in subgroup)
        for a in subgroup:
            for b in pts:
                got = backend.pair(a, b, holders[a])
                assert (got.a, got.b) == ref[a, b], (a, b)
                for c in subgroup:
                    # d = m * b with e(c, d) = e(a, b), and three more.
                    m = (subgroup.index(a) + 1) * pow(subgroup.index(c) + 1, -1, p) % p
                    for d in (point_mul(m, b, q), point_mul(m + 1, b, q), (0, 0), g):
                        got = backend.pair_equal(a, b, c, d, holders[a], holders[c])
                        assert got == (ref[a, b] == ref[c, d]), (a, b, c, d)
            for c in subgroup:
                for pt in filter(None, pts):
                    # A pt that h sends to O moves the fold on to g.
                    hpt = point_mul(h, pt, q) or point_mul(h, g, q)
                    got = backend._pair_equal_folded(a, g, c, [pt, g], holders[a], holders[c])
                    assert got == (ref[a, g] == ref[c, hpt]), (a, c, pt)

    def test_real_size_generator_lines(self):
        lines = _stored_walk(REAL_GEN, REAL_P, REAL_Q)
        # 160 steps: 50 two-line products (c0, c1, c2, s0, s1) and 110
        # single lines (a, b).
        shapes = [len(step) for step in lines]
        assert (len(shapes), shapes.count(5), shapes.count(2)) == (160, 50, 110)


def _raises_not_on_curve(fn, *args):
    with pytest.raises(NotOnCurve):
        fn(*args)


class TestSubgroupContract:
    """A finite first pairing argument off the order-p subgroup raises
    NotOnCurve at each of the six pairing entry points, cold and warm,
    whatever the other arguments are, and never yields a value; and its
    holder never keeps a table."""

    @pytest.mark.parametrize("warm", [False, True])
    def test_off_subgroup_first_argument_raises(self, warm):
        for q in (59, 83):
            params = enumerate_and_validate(q)
            g, p = params.gen, params.p
            off = _by_order(q)[1]
            # O, a point of order p, the 2-torsion point and one off the subgroup.
            others = [None, g, (0, 0), off[-1]]
            for c in off:
                backend = TateBackend(params)
                # Cold, c has no holder; g's holder shares the generator's tables.
                hc, hg = (_holder(), _holder()) if warm else (None, None)
                if warm:
                    for _ in range(2):  # c's second use tries to make its lines
                        with pytest.raises(NotOnCurve):
                            backend.pair(c, g, hc)
                    assert hc.tables == {}  # the failed build left c marked, with no table
                for k in range(p):
                    _raises_not_on_curve(backend.pair_from_int, c, point_mul(k, g, q), k, hc)
                for x in others:
                    _raises_not_on_curve(tate_pairing, c, x, params)
                    _raises_not_on_curve(backend.pair, c, x, hc)
                    for first, second, holders in ((c, g, (hc, hg)), (g, c, (hg, hc))):
                        for data in (b"m3", b"m4"):
                            _raises_not_on_curve(backend.pair_equal_hashed, first, x, second, data, *holders)
                        for y in others:
                            _raises_not_on_curve(backend.pair_equal, first, x, second, y, *holders)
                            _raises_not_on_curve(backend._pair_equal_folded, first, x, second, [y, g], *holders)
                assert hc is None or hc.tables == {}

    def test_failed_builds_keep_a_warm_key(self):
        # Each off-subgroup point fails twice through its holder, the second
        # time in its table build; none of them keeps a table, and the warm
        # generator's lines stay the same object.
        params = enumerate_and_validate(59)
        backend, g, hg = TateBackend(params), params.gen, _holder()
        for _ in range(2):
            backend.pair(g, g, hg)
        lines = backend._stored(g, hg)
        off = _by_order(59)[1]
        holders = [_holder() for _ in off]
        for pt, h in zip(off, holders):
            for _ in range(2):
                _raises_not_on_curve(backend.pair, pt, g, h)
        assert all(h.tables == {} for h in holders)
        assert backend._stored(g, hg) is lines is backend._stored(g, _holder())


class TestPairFromInt:
    """pairing_from_int(a, b, k) for b = g^k, e(a, g)^k on a comb once a has
    stored lines, against pairing(a, b).  Cold, the backend gets no holder."""

    @staticmethod
    def _warm_up(suite, a):
        for _ in range(2):  # two uses build a's lines
            suite.pairing(a, suite.g1)

    @staticmethod
    def _pair_from_int(suite, a, b, k, warm):
        if warm:
            return suite.pairing_from_int(a, b, k).payload
        return suite.backend.pair_from_int(a.payload, b.payload, k)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("q", [59, 83])
    def test_every_point_and_exponent(self, q, warm):
        # Infinity and every point of order p; points off the subgroup raise
        # (TestSubgroupContract).
        params = enumerate_and_validate(q)
        suite = GroupSuite(TateBackend(params))
        combs = 0
        for pt in [None, *_by_order(q)[0]]:
            a = G1Element(suite, pt)
            if warm:
                self._warm_up(suite, a)
            for k in range(params.p):
                b = suite.g1_from_int(k)
                assert self._pair_from_int(suite, a, b, k, warm) == tate_pairing(pt, b.payload, params), (pt, k)
            combs += bool((a.tables or {}).get(suite.backend._pair_comb))
        # Warm, exactly the points of order p take the comb.
        assert combs == (params.p - 1 if warm else 0)

    @pytest.mark.parametrize("size", ["c523", "real"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_random_pairs(self, size, warm):
        params = enumerate_and_validate(523) if size == "c523" else CurveParams(REAL_Q, REAL_P, REAL_H, REAL_GEN)
        q, rng = params.q, random.Random(f"pair_from_int {size}")
        suite = GroupSuite(TateBackend(params))
        # A multiple of g, and a random curve point with its cofactor cleared.
        for pt in (point_mul(rng.randrange(1, params.p), params.gen, q), point_mul(params.h, _random_curve_point(q, rng), q)):
            a = G1Element(suite, pt)
            if warm:
                self._warm_up(suite, a)
            for k in (0, 1, params.p - 1, rng.randrange(params.p), rng.randrange(params.p)):
                b = point_mul(k, params.gen, q)
                expect = tate_pairing(pt, b, params)
                assert self._pair_from_int(suite, a, G1Element(suite, b), k, warm) == expect, (pt, k)
            assert ((a.tables or {}).get(suite.backend._pair_comb) is not None) == warm

    def test_charges_one_pairing_to_the_role(self):
        suite = tate_suite(59, counted=True)
        b = suite.g1_from_int(3)  # outside a role: free
        with suite.role("prover"):
            suite.pairing_from_int(suite.g1, b, 3)
        assert suite.counter.pairings == {"prover": 1, "verifier": 0}
        assert suite.counter.g1_exp == {"prover": 0, "verifier": 0}

    @pytest.mark.parametrize("size", ["c523", "real"])
    def test_cold_call_makes_no_g1_power(self, size, monkeypatch):
        # A cold call, a's first use, pairs a with the caller's b and makes
        # no g^k of its own.
        from pairid import tate

        params = enumerate_and_validate(523) if size == "c523" else CurveParams(REAL_Q, REAL_P, REAL_H, REAL_GEN)
        suite = GroupSuite(TateBackend(params))
        a, k = suite.g1_from_int(5), 7
        b = suite.g1_from_int(k)
        calls = []
        monkeypatch.setattr(tate, "point_mul", lambda *args: calls.append(args) or point_mul(*args))
        got = suite.pairing_from_int(a, b, k)
        assert calls == []
        assert got == suite.pairing(a, b)
