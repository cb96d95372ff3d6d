import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairid.algebra import MalformedEncoding, transparent_suite
from pairid.schemes import SCHEMES, SchemeId, default_scheme_params, keygen, run_session
from pairid.wire import (
    TAG_CHALLENGE,
    TAG_DECISION,
    TAG_ERROR,
    TAG_NAMES,
    LengthMismatch,
    ShortFrame,
    UnknownTag,
    decode_payload,
    encode_payload,
    frame_decode,
    frame_encode,
    payload_width,
)

VALID_TAGS = sorted(TAG_NAMES)


class TestFraming:
    def test_challenge_frame_vector(self, t11):
        # scalar 3 at p = 11: two-byte scalar, five-byte header+tag
        payload = encode_payload(("zp",), (t11.scalar(3),), t11)
        frame = frame_encode(TAG_CHALLENGE, payload)
        assert frame == bytes.fromhex("00000003030003")
        tag, body = frame_decode(frame)
        assert tag == TAG_CHALLENGE
        assert decode_payload(("zp",), body, t11) == (t11.scalar(3),)

    def test_empty_payload_is_five_bytes(self):
        frame = frame_encode(TAG_DECISION, b"")
        assert frame == bytes.fromhex("0000000105")
        assert frame_decode(frame) == (TAG_DECISION, b"")

    def test_round_trip_all_tags(self):
        for tag in VALID_TAGS:
            for payload in (b"", b"\x00", bytes(range(40))):
                assert frame_decode(frame_encode(tag, payload)) == (tag, payload)

    def test_short_buffer(self):
        with pytest.raises(ShortFrame):
            frame_decode(b"")
        with pytest.raises(ShortFrame):
            frame_decode(b"\x00\x00\x00\x01")
        # advertises 3 bytes after the header but carries only the tag
        with pytest.raises(ShortFrame):
            frame_decode(b"\x00\x00\x00\x03\x05")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            frame_decode(b"\x00\x00\x00\x00\x05")  # length 0 cannot cover the tag
        with pytest.raises(LengthMismatch):
            frame_decode(frame_encode(TAG_ERROR, b"xy") + b"z")  # trailing byte

    def test_unknown_tag(self):
        with pytest.raises(UnknownTag):
            frame_encode(0x07, b"")
        with pytest.raises(UnknownTag):
            frame_decode(b"\x00\x00\x00\x01\x00")
        with pytest.raises(UnknownTag):
            frame_decode(b"\x00\x00\x00\x01\x4f")

    @given(tag=st.sampled_from(VALID_TAGS), payload=st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, tag, payload):
        assert frame_decode(frame_encode(tag, payload)) == (tag, payload)

    @given(data=st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_decode_never_crashes_outside_wire_errors(self, data):
        try:
            tag, payload = frame_decode(data)
        except (ShortFrame, LengthMismatch, UnknownTag):
            return
        assert frame_encode(tag, payload) == data


class TestPayloadCodecs:
    @pytest.mark.parametrize("fixture", ["t1009", "c59"])
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_message_round_trips(self, scheme, fixture, request):
        suite = request.getfixturevalue(fixture)
        kp = keygen(scheme, suite, random.Random(3))
        t = run_session(scheme, kp, suite, seed=5)
        ops = SCHEMES[scheme]
        for fields, values in [
            (ops.commitment_fields, t.commitment),
            (ops.challenge_fields, t.challenge),
            (ops.response_fields, t.response),
        ]:
            data = encode_payload(fields, values, suite)
            assert len(data) == payload_width(fields, suite)
            assert decode_payload(fields, data, suite) == values

    def test_field_count_mismatch(self, t11):
        with pytest.raises(ValueError):
            encode_payload(("zp", "zp"), (t11.scalar(1),), t11)

    def test_kind_mismatch_rejected(self, t11):
        with pytest.raises(MalformedEncoding):
            encode_payload(("g2",), (t11.g1,), t11)
        with pytest.raises(MalformedEncoding):
            encode_payload(("g1",), (t11.g2,), t11)

    def test_bitstring_width_enforced(self, t11):
        params = default_scheme_params(t11)
        assert params.n == 4
        data = encode_payload(("nbits",), (b"\x0c",), t11)
        assert decode_payload(("nbits",), data, t11) == (b"\x0c",)
        with pytest.raises(MalformedEncoding):
            encode_payload(("nbits",), (b"\x00\x0c",), t11)
        with pytest.raises(MalformedEncoding):
            decode_payload(("nbits",), b"\x1c", t11)  # 28 >= 2^4

    def test_truncated_and_oversized_payloads(self, t11):
        data = encode_payload(("g1", "zp"), (t11.g1, t11.scalar(5)), t11)
        with pytest.raises(MalformedEncoding):
            decode_payload(("g1", "zp"), data[:-1], t11)
        with pytest.raises(MalformedEncoding):
            decode_payload(("g1", "zp"), data + b"\x00", t11)

    def test_unreduced_scalar_rejected(self, t11):
        with pytest.raises(MalformedEncoding):
            decode_payload(("zp",), (12).to_bytes(2, "big"), t11)

    def test_curve_point_validation_applies(self, c59):
        # a valid frame can still carry an off-subgroup point; decode refuses
        from oracles import curve_points, point_order_naive

        outside = next(
            pt for pt in curve_points(59)
            if pt is not None and point_order_naive(pt, 59) != 5
        )
        x, y = outside
        flag = 0x02 if y % 2 == 0 else 0x03
        raw = bytes([flag]) + x.to_bytes(2, "big")
        with pytest.raises(MalformedEncoding):
            decode_payload(("g1",), raw, c59)

    @given(v=st.integers(0, 1008), w=st.integers(0, 1008))
    @settings(max_examples=60, deadline=None)
    def test_two_field_round_trip_property(self, v, w):
        suite = transparent_suite(1009)
        values = (suite.g1_from_int(v), suite.scalar(w))
        data = encode_payload(("g1", "zp"), values, suite)
        assert decode_payload(("g1", "zp"), data, suite) == values
