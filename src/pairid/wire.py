"""Length-prefixed framing and fixed-width payload codecs.

Frame layout: a 4-byte big-endian length, one tag byte, then the payload.
The length covers the tag byte plus the payload, so the shortest legal
frame is five bytes (empty payload).  Tags:

  0x01 hello       0x02 commitment   0x03 challenge
  0x04 response    0x05 decision     0x06 error

Payloads are concatenations of fixed-width fields.  Scalars and transparent
group elements occupy max(2, ceil(bits(p)/8)) bytes; curve points are one
flag byte (0x00 infinity, 0x02/0x03 even/odd y) plus an x-coordinate; curve
G2 values are two field coordinates.  Bit-string challenges occupy
ceil(n/8) bytes for the suite's n = bits(p - 1).  Decoding rejects
unreduced values, strings over n bits and off-subgroup elements, so a
frame either parses to valid suite objects or raises.
"""

from __future__ import annotations

from .algebra import KIND_BITS, KIND_G1, KIND_ZP, GroupSuite, MalformedEncoding, PeerError

TAG_HELLO = 0x01
TAG_COMMITMENT = 0x02
TAG_CHALLENGE = 0x03
TAG_RESPONSE = 0x04
TAG_DECISION = 0x05
TAG_ERROR = 0x06

TAG_NAMES = {
    TAG_HELLO: "hello",
    TAG_COMMITMENT: "commitment",
    TAG_CHALLENGE: "challenge",
    TAG_RESPONSE: "response",
    TAG_DECISION: "decision",
    TAG_ERROR: "error",
}


class ShortFrame(PeerError):
    """Buffer ends before the advertised frame does."""


class LengthMismatch(PeerError):
    """Advertised length is impossible or leaves trailing bytes."""


class UnknownTag(PeerError):
    """Tag byte is not one of the assigned values."""


def _checked_tag(tag: int) -> int:
    if tag not in TAG_NAMES:
        raise UnknownTag(f"tag {tag:#04x} is not assigned")
    return tag


def frame_length(header: bytes) -> int:
    """The length field of a frame header: the tag byte plus the payload."""
    length = int.from_bytes(header[:4], "big")
    if length < 1:
        raise LengthMismatch("length field must cover at least the tag byte")
    return length


def frame_encode(tag: int, payload: bytes) -> bytes:
    _checked_tag(tag)
    return (len(payload) + 1).to_bytes(4, "big") + bytes([tag]) + payload


def frame_decode(buf: bytes) -> tuple[int, bytes]:
    """Parse one complete frame; the buffer must hold exactly one frame."""
    if len(buf) < 5:
        raise ShortFrame(f"{len(buf)} bytes is shorter than any frame")
    length = frame_length(buf)
    if len(buf) < 4 + length:
        raise ShortFrame(f"frame advertises {length} bytes but only {len(buf) - 4} follow")
    if len(buf) > 4 + length:
        raise LengthMismatch(f"{len(buf) - 4 - length} trailing bytes after the frame")
    return _checked_tag(buf[4]), bytes(buf[5:])


def payload_width(fields: tuple, suite: GroupSuite) -> int:
    return sum(suite.width(kind) for kind in fields)


def encode_payload(fields: tuple, values: tuple, suite: GroupSuite) -> bytes:
    """The payload of values, one per field kind; a value that is not its
    kind in the suite (GroupSuite.holds) raises MalformedEncoding."""
    if len(fields) != len(values):
        raise ValueError("field/value count mismatch")
    out = bytearray()
    for kind, value in zip(fields, values):
        if not suite.holds(kind, value):
            raise MalformedEncoding(f"expected a {kind} value of this suite")
        if kind == KIND_BITS:
            if len(value) != suite.width(KIND_BITS):
                raise MalformedEncoding("bit-string field has the wrong byte length")
            out += value
        elif kind == KIND_ZP:
            out += suite.encode_scalar(value)
        else:
            out += suite.encode_element(value)
    return bytes(out)


def decode_payload(fields: tuple, data: bytes, suite: GroupSuite) -> tuple:
    values = []
    pos = 0
    for kind in fields:
        width = suite.width(kind)
        chunk = data[pos : pos + width]
        if len(chunk) != width:
            raise MalformedEncoding(f"payload ends inside a {kind} field")
        if kind == KIND_BITS:
            if int.from_bytes(chunk, "big") >> suite.n:
                raise MalformedEncoding(f"bit-string value does not fit in {suite.n} bits")
            values.append(chunk)
        elif kind == KIND_ZP:
            values.append(suite.decode_scalar(chunk))
        elif kind == KIND_G1:
            values.append(suite.decode_g1(chunk))
        else:
            values.append(suite.decode_g2(chunk))
        pos += width
    if pos != len(data):
        raise MalformedEncoding(f"{len(data) - pos} unparsed bytes after the last field")
    return tuple(values)
