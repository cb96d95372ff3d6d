"""Plain-text persistence for keys, transcripts, and game reports.

Records are line-oriented: a `pairid-record <kind> v1` header, then
`name = value` lines.  Group elements and scalars are stored as hex over the
same fixed-width encodings the wire uses, and every record embeds enough
suite description (backend, p, and the curve parameters when applicable) to
rebuild the suite on load.  Secret fields live under sk.*; a key record
without them loads as a public key.  A record's n and hash.mode are always
its suite's own and its hash.key is always empty, so any other is refused;
loading returns them as the suite's SchemeParams.  A p or q wider than
MAX_BITS is refused before any arithmetic runs on it.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import suppress

from .algebra import GroupSuite, MalformedEncoding, transparent_suite
from .schemes import SCHEMES, SchemeId, SchemeParams, Transcript, default_scheme_params
from .tate import suite_from_curve_params
from .wire import decode_payload, encode_payload

MAGIC = "pairid-record"
VERSION = "v1"
# Loading tests p and q for primality, which takes seconds at a few thousand
# bits; 1,024 bits is twice the q of the real-size curve.
MAX_BITS = 1024


class RecordError(Exception):
    """Record file is missing, malformed, or of the wrong kind."""


def _write(path, kind: str, fields: dict, secret: bool = False):
    """Write the record at path.  A secret record goes to a temporary file of mode 0600 beside
    it, then into place, so no umask or mode of a file it replaces lets others read it."""
    text = "\n".join([f"{MAGIC} {kind} {VERSION}"] + [f"{name} = {value}" for name, value in fields.items()]) + "\n"
    if not secret:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".pairid-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _parse(text: str, expect_kind: str) -> dict:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise RecordError("empty record")
    header = lines[0].split()
    if len(header) != 3 or header[0] != MAGIC or header[2] != VERSION:
        raise RecordError(f"bad header line {lines[0]!r}")
    if header[1] != expect_kind:
        raise RecordError(f"expected a {expect_kind} record, found {header[1]}")
    fields: dict = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise RecordError(f"not a name = value line: {ln!r}")
        name, value = ln.split("=", 1)
        name = name.strip()
        if name in fields:
            raise RecordError(f"duplicate field {name!r}")
        fields[name] = value.strip()
    return fields


def _field(fields: dict, name: str, parse=str):
    """Field `name` read through parse; a missing or unparsable value is a
    RecordError that names the field."""
    if name not in fields:
        raise RecordError(f"record has no {name!r} field")
    try:
        return parse(fields[name])
    except (ValueError, MalformedEncoding) as exc:
        raise RecordError(f"bad {name!r} field: {exc}") from exc


def _bounded_int(text: str) -> int:
    """A parser for _field: a decimal integer no wider than MAX_BITS."""
    value = int(text)
    if value.bit_length() > MAX_BITS:
        raise ValueError(f"{value.bit_length()} bits is wider than {MAX_BITS}")
    return value


def _unhex(kinds: tuple, suite: GroupSuite):
    """A parser for _field: hex text to the values of a payload of these kinds."""
    return lambda text: decode_payload(kinds, bytes.fromhex(text), suite)


def _head(scheme: SchemeId, suite: GroupSuite, params: SchemeParams) -> dict:
    """The fields every key and transcript record opens with."""
    return {
        "scheme": scheme.value,
        **suite.describe(),
        "n": str(params.n),
        "hash.mode": params.hash_spec.mode.value,
        "hash.key": "",
    }


def _suite_from_fields(fields: dict) -> GroupSuite:
    backend = fields.get("backend")
    if backend == "transparent":
        return _field(fields, "p", lambda text: transparent_suite(_bounded_int(text)))
    if backend == "tate":
        q, p = (_field(fields, name, _bounded_int) for name in ("q", "p"))
        h, gen = _field(fields, "h", int), _field(fields, "gen")
        try:
            x, y = gen.split(",")  # exactly two integers; any other count is a ValueError
            return suite_from_curve_params(q, p, h, (int(x), int(y)))
        except (ValueError, ArithmeticError) as exc:
            raise RecordError(f"bad curve fields q, p, h, gen: {exc}") from exc
    raise RecordError(f"unknown backend {backend!r}")


def _read(path, expect_kind: str):
    """Returns (fields, scheme, suite, params) of a key or transcript record."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            fields = _parse(fh.read(), expect_kind)
    except (OSError, UnicodeDecodeError) as exc:
        raise RecordError(f"cannot read record {path}: {exc}") from exc
    scheme = _field(fields, "scheme", SchemeId)
    suite = _suite_from_fields(fields)
    params = default_scheme_params(suite)
    for name, own in (("n", str(params.n)), ("hash.mode", params.hash_spec.mode.value)):
        if _field(fields, name) != own:
            raise RecordError(f"field {name!r} is {fields[name]!r}, but this suite's is {own!r}")
    if fields.get("hash.key"):
        raise RecordError(f"field 'hash.key' is {fields['hash.key']!r}, but it is always empty")
    return fields, scheme, suite, params


def save_key(path, scheme: SchemeId, kp, params: SchemeParams, include_secret: bool = True):
    scheme = SchemeId(scheme)
    if not isinstance(kp, SCHEMES[scheme].keypair):
        raise RecordError(f"a {type(kp).__name__} is not a {scheme.value} key")
    if include_secret and not kp.has_secret:
        raise RecordError("keypair has no secret to save")
    fields = _head(scheme, kp.suite, params)
    for name, kind in kp.PUBLIC:
        fields[f"pk.{name}"] = encode_payload((kind,), (getattr(kp, name),), kp.suite).hex()
    if include_secret:
        for name, kind in kp.SECRET:
            fields[f"sk.{name}"] = encode_payload((kind,), (getattr(kp, name),), kp.suite).hex()
    _write(path, "key", fields, secret=include_secret)


def load_key(path):
    """Returns (scheme, keypair, params); the keypair is public-only when
    the record carries no sk.* fields."""
    fields, scheme, suite, params = _read(path, "key")
    cls = SCHEMES[scheme].keypair
    values = {name: _field(fields, f"pk.{name}", _unhex((kind,), suite))[0] for name, kind in cls.PUBLIC}
    have = [name for name, _ in cls.SECRET if f"sk.{name}" in fields]
    if have and len(have) != len(cls.SECRET):
        raise RecordError("record has a partial secret key")
    for name, kind in cls.SECRET:
        values[name] = _field(fields, f"sk.{name}", _unhex((kind,), suite))[0] if have else None
    return scheme, cls(suite, **values), params


def save_transcript(path, t: Transcript, suite: GroupSuite, params: SchemeParams):
    scheme = SchemeId(t.scheme)
    ops = SCHEMES[scheme]
    fields = _head(scheme, suite, params)
    if t.rng_seed is not None:
        seed = str(t.rng_seed)
        # Loading reads one stripped ASCII line per field; refuse a seed that
        # would not come back as written.
        if seed != seed.strip() or len(seed.splitlines()) > 1 or not seed.isascii():
            raise RecordError(f"field 'seed' cannot hold {seed!r}: it must be one ASCII line "
                              "without leading or trailing whitespace")
        fields["seed"] = seed
    fields["commitment"] = encode_payload(ops.commitment_fields, t.commitment, suite).hex()
    fields["challenge"] = encode_payload(ops.challenge_fields, t.challenge, suite).hex()
    fields["response"] = encode_payload(ops.response_fields, t.response, suite).hex()
    fields["decision"] = "accept" if t.decision else "reject"
    _write(path, "transcript", fields)


def load_transcript(path):
    """Returns (transcript, suite, params)."""
    fields, scheme, suite, params = _read(path, "transcript")
    ops = SCHEMES[scheme]
    if _field(fields, "decision") not in ("accept", "reject"):
        raise RecordError(f"field 'decision' must be accept or reject, not {fields['decision']!r}")
    t = Transcript(
        scheme=scheme,
        commitment=_field(fields, "commitment", _unhex(ops.commitment_fields, suite)),
        challenge=_field(fields, "challenge", _unhex(ops.challenge_fields, suite)),
        response=_field(fields, "response", _unhex(ops.response_fields, suite)),
        decision=_field(fields, "decision") == "accept",
        rng_seed=fields.get("seed"),
    )
    return t, suite, params


def save_report(path, report):
    fields = {
        "game": report.game,
        "trials": str(report.trials),
        "wins": str(report.wins),
        "advantage": f"{report.advantage:.6f}",
        "seconds": f"{report.seconds:.3f}",
    }
    for key, value in sorted(report.params.items()):
        fields[f"param.{key}"] = str(value)
    for key, value in sorted(report.queries.items()):
        fields[f"query.{key}"] = str(value)
    _write(path, "report", fields)
