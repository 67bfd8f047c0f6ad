"""Canonical, injective serialization for signed material.

Every byte string that is signed or MACed in this library is produced by
:func:`encode`.  The encoding is a small deterministic tag-length-value (TLV)
scheme with the two properties signatures require:

* **Canonical** — a given value has exactly one encoding, so signer and
  verifier always agree on the bytes.
* **Injective** — distinct values have distinct encodings, so a signature
  over one value can never be replayed as a signature over another
  (no ``("ab","c")`` / ``("a","bc")`` ambiguity).

Supported value types (closed set, on purpose):

====== =========================================
tag    Python type
====== =========================================
``N``  ``None``
``F``  ``bool`` (``F\\x00`` false / ``F\\x01`` true)
``I``  ``int`` (arbitrary precision, signed)
``D``  ``float`` (IEEE-754 big-endian, +inf allowed for NEVER)
``B``  ``bytes``
``S``  ``str`` (UTF-8)
``L``  ``list``/``tuple`` (encoded as list)
``M``  ``dict`` with ``str`` keys (sorted by key)
====== =========================================

Lengths are encoded as 4-byte big-endian unsigned integers, which bounds any
single field at 4 GiB — far beyond anything a proxy certificate carries.
Containers nest at most :data:`MAX_DEPTH` deep; beyond that both directions
raise their typed error, never ``RecursionError``.

Each direction is one pass over the bytes.  :func:`encode` appends into a
single ``bytearray`` (a container reserves its header and patches the length
in once its payload is behind it); :func:`decode` walks the input in place
and slices out only the scalars it returns.  The bytes are the ones the
recursive ``tag + len + payload`` construction produced — the tests keep that
construction as their reference.

:func:`encoded_size` is ``len(encode(value))`` without the bytes: every
header is 5 bytes, so one walk adds up payload lengths and builds, sorts
and packs nothing.  It is how ``Message.wire_size`` meters the network.  A
value it cannot size is handed to :func:`encode`, so it refuses exactly
what :func:`encode` refuses, with the same error.
"""

from __future__ import annotations

import math
import struct
from typing import Any

from repro.errors import DecodingError, EncodingError

#: Containers may nest this deep and no deeper, in both directions, so a
#: hostile frame is a typed error instead of a ``RecursionError``.  The
#: deepest value any figure, WAL record or snapshot produces nests 11 deep
#: (``tests/test_depth_limit.py`` measures it).
MAX_DEPTH = 64

_LEN = struct.Struct(">I")
_F64 = struct.Struct(">d")
_HEAD = struct.Struct(">BI")  # tag byte + payload length
_FLOAT = struct.Struct(">BId")

_NONE = b"N\x00\x00\x00\x00"
_FALSE = b"F\x00\x00\x00\x01\x00"
_TRUE = b"F\x00\x00\x00\x01\x01"

_N, _F, _I, _D, _B, _S, _L, _M = b"NFIDBSLM"


def encode(value: Any) -> bytes:
    """Canonically encode ``value`` into bytes.

    Raises:
        EncodingError: if the value (or any nested element) is of an
            unsupported type, a dict has non-string keys, or containers
            nest deeper than :data:`MAX_DEPTH`.
    """
    out = bytearray()
    _encode_into(out, value, type(value), 0)
    return bytes(out)


def _encode_into(out: bytearray, value: Any, kind: type, depth: int) -> None:
    """Append the encoding of ``value`` (whose ``type`` is ``kind``) to ``out``.

    One pass, one buffer: scalars append header and payload, containers
    reserve their 5-byte header and patch the length once the payload is
    behind it.  Exact types are tested first; anything else is mapped to
    the type it subclasses by :func:`_base_kind` and comes round again.
    """
    if kind is str:
        payload = value.encode("utf-8")
        out += _HEAD.pack(_S, len(payload))
        out += payload
    elif kind is bytes:
        out += _HEAD.pack(_B, len(value))
        out += value
    elif kind is int:
        length = (value.bit_length() + 8) // 8 or 1
        out += _HEAD.pack(_I, length)
        out += value.to_bytes(length, "big", signed=True)
    elif kind is dict:
        if depth >= MAX_DEPTH:
            raise EncodingError(f"nesting deeper than {MAX_DEPTH}")
        depth += 1
        header = len(out)
        out += b"M\x00\x00\x00\x00"
        try:
            keys = sorted(value)
        except TypeError:
            # Keys of mixed types do not order; name the first non-str one.
            key = next(k for k in value if not isinstance(k, str))
            raise EncodingError(
                f"dict keys must be str, got {type(key).__name__}"
            ) from None
        for key in keys:
            if not isinstance(key, str):
                raise EncodingError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            _encode_into(out, key, str, depth)
            item = value[key]
            _encode_into(out, item, type(item), depth)
        _LEN.pack_into(out, header + 1, len(out) - header - 5)
    elif kind is list or kind is tuple:
        if depth >= MAX_DEPTH:
            raise EncodingError(f"nesting deeper than {MAX_DEPTH}")
        depth += 1
        header = len(out)
        out += b"L\x00\x00\x00\x00"
        for item in value:
            _encode_into(out, item, type(item), depth)
        _LEN.pack_into(out, header + 1, len(out) - header - 5)
    elif value is None:
        out += _NONE
    elif kind is bool:
        out += _TRUE if value else _FALSE
    elif kind is float:
        if math.isnan(value):
            raise EncodingError("NaN has no canonical encoding")
        out += _FLOAT.pack(_D, 8, value)
    else:
        _encode_into(out, value, _base_kind(value), depth)


def encoded_size(value: Any) -> int:
    """``len(encode(value))``, without building the bytes.

    One walk that adds up header and payload lengths: no buffer, no key
    sort, no packing.  What the walk does not take — an unsupported type,
    a non-``str`` key, NaN, a lone surrogate, nesting past
    :data:`MAX_DEPTH` — it hands to :func:`encode`, so a refusal is
    :func:`encode`'s own, in its order and with its message.
    """
    try:
        return 5 + _payload_size(value, type(value), 0)
    except (EncodingError, UnicodeEncodeError):
        # The walk stops at the first refusal in dict insertion order;
        # encode meets them in key order.  Let it say which one it is.
        return len(encode(value))


def _payload_size(value: Any, kind: type, depth: int) -> int:
    """The payload length of ``value``'s encoding (its header is 5 bytes).

    Mirrors :func:`_encode_into` branch for branch and raises
    :class:`EncodingError` where that would refuse.
    """
    if kind is str:
        return len(value) if value.isascii() else len(value.encode("utf-8"))
    if kind is bytes:
        return len(value)
    if kind is int:
        return (value.bit_length() + 8) // 8 or 1
    if kind is dict:
        if depth >= MAX_DEPTH:
            raise EncodingError(f"nesting deeper than {MAX_DEPTH}")
        depth += 1
        size = 10 * len(value)  # a key header and a value header per item
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError("dict keys must be str")
            size += len(key) if key.isascii() else len(key.encode("utf-8"))
            size += _payload_size(item, type(item), depth)
        return size
    if kind is list or kind is tuple:
        if depth >= MAX_DEPTH:
            raise EncodingError(f"nesting deeper than {MAX_DEPTH}")
        depth += 1
        size = 5 * len(value)
        for item in value:
            size += _payload_size(item, type(item), depth)
        return size
    if value is None:
        return 0
    if kind is bool:
        return 1
    if kind is float:
        if math.isnan(value):
            raise EncodingError("NaN has no canonical encoding")
        return 8
    return _payload_size(value, _base_kind(value), depth)


def _base_kind(value: Any) -> type:
    """The supported type a subclass instance (``IntEnum``, a ``str``
    subclass, ...) encodes as.  ``bool`` cannot be subclassed, so it never
    arrives here and ``int`` cannot claim it."""
    for kind in (int, float, bytes, str, list, tuple, dict):
        if isinstance(value, kind):
            return kind
    raise EncodingError(f"unsupported type: {type(value).__name__}")


def decode(data: bytes) -> Any:
    """Decode a byte string produced by :func:`encode`.

    Raises:
        DecodingError: on truncation, trailing garbage, unknown tags,
            non-canonical integer encodings, or containers nested deeper
            than :data:`MAX_DEPTH`.
    """
    value, consumed = _decode_one(data, 0, 0)
    if consumed != len(data):
        raise DecodingError(
            f"trailing garbage: {len(data) - consumed} bytes after value"
        )
    return value


def _decode_one(data: bytes, offset: int, depth: int) -> tuple:
    """Decode the TLV at ``offset``; returns ``(value, end offset)``.

    Dispatches on the tag byte and slices a payload only for the scalar
    that is built from it — containers walk ``data`` in place.
    """
    start = offset + 5
    if start > len(data):
        raise DecodingError("truncated TLV header")
    tag = data[offset]
    (length,) = _LEN.unpack_from(data, offset + 1)
    end = start + length
    if end > len(data):
        raise DecodingError("truncated TLV payload")

    if tag == _S:
        try:
            return data[start:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise DecodingError(f"invalid UTF-8 in string: {exc}") from exc
    if tag == _M:
        if depth >= MAX_DEPTH:
            raise DecodingError(f"nesting deeper than {MAX_DEPTH}")
        depth += 1
        result = {}
        pos = start
        previous_key = None
        while pos < end:
            key, pos = _decode_one(data, pos, depth)
            if type(key) is not str:
                raise DecodingError("dict key must decode to str")
            if previous_key is not None and key <= previous_key:
                raise DecodingError("dict keys not in canonical sorted order")
            if pos >= end:
                raise DecodingError("dict key without value")
            result[key], pos = _decode_one(data, pos, depth)
            previous_key = key
        if pos != end:
            raise DecodingError("dict payload overran its length")
        return result, end
    if tag == _B:
        return data[start:end], end
    if tag == _I:
        if not length:
            raise DecodingError("int payload must be non-empty")
        value = int.from_bytes(data[start:end], "big", signed=True)
        # Reject non-minimal encodings so decoding is injective too.
        if length != ((value.bit_length() + 8) // 8 or 1):
            raise DecodingError("non-canonical int encoding")
        return value, end
    if tag == _L:
        if depth >= MAX_DEPTH:
            raise DecodingError(f"nesting deeper than {MAX_DEPTH}")
        depth += 1
        items = []
        pos = start
        while pos < end:
            item, pos = _decode_one(data, pos, depth)
            items.append(item)
        if pos != end:
            raise DecodingError("list payload overran its length")
        return items, end
    if tag == _N:
        if length:
            raise DecodingError("None payload must be empty")
        return None, end
    if tag == _F:
        if length != 1 or data[start] > 1:
            raise DecodingError("bool payload must be 00 or 01")
        return data[start] == 1, end
    if tag == _D:
        if length != 8:
            raise DecodingError("float payload must be 8 bytes")
        (value,) = _F64.unpack_from(data, start)
        if math.isnan(value):
            raise DecodingError("NaN is not a canonical value")
        return value, end
    raise DecodingError(f"unknown tag {data[offset:offset + 1]!r}")
