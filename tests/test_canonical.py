"""Canonical TLV encoding: round-trips, canonicality, and rejection paths."""

import math

import pytest

from repro.encoding.canonical import decode, encode
from repro.errors import DecodingError, EncodingError


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            255,
            256,
            -256,
            2**64,
            -(2**64),
            2**521 - 1,
            0.0,
            1.5,
            -273.15,
            float("inf"),
            float("-inf"),
            b"",
            b"\x00\xff",
            b"binary \x01\x02",
            "",
            "hello",
            "uniçode ☃",
            [],
            [1, 2, 3],
            ["mixed", 1, None, b"x"],
            [[1], [2, [3]]],
            {},
            {"a": 1},
            {"nested": {"k": [1, 2]}, "b": b"v"},
        ],
    )
    def test_round_trip(self, value):
        assert decode(encode(value)) == value

    def test_tuple_encodes_as_list(self):
        assert decode(encode((1, 2))) == [1, 2]

    def test_dict_key_order_irrelevant(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert encode(a) == encode(b)


class TestInjectivity:
    """Distinct values must encode differently (signature safety)."""

    @pytest.mark.parametrize(
        "left,right",
        [
            (["ab", "c"], ["a", "bc"]),
            ([b"ab", b"c"], [b"a", b"bc"]),
            ([1, [2]], [[1], 2]),
            ("1", 1),
            (b"1", "1"),
            (1, 1.0),
            (True, 1),
            (False, 0),
            (None, b""),
            ([], {}),
            ({"a": [1, 2]}, {"a": [1], "b": [2]}),
        ],
    )
    def test_distinct_values_distinct_encodings(self, left, right):
        assert encode(left) != encode(right)


class TestRejection:
    def test_nan_rejected_on_encode(self):
        with pytest.raises(EncodingError):
            encode(float("nan"))

    def test_unsupported_type(self):
        with pytest.raises(EncodingError):
            encode(object())

    def test_set_unsupported(self):
        with pytest.raises(EncodingError):
            encode({1, 2})

    def test_non_string_dict_key(self):
        with pytest.raises(EncodingError):
            encode({1: "x"})

    @pytest.mark.parametrize(
        "value, culprit",
        [({1: "a", "b": 2}, "int"), ({b"x": 1, "y": 2}, "bytes")],
    )
    def test_mixed_type_dict_keys(self, value, culprit):
        # sorted() cannot order these; that must not escape as TypeError.
        with pytest.raises(
            EncodingError, match=f"dict keys must be str, got {culprit}"
        ):
            encode(value)

    def test_trailing_garbage(self):
        with pytest.raises(DecodingError):
            decode(encode(1) + b"\x00")

    def test_truncated_header(self):
        with pytest.raises(DecodingError):
            decode(b"I\x00\x00")

    def test_truncated_payload(self):
        data = encode(b"hello")
        with pytest.raises(DecodingError):
            decode(data[:-1])

    def test_unknown_tag(self):
        with pytest.raises(DecodingError):
            decode(b"Z\x00\x00\x00\x00")

    def test_non_minimal_int_rejected(self):
        # 1 encoded with an extra leading zero byte.
        bad = b"I" + (2).to_bytes(4, "big") + b"\x00\x01"
        with pytest.raises(DecodingError):
            decode(bad)

    def test_bad_bool_payload(self):
        bad = b"F" + (1).to_bytes(4, "big") + b"\x02"
        with pytest.raises(DecodingError):
            decode(bad)

    def test_unsorted_dict_keys_rejected(self):
        # Manually build {"b":1,"a":2} in the wrong order.
        inner = encode("b") + encode(1) + encode("a") + encode(2)
        bad = b"M" + len(inner).to_bytes(4, "big") + inner
        with pytest.raises(DecodingError):
            decode(bad)

    def test_duplicate_dict_keys_rejected(self):
        inner = encode("a") + encode(1) + encode("a") + encode(2)
        bad = b"M" + len(inner).to_bytes(4, "big") + inner
        with pytest.raises(DecodingError):
            decode(bad)

    def test_dict_key_without_value(self):
        inner = encode("a")
        bad = b"M" + len(inner).to_bytes(4, "big") + inner
        with pytest.raises(DecodingError):
            decode(bad)

    def test_invalid_utf8_string(self):
        bad = b"S" + (2).to_bytes(4, "big") + b"\xff\xfe"
        with pytest.raises(DecodingError):
            decode(bad)

    def test_nan_float_payload_rejected(self):
        import struct

        bad = b"D" + (8).to_bytes(4, "big") + struct.pack(">d", math.nan)
        with pytest.raises(DecodingError):
            decode(bad)

    def test_empty_int_payload(self):
        bad = b"I" + (0).to_bytes(4, "big")
        with pytest.raises(DecodingError):
            decode(bad)


def _tlv(tag: bytes, payload: bytes) -> bytes:
    return tag + len(payload).to_bytes(4, "big") + payload


class TestRejectionMessages:
    """Every malformed frame is refused with the message — and, where a
    frame has two defects, the precedence — the decoder has always had."""

    @pytest.mark.parametrize(
        "blob,message",
        [
            (b"", "truncated TLV header"),
            (b"I\x00\x00", "truncated TLV header"),
            (_tlv(b"B", b"hello")[:-1], "truncated TLV payload"),
            # Truncation is noticed before the tag is looked at.
            (b"Z\x00\x00\x00\x05ab", "truncated TLV payload"),
            (_tlv(b"Z", b""), "unknown tag b'Z'"),
            (encode(1) + b"\x00", "trailing garbage: 1 bytes after value"),
            (_tlv(b"I", b""), "int payload must be non-empty"),
            (_tlv(b"I", b"\x00\x01"), "non-canonical int encoding"),
            (_tlv(b"I", b"\xff\xff"), "non-canonical int encoding"),
            (_tlv(b"F", b"\x02"), "bool payload must be 00 or 01"),
            (_tlv(b"F", b""), "bool payload must be 00 or 01"),
            (_tlv(b"F", b"\x00\x00"), "bool payload must be 00 or 01"),
            (_tlv(b"N", b"\x00"), "None payload must be empty"),
            (_tlv(b"D", b"\x00" * 7), "float payload must be 8 bytes"),
            (
                _tlv(b"D", b"\x7f\xf8\x00\x00\x00\x00\x00\x00"),
                "NaN is not a canonical value",
            ),
            (
                _tlv(b"S", b"\xff\xfe"),
                "invalid UTF-8 in string: 'utf-8' codec can't decode byte "
                "0xff in position 0: invalid start byte",
            ),
            (
                _tlv(b"M", encode(1) + encode(2)),
                "dict key must decode to str",
            ),
            # A malformed key is reported as what is wrong with *it*.
            (
                _tlv(b"M", _tlv(b"I", b"\x00\x01") + encode(2)),
                "non-canonical int encoding",
            ),
            (
                _tlv(b"M", encode("b") + encode(1) + encode("a") + encode(2)),
                "dict keys not in canonical sorted order",
            ),
            (
                _tlv(b"M", encode("a") + encode(1) + encode("a") + encode(2)),
                "dict keys not in canonical sorted order",
            ),
            (_tlv(b"M", encode("a")), "dict key without value"),
            (
                b"L\x00\x00\x00\x05" + _tlv(b"B", b"ab"),
                "list payload overran its length",
            ),
            (
                b"M\x00\x00\x00\x0c" + encode("a") + _tlv(b"B", b"abcd"),
                "dict payload overran its length",
            ),
        ],
    )
    def test_message(self, blob, message):
        with pytest.raises(DecodingError) as caught:
            decode(blob)
        assert str(caught.value) == message
