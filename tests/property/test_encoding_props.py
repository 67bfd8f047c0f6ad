"""Property tests: canonical encoding is a total, injective round-trip."""

import enum
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.canonical import decode, encode
from repro.errors import DecodingError, EncodingError

# The closed value space the encoder supports.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**128), max_value=2**128),
    st.floats(allow_nan=False),
    st.binary(max_size=64),
    st.text(max_size=32),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=8), children, max_size=6),
    ),
    max_leaves=20,
)


def normalize(value):
    """Tuples decode as lists; otherwise identity."""
    if isinstance(value, tuple):
        return [normalize(v) for v in value]
    if isinstance(value, list):
        return [normalize(v) for v in value]
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    return value


@given(values)
def test_round_trip(value):
    assert decode(encode(value)) == normalize(value)


def typed(value):
    """Type-aware canonical form: Python's ``==`` conflates ``False == 0``
    and ``1 == 1.0``, but the encoding (correctly) does not."""
    if isinstance(value, (list, tuple)):
        return ("list", tuple(typed(v) for v in value))
    if isinstance(value, dict):
        return (
            "dict",
            tuple(sorted((k, typed(v)) for k, v in value.items())),
        )
    if isinstance(value, float):
        # 0.0 == -0.0 but they encode differently (distinct IEEE bits).
        import struct

        return ("float", struct.pack(">d", value))
    return (type(value).__name__, value)


@given(values, values)
def test_injective(a, b):
    if typed(a) != typed(b):
        assert encode(a) != encode(b)
    else:
        assert encode(a) == encode(b)


@given(values)
def test_encoding_deterministic(value):
    assert encode(value) == encode(value)


@given(st.binary(max_size=128))
def test_decoder_never_crashes_unexpectedly(blob):
    """Arbitrary bytes either decode or raise DecodingError — nothing else."""
    from repro.errors import DecodingError

    try:
        decode(blob)
    except DecodingError:
        pass


# -- the single-pass codec against the recursive one it replaced ----------

def _reference_frame(tag, payload):
    return tag + struct.pack(">I", len(payload)) + payload


def reference_encode(value):
    """The encoder as it was before the single-pass rewrite: builds every
    frame as ``tag + len + payload`` bottom-up.  Kept here, and only here,
    as the oracle the new one must agree with byte for byte."""
    if value is None:
        return _reference_frame(b"N", b"")
    if isinstance(value, bool):
        return _reference_frame(b"F", b"\x01" if value else b"\x00")
    if isinstance(value, int):
        length = (value.bit_length() + 8) // 8 or 1
        return _reference_frame(b"I", value.to_bytes(length, "big", signed=True))
    if isinstance(value, float):
        if math.isnan(value):
            raise EncodingError("NaN has no canonical encoding")
        return _reference_frame(b"D", struct.pack(">d", value))
    if isinstance(value, bytes):
        return _reference_frame(b"B", value)
    if isinstance(value, str):
        return _reference_frame(b"S", value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        return _reference_frame(
            b"L", b"".join(reference_encode(item) for item in value)
        )
    if isinstance(value, dict):
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise EncodingError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            parts.append(reference_encode(key))
            parts.append(reference_encode(value[key]))
        return _reference_frame(b"M", b"".join(parts))
    raise EncodingError(f"unsupported type: {type(value).__name__}")


class Colour(enum.IntEnum):
    RED = 1
    DEEP = -(2**70)


class Label(str):
    """A ``str`` subclass, as identifiers and enums-with-str-mixin are."""


class Mode(str, enum.Enum):
    # str(Mode.READ) is "Mode.READ" but it *encodes* as "read".
    READ = "read"


class Pair(tuple):
    pass


wide_scalars = st.one_of(
    scalars,
    st.integers(min_value=-(2**4096), max_value=2**4096),
    st.sampled_from(
        [
            float("inf"),
            float("-inf"),
            -0.0,
            2**4096,
            -(2**4096),
            Colour.RED,
            Colour.DEEP,
            Mode.READ,
            b"",
            "",
        ]
    ),
    st.text(max_size=8).map(Label),
)

wide_values = st.recursive(
    wide_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=3).map(Pair),
        st.dictionaries(
            st.one_of(st.text(max_size=8), st.text(max_size=4).map(Label)),
            children,
            max_size=5,
        ),
    ),
    max_leaves=25,
)

#: Leaves ``encode`` must refuse wherever they sit in a value.
refused_leaves = st.sampled_from(
    [
        float("nan"),
        {1: "int key"},
        {b"k": "bytes key"},
        {None: "None key"},
        {1, 2},
        bytearray(b"ab"),
        memoryview(b"ab"),
        1j,
        object(),
        range(3),
    ]
)


def _bury(leaf, path):
    """Wrap ``leaf`` in the containers ``path`` names, innermost last."""
    for kind in reversed(path):
        if kind == "list":
            leaf = [0, leaf, "after"]
        elif kind == "tuple":
            leaf = (leaf,)
        else:
            leaf = {"a": 1, "k": leaf, "z": None}
    return leaf


@given(wide_values)
def test_matches_reference_encoder(value):
    encoded = encode(value)
    assert type(encoded) is bytes
    assert encoded == reference_encode(value)


@given(wide_values)
def test_wide_round_trip(value):
    assert decode(encode(value)) == normalize(value)


@given(
    refused_leaves,
    st.lists(st.sampled_from(["list", "tuple", "dict"]), max_size=4),
)
def test_refused_values_raise_encoding_error(leaf, path):
    value = _bury(leaf, path)
    with pytest.raises(EncodingError):
        reference_encode(value)
    with pytest.raises(EncodingError):
        encode(value)


@given(wide_values, st.data())
def test_mutated_encodings_decode_or_raise_decoding_error(value, data):
    """One flipped byte anywhere in a valid encoding either still decodes
    (to something whose encoding is exactly those bytes) or is refused
    with DecodingError — never any other exception."""
    blob = bytearray(encode(value))
    position = data.draw(st.integers(0, len(blob) - 1))
    blob[position] ^= data.draw(st.integers(1, 255))
    blob = bytes(blob)
    try:
        decoded = decode(blob)
    except DecodingError:
        return
    assert encode(decoded) == blob


@given(st.binary(max_size=128))
def test_whatever_decodes_reencodes_to_itself(blob):
    """Injectivity of the decoder: two byte strings never decode to the
    same value, because any accepted string is *the* encoding of it."""
    try:
        decoded = decode(blob)
    except DecodingError:
        return
    assert encode(decoded) == blob
