"""Property tests: ``encoded_size`` is ``len(encode(...))`` without the bytes.

Over every value ``encode`` accepts the sizer returns exactly the length
of the encoding; over every value it refuses the sizer raises the same
exception with the same message (nesting depth is ``test_depth_limit``'s);
and on the figures' real traffic ``Message.wire_size`` is the length of
the message's canonical encoding.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.encoding import canonical
from repro.encoding.canonical import encode, encoded_size
from repro.net.aio import drive
from repro.testbed import Realm
from repro.workloads.load import SCENARIOS, LoadConfig, warm_up
from tests.property.test_encoding_props import (
    Colour,
    Label,
    _bury,
    refused_leaves,
    values,
    wide_values,
)

non_ascii_text = st.text(
    alphabet=st.characters(min_codepoint=0x80, blacklist_categories=("Cs",)),
    max_size=12,
)

sized_values = st.recursive(
    st.one_of(wide_values, non_ascii_text, non_ascii_text.map(Label)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=6), non_ascii_text), children,
            max_size=4,
        ),
    ),
    max_leaves=10,
)


def walked(value):
    """What the sizer's walk alone makes of ``value``: every value
    ``encode`` accepts is sized by the walk, never by the fallback."""
    return 5 + canonical._payload_size(value, type(value), 0)


def refusal(function, value):
    """``(type, message)`` of what ``function(value)`` raises."""
    with pytest.raises(Exception) as caught:
        function(value)
    return type(caught.value), str(caught.value)


@given(values)
def test_size_is_the_encoded_length(value):
    assert encoded_size(value) == walked(value) == len(encode(value))


@given(sized_values)
def test_size_is_the_encoded_length_over_the_wide_space(value):
    assert encoded_size(value) == walked(value) == len(encode(value))


@pytest.mark.parametrize(
    "value",
    [
        Colour.RED,
        Colour.DEEP,
        2**4096,
        -(2**4096),
        float("inf"),
        float("-inf"),
        -0.0,
        ("tuple", ("nested",), b"\x00"),
        "naïve – ☃ 𝄞",
        {"ключ": "значение", Label("k"): Label("v")},
    ],
)
def test_edge_values_are_sized_exactly(value):
    assert encoded_size(value) == walked(value) == len(encode(value))


@given(
    refused_leaves,
    st.lists(st.sampled_from(["list", "tuple", "dict"]), max_size=4),
)
def test_refusals_match_encode(leaf, path):
    value = _bury(leaf, path)
    assert refusal(encoded_size, value) == refusal(encode, value)


BAD_DICTS = [
    {1: "int", "s": "str"},
    {"s": "str", 1: "int"},
    {1: "int", 2.5: "float"},
    {2.5: "float", 1: "int"},
    {"a": float("nan"), 1: "bad key"},
    {"b": float("nan"), "a": {1: "bad key"}},
    {"a": float("nan"), "b": {1: "bad key"}},
    {"b": {1, 2}, "a": float("nan")},
    {"z": object(), "y": float("nan"), "x": [{2: 3}]},
    {"b": "\ud800", "a": float("nan")},
    {"a": "\ud800", "b": float("nan")},
]


@pytest.mark.parametrize("value", BAD_DICTS)
def test_first_refusal_in_canonical_order_wins(value):
    assert refusal(encoded_size, value) == refusal(encode, value)


@given(st.permutations(["a", "b", "c", "d"]), st.data())
def test_refusal_does_not_depend_on_insertion_order(order, data):
    bad = data.draw(st.lists(refused_leaves, min_size=4, max_size=4))
    value = {key: bad[i] for i, key in enumerate(order)}
    assert refusal(encoded_size, value) == refusal(encode, value)


@pytest.mark.parametrize("runtime", ["sync", "aio"])
@pytest.mark.parametrize("figure", sorted(SCENARIOS))
def test_wire_size_is_the_encoded_message_length(figure, runtime):
    """Every message of one warm op of ``figure``, retry ids stamped."""
    realm = Realm(
        seed=b"sized-" + figure.encode(), resilience=True, runtime=runtime
    )
    scenario = SCENARIOS[figure]()
    config = LoadConfig(scenario=figure, principals=1, mode=runtime)
    seen = []
    realm.network.add_tap(seen.append)

    def body():
        state, pstate = warm_up(scenario, realm, config)
        scenario.op(realm, config, state, pstate, 0, 1)

    if runtime == "aio":
        drive(realm.network, body)
    else:
        body()

    assert seen
    # Only the Kerberos-session clients stamp retry ids.
    stamped = any("_rid" in message.payload for message in seen)
    assert stamped == (figure not in ("echo", "pk-verify"))
    for message in seen:
        wire = [
            message.source.to_wire(),
            message.destination.to_wire(),
            message.msg_type,
            message.fields,
        ]
        assert message.wire_size() == walked(wire) == len(encode(wire))
