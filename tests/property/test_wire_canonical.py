"""Property tests: one value has exactly one accepted wire form.

For every declared wire type (``repro.encoding.schema.WIRE_TYPES``):

* ``from_wire(to_wire(x)) == x``;
* any wire dict that decodes re-encodes to the same canonical bytes —
  whatever was changed in it (a type, a key, a nested value) is refused
  with ``WireSchemaError`` or was no change at all.

Values are drawn from the declarations themselves, and the second property
also runs over every declared value on the wire of one warm op of fig1,
fig3, fig4, fig5 and pk-verify, those inside a certificate's signed body
included.
"""

import dataclasses
import math
import string
import typing

import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from repro.core.certificate import (
    LINK_CASCADE,
    LINK_DELEGATE,
    LINK_ROOT,
    KeyBinding,
    ProxyCertificate,
)
from repro.core.presentation import PossessionProof, PresentedProxy
from repro.core.proxy import Proxy
from repro.core.restrictions import Restriction
from repro.crypto.keys import SymmetricKey
from repro.encoding.canonical import MAX_DEPTH, decode, encode
from repro.encoding.identifiers import AccountId, GroupId, PrincipalId
from repro.encoding.schema import WIRE_TYPES
from repro.errors import EncodingError, ReproError, WireSchemaError
from repro.kerberos.proxy_support import KerberosProxy
from repro.kerberos.ticket import (
    ApRequest,
    AsRequest,
    KdcReply,
    ProxyBundle,
    Ticket,
    TgsRequest,
)
from repro.ledger.ledger import CommittedPosting
from repro.ledger.posting import usage_charge
from repro.services.checks import Check
from repro.services.pk_endserver import SignedEnvelope

NAME = st.text(string.ascii_letters + string.digits + ".-", min_size=1, max_size=5)
PRINCIPALS = st.builds(PrincipalId, NAME, NAME)

#: Fields whose ``__post_init__`` bounds would reject most free draws.
FIELDS = {
    "required": st.integers(0, 2),
    "limit": st.integers(0, 2**40),
    "amount": st.integers(1, 2**40),
    "start": st.floats(0, 86_399),
    "end": st.floats(0, 86_399),
    "link_kind": st.sampled_from([LINK_CASCADE, LINK_DELEGATE]),
    "issued_at": st.floats(0, 1e6),
    "expires_at": st.floats(1e6, 1e7) | st.just(math.inf),
    # An accept-once record's table; a posting's kind is checked later.
    "kind": st.sampled_from(["once", "count"]),
    "used": st.integers(1, 2**40),
}

LEAVES = {
    PrincipalId: PRINCIPALS,
    GroupId: st.builds(GroupId, PRINCIPALS, NAME),
    AccountId: st.builds(AccountId, PRINCIPALS, NAME),
    SymmetricKey: st.binary(min_size=32, max_size=32).map(SymmetricKey),
    str: st.text(min_size=1, max_size=6),
    bytes: st.binary(max_size=8),
    int: st.integers(-(2**70), 2**70),
    float: st.floats(allow_nan=False),
    bool: st.booleans(),
    dict: st.dictionaries(NAME, st.integers() | st.binary(max_size=4), max_size=3),
}


def strategy(hint):
    """Values of a declared annotation."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        (inner,) = [a for a in args if a is not type(None)]
        return st.none() | strategy(inner)
    if origin in (tuple, list):
        items = st.lists(strategy(args[0]), min_size=1, max_size=2)
        return items.map(tuple) if origin is tuple else items
    if origin is dict:
        return st.dictionaries(NAME, strategy(args[1]), max_size=3)
    if hint in LEAVES:
        return LEAVES[hint]
    if hint is KerberosProxy:
        return st.builds(
            lambda tickets, root, rest, key: KerberosProxy(
                tuple(tickets), Proxy((root, *rest), key)
            ),
            st.lists(instances(Ticket), min_size=1, max_size=2),
            instances(ProxyCertificate, link_kind=st.just(LINK_ROOT)),
            st.lists(instances(ProxyCertificate), max_size=1),
            st.none() | LEAVES[SymmetricKey],
        )
    if "__wire_union__" in vars(hint):
        members = hint.__wire_union__[2].values()
        return st.deferred(lambda: st.one_of([instances(m) for m in members]))
    return instances(hint)


@st.composite
def _build(draw, cls, fixed):
    hints = typing.get_type_hints(cls)
    pick = {**FIELDS, **fixed}
    kwargs = {
        spec.name: draw(
            pick[spec.name] if spec.name in pick else strategy(hints[spec.name])
        )
        for spec in dataclasses.fields(cls)
    }
    try:
        return cls(**kwargs)
    except (ReproError, ValueError):  # the class's own invariants say no
        reject()


def instances(cls, **fixed):
    return _build(cls, fixed)


def near_misses(value):
    """Other values for one position of a wire dict: the near misses a
    coercing decoder would have accepted, and a few of every kind."""
    kind = type(value)
    out = [None, 0, "", b"", [], {}, 1.5, True]
    if kind is int:
        out += [float(value), str(value), value != 0]
    elif kind is float:
        out += [str(value)] + ([int(value)] if math.isfinite(value) else [])
    elif kind is bool:
        out += [int(value)]
    elif kind is str:
        out += [value.encode(), value + "x"]
    elif kind is bytes:
        out += [value.decode("latin-1")]
    elif kind is list:
        out += [tuple(value), value + value[:1], value[:-1]]
    elif kind is dict:
        out += [list(value.values())]
    return [v for v in out if type(v) is not kind or v != value]


def positions(value, path=()):
    if type(value) is dict:
        for key, item in value.items():
            yield path + (key,)
            yield from positions(item, path + (key,))
    elif type(value) is list:
        for index, item in enumerate(value):
            yield path + (index,)
            yield from positions(item, path + (index,))


def replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if type(value) is dict:
        return {**value, head: replaced(value[head], rest, new)}
    return [replaced(v, rest, new) if i == head else v for i, v in enumerate(value)]


def assert_one_form(cls, wire):
    """``wire`` decodes to a value that re-encodes to the same bytes, or is
    refused — with ``WireSchemaError`` and nothing else."""
    try:
        value = cls.from_wire(wire)
    except WireSchemaError:
        return False
    assert encode(value.to_wire()) == encode(wire)
    # A declared value encodes straight from its declaration, to the bytes
    # of its wire form.
    assert encode(value) == encode(wire)
    return True


DECLARED = sorted(WIRE_TYPES, key=lambda c: (c.__module__, c.__qualname__))
SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@pytest.mark.parametrize("cls", DECLARED, ids=lambda c: c.__qualname__)
@SETTINGS
@given(data=st.data())
def test_round_trip(cls, data):
    value = data.draw(instances(cls))
    assert cls.from_wire(value.to_wire()) == value
    assert encode(value) == encode(value.to_wire())
    assert assert_one_form(cls, value.to_wire())


@pytest.mark.parametrize("cls", DECLARED, ids=lambda c: c.__qualname__)
@SETTINGS
@given(data=st.data())
def test_a_changed_wire_form_is_refused_or_unchanged(cls, data):
    wire = data.draw(instances(cls)).to_wire()
    where = list(positions(wire))
    edit = data.draw(st.sampled_from(["replace", "add", "drop"]))
    if edit == "add" or not where:
        assume(type(wire) is dict)
        changed = {**wire, data.draw(NAME): data.draw(LEAVES[int])}
    else:
        path = data.draw(st.sampled_from(where))
        if edit == "drop":
            container = wire
            for step in path[:-1]:
                container = container[step]
            assume(type(container) is dict)
            shrunk = {k: v for k, v in container.items() if k != path[-1]}
            changed = replaced(wire, path[:-1], shrunk)
        else:
            old = wire
            for step in path:
                old = old[step]
            new = data.draw(st.sampled_from(near_misses(old)))
            changed = replaced(wire, path, new)
    assert_one_form(cls, changed)


# ---------------------------------------------------------------------------
# What the figures put on the wire
# ---------------------------------------------------------------------------

def _keys(cls):
    if cls is ProxyCertificate:  # a signed record: its fields are its body
        return frozenset({"body", "signature"})
    return frozenset(
        spec.metadata.get("key", spec.name) for spec in dataclasses.fields(cls)
    )


SHAPES = {
    _keys(cls): cls
    for cls in (
        ProxyCertificate,
        PresentedProxy,
        PossessionProof,
        Ticket,
        Check,
        SignedEnvelope,
        AsRequest,
        TgsRequest,
        ApRequest,
        KdcReply,
        ProxyBundle,
    )
}
UNIONS = {"type": Restriction, "kind": KeyBinding}


def _declared_values(value):
    if type(value) is dict:
        cls = SHAPES.get(frozenset(value))
        for tag, union in UNIONS.items():
            if value.get(tag) in union.__wire_union__[2]:
                cls = union
        if cls is not None:
            yield cls, value
        if cls is ProxyCertificate:
            # What a certificate declares travels inside its signed body.
            yield from _declared_values(decode(value["body"]))
        for item in value.values():
            yield from _declared_values(item)
    elif type(value) in (list, tuple):
        for item in value:
            yield from _declared_values(item)


@pytest.mark.parametrize("figure", ["fig1", "fig3", "fig4", "fig5", "pk-verify"])
def test_figure_traffic_has_one_form(monkeypatch, figure):
    from repro.net.network import Network
    from repro.workloads.load import run_figure

    sent = []
    observe = Network._observe

    def tap(network, message):
        sent.append(message.payload)
        return observe(network, message)

    monkeypatch.setattr(Network, "_observe", tap)
    run_figure(figure)
    seen = {}
    for payload in sent:
        for cls, wire in _declared_values(payload):
            assert assert_one_form(cls, wire), (cls, wire)
            seen[cls] = seen.get(cls, 0) + 1
    assert seen.get(Restriction) and seen.get(ProxyCertificate)
    if figure != "pk-verify":
        assert seen.get(Ticket) and seen.get(KdcReply)


def _nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "nest, refusal",
    [
        (0, None),
        (MAX_DEPTH - 4, None),
        (MAX_DEPTH - 3, f"nesting deeper than {MAX_DEPTH}"),
        (MAX_DEPTH - 1, f"nesting deeper than {MAX_DEPTH}"),
    ],
)
@pytest.mark.parametrize("time", [1.0, math.nan])
def test_a_declared_value_is_refused_as_its_wire_form_is(nest, refusal, time):
    """NaN in a ``float`` field, and nesting past ``MAX_DEPTH``, are
    ``encode``'s own refusals whether the value or its wire form is
    encoded.  A posting record nests four deep (record, posting, legs,
    leg), and the posting sorts before ``time``, so the depth bound is met
    first."""
    value = CommittedPosting(1, usage_charge("a", "b", "usd", 1), time, None)
    if refusal is None and math.isnan(time):
        refusal = "NaN has no canonical encoding"
    for form in (value, value.to_wire()):
        if refusal is None:
            assert encode(_nested(form, nest)) == encode(
                _nested(value.to_wire(), nest)
            )
        else:
            with pytest.raises(EncodingError) as refused:
                encode(_nested(form, nest))
            assert str(refused.value) == refusal
