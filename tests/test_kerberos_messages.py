"""Declared Kerberos messages and operation arguments: a request that does
not fit its declaration is refused with ``WireSchemaError`` (``malformed``
on the wire) and changes nothing; a reply that does not answer the request
sent is refused by the client.

Each probe here used to be coerced: an ``as-request`` with ``till:
"1000500"`` was issued a TGT, and a print-server ``allocate`` of ``"7"``
allocated 7 pages.
"""

import pytest

from repro.errors import KerberosError, WireSchemaError
from repro.kerberos.ticket import Ticket
from repro.net.aio import AioNetwork, drive
from repro.net.message import raise_if_error
from repro.testbed import Realm


def run(realm, body):
    """``body`` on ``realm``'s runtime: served by the asyncio runtime from
    a driver thread, or called directly."""
    if isinstance(realm.network, AioNetwork):
        return drive(realm.network, body)
    return body()


def realm_for(runtime):
    return Realm(seed=b"kerberos-messages", runtime=runtime)


# ---------------------------------------------------------------------------
# The KDC refuses what its declarations do not accept
# ---------------------------------------------------------------------------

AS_PROBES = {
    "str-till": {"till": "1000500"},
    "junk-till": {"till": "x"},
    "float-nonce": {"nonce": 2.5},
}


@pytest.mark.parametrize("runtime", ["sync", "aio"])
@pytest.mark.parametrize("change", AS_PROBES.values(), ids=AS_PROBES)
def test_malformed_as_request_is_refused_and_issues_nothing(
    runtime, change, monkeypatch
):
    realm = realm_for(runtime)
    alice = realm.user("alice")
    sealed = []
    seal = Ticket.seal.__func__
    monkeypatch.setattr(
        Ticket,
        "seal",
        classmethod(lambda cls, *a, **k: sealed.append(1) or seal(cls, *a, **k)),
    )
    request = {
        "client": alice.principal.to_wire(),
        "till": None,
        "authorization_data": [],
        "nonce": 7,
        **change,
    }

    def body():
        reply = realm.network.send(
            alice.principal, realm.kdc.principal, "as-request", request
        )
        assert reply["__error__"]["kind"] == "malformed"
        with pytest.raises(WireSchemaError, match=r"AsRequest\.(till|nonce)"):
            raise_if_error(reply)

    run(realm, body)
    assert sealed == []


@pytest.mark.parametrize("runtime", ["sync", "aio"])
def test_malformed_tgs_request_is_refused(runtime):
    realm = realm_for(runtime)
    alice = realm.user("alice")
    files = realm.file_server("files")

    def body():
        captured = []
        send = realm.network.send

        def tap(source, destination, msg_type, payload):
            if msg_type == "tgs-request":
                captured.append(dict(payload))
            return send(source, destination, msg_type, payload)

        realm.network.send = tap
        try:
            alice.kerberos.get_ticket(files.principal)
        finally:
            del realm.network.send
        (request,) = captured
        reply = send(
            alice.principal, realm.kdc.principal, "tgs-request",
            {**request, "till": "1000500"},
        )
        with pytest.raises(WireSchemaError, match=r"TgsRequest\.till"):
            raise_if_error(reply)

    run(realm, body)


# ---------------------------------------------------------------------------
# The client refuses a reply that answers some other request
# ---------------------------------------------------------------------------


def _replaying(realm, msg_type):
    """Make the network answer every ``msg_type`` after the first with the
    first one's reply, as an attacker replaying a captured reply would."""
    send, first = realm.network.send, []

    def replay(source, destination, kind, payload):
        reply = send(source, destination, kind, payload)
        if kind != msg_type:
            return reply
        if not first:
            first.append(reply)
        return first[0]

    realm.network.send = replay


def test_a_replayed_as_reply_is_refused():
    """RFC 4120 §3.1.5: the reply's sealed nonce must be the request's.
    An old AS reply opens under the same long-term key, so only the
    nonce tells it is not the answer to this login."""
    realm = realm_for("sync")
    alice = realm.user("alice")
    _replaying(realm, "as-request")
    first = alice.kerberos.login()
    with pytest.raises(KerberosError, match="nonce"):
        alice.kerberos.login()
    assert alice.kerberos.tgt is first


def test_a_replayed_tgs_reply_is_refused():
    realm = realm_for("sync")
    alice = realm.user("alice")
    files = realm.file_server("files")
    alice.kerberos.login()
    _replaying(realm, "tgs-request")
    alice.kerberos.get_ticket(files.principal, use_cache=False)
    with pytest.raises(KerberosError, match="nonce"):
        alice.kerberos.get_ticket(files.principal, use_cache=False)


def test_retry_ids_are_not_part_of_a_declared_message():
    """The resilience layer stamps ``_rid`` into every payload, KDC and AP
    requests included; it is envelope, not a field, so they still decode."""
    realm = Realm(seed=b"kerberos-messages-resil", resilience=True)
    alice = realm.user("alice")
    files = realm.file_server("files")
    files.grant_owner(alice.principal)
    files.put("doc", b"data")
    stamped = []
    send = realm.network.send

    def tap(source, destination, msg_type, payload):
        if "_rid" in payload:
            stamped.append(msg_type)
        return send(source, destination, msg_type, payload)

    realm.network.send = tap
    assert alice.client_for(files.principal).request("read", "doc") == {
        "data": b"data"
    }
    assert {"as-request", "tgs-request", "ap-request"} <= set(stamped)


# ---------------------------------------------------------------------------
# The print server's declared arguments
# ---------------------------------------------------------------------------

PRINT_PROBES = {
    "str-allocate": ("allocate", {"pages": "7"}),
    "bool-allocate": ("allocate", {"pages": True}),
    "float-release": ("release", {"pages": 2.9, "to_account": "alice"}),
}


@pytest.mark.parametrize("runtime", ["sync", "aio"])
@pytest.mark.parametrize(
    "operation,args", PRINT_PROBES.values(), ids=PRINT_PROBES
)
def test_non_int_pages_refused_and_allocate_nothing(runtime, operation, args):
    realm = realm_for(runtime)
    alice = realm.user("alice")
    printer = realm.print_server("printer")

    def body():
        client = alice.client_for(printer.principal)
        client.request("allocate", args={"pages": 10})
        before = dict(printer.allocations)
        with pytest.raises(WireSchemaError, match=r"Args\.pages: expected int"):
            client.request(operation, args=args)
        assert printer.allocations == before

    run(realm, body)


def test_an_operation_that_declares_nothing_takes_nothing():
    """``read`` declares no ``Args``: arguments it would ignore are refused,
    not passed to the handler as a raw dict."""
    realm = realm_for("sync")
    alice = realm.user("alice")
    files = realm.file_server("files")
    files.grant_owner(alice.principal)
    files.put("doc", b"data")
    client = alice.client_for(files.principal)
    with pytest.raises(WireSchemaError, match=r"^NoArgs: unknown 'path'$"):
        client.request("read", "doc", args={"path": "doc"})
    assert client.request("read", "doc") == {"data": b"data"}
