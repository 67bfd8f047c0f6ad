"""Fig. 3's message 2, ``[operation X only]_R, {Kproxy}Ksession``, from
every server that issues a proxy to its client.

Four issuers send it: the authorization server (§3.2), the group server
(§3.3), and the accounting server's certification proxy and cashier's
check (§4).  All of them use one :class:`ProxyDelivery`: the tickets and
certificates travel openly, and only the proxy key is sealed under the
client's session key, with the chain's signatures and tickets as its
associated data.  For each issuer:

* no frame a tap sees holds the key's secret bytes;
* a changed key, signature or ticket byte, a certificate or ticket
  spliced in from a second delivery to the same client, and the wrong
  session key are refused with the delivery's :class:`ServiceError`;
* a delivery of the wrong shape is refused as ``malformed``;
* an intact delivery presents and verifies at its end-server.

A certificate body changed under its signature opens at the client (the
key is bound to the signature, not re-encoded body bytes) and is refused
by the end-server's signature check.

Tampering is done in transit, by a tap that rewrites the issuer's reply
before the client reads it.
"""

import pytest

from repro.acl import AclEntry, GroupSubject, SinglePrincipal
from repro.core.evaluation import RequestContext
from repro.crypto.keys import SymmetricKey
from repro.encoding.canonical import encode
from repro.errors import ProxyVerificationError, ServiceError, WireSchemaError
from repro.net import Eavesdropper
from repro.net.message import encode_error
from repro.services.authorization import (
    ProxyDelivery,
    open_proxy_delivery,
    seal_proxy_delivery,
)
from repro.testbed import Realm


class World:
    """bob, two file servers, and one issuer of each kind serving bob."""

    def __init__(self):
        self.realm = realm = Realm(seed=b"proxy-delivery")
        self.bob = realm.user("bob")
        self.merchant = realm.user("merchant")
        self.files = []
        for name in ("files", "files2"):
            fs = realm.file_server(name)
            fs.put("doc/x", b"X")
            self.files.append(fs)
        self.authz = realm.authorization_server("authz")
        self.groups = realm.group_server("groups")
        self.staff = self.groups.create_group("staff", (self.bob.principal,))
        self.banks = []
        for name in ("bank", "bank2"):
            bank = realm.accounting_server(name)
            bank.create_account("bob", self.bob.principal, {"dollars": 100})
            bank.create_account("merchant", self.merchant.principal)
            self.banks.append(bank)
        for fs in self.files:
            fs.acl.add(AclEntry(subject=SinglePrincipal(self.authz.principal)))
            fs.acl.add(
                AclEntry(subject=GroupSubject(self.staff), operations=("read",))
            )
            self.authz.database_for(fs.principal).add(
                AclEntry(
                    subject=SinglePrincipal(self.bob.principal),
                    operations=("read",),
                )
            )


class AuthorizationIssuer:
    """§3.2: an authorization proxy for one of the file servers."""

    def issuer(self, world, variant):
        return world.authz.principal

    def obtain(self, world, variant):
        return world.bob.authorization_client(world.authz.principal).authorize(
            world.files[variant].principal, ("read",), ("doc/*",)
        )

    def delivery(self, payload):
        return payload["proxy"]

    def replace(self, payload, delivery):
        payload["proxy"] = delivery

    def key(self, result):
        return result.proxy.proxy_key.secret

    def exercise(self, world, result):
        out = world.bob.client_for(world.files[0].principal).request(
            "read", "doc/x", proxy=result
        )
        assert out["data"] == b"X"


class GroupIssuer(AuthorizationIssuer):
    """§3.3: a membership-assertion proxy for one of the file servers."""

    def issuer(self, world, variant):
        return world.groups.principal

    def obtain(self, world, variant):
        return world.bob.group_client(world.groups.principal).get_group_proxy(
            "staff", world.files[variant].principal
        )

    def key(self, result):
        return result[1].proxy.proxy_key.secret

    def exercise(self, world, result):
        out = world.bob.client_for(world.files[0].principal).request(
            "read", "doc/x", group_proxies=[result]
        )
        assert out["data"] == b"X"


class CertificationIssuer(AuthorizationIssuer):
    """§4: the bank's proxy certifying bob's check, for a file server."""

    def issuer(self, world, variant):
        return world.banks[0].principal

    def obtain(self, world, variant):
        client = world.bob.accounting_client(world.banks[0].principal)
        check = client.write_check("bob", world.merchant.principal, "dollars", 5)
        self.check_number = check.number
        return client.certify_check(check, world.files[variant].principal)

    def key(self, result):
        return result.proxy.proxy_key.secret

    def exercise(self, world, result):
        shop = world.files[0]
        target = f"check:{self.check_number}"
        wire = result.presentation(
            shop.principal, world.realm.clock.now(), "verify-certification",
            target=target,
        )
        verified = shop.acceptor.accept(
            wire,
            RequestContext(
                server=shop.principal,
                operation="verify-certification",
                target=target,
            ),
        )
        assert verified.grantor == world.banks[0].principal


class CashiersCheckIssuer(AuthorizationIssuer):
    """§4: a cashier's check, drawn by a bank on itself, sold to bob."""

    def issuer(self, world, variant):
        return world.banks[variant].principal

    def obtain(self, world, variant):
        return world.bob.accounting_client(
            world.banks[variant].principal
        ).purchase_cashiers_check("bob", world.merchant.principal, "dollars", 5)

    def delivery(self, payload):
        return payload["check"]["bundle"]

    def replace(self, payload, delivery):
        payload["check"] = dict(payload["check"], bundle=delivery)

    def key(self, result):
        return result.bundle.proxy.proxy_key.secret

    def exercise(self, world, result):
        bank = world.banks[0]
        out = world.merchant.accounting_client(bank.principal).deposit_check(
            result, "merchant"
        )
        assert out["paid"] == 5
        assert bank.accounts["merchant"].balance("dollars") == 5


ISSUERS = {
    "authorization": AuthorizationIssuer,
    "group": GroupIssuer,
    "certification": CertificationIssuer,
    "cashiers-check": CashiersCheckIssuer,
}


@pytest.fixture(params=sorted(ISSUERS))
def issuer(request):
    return ISSUERS[request.param]()


@pytest.fixture
def world():
    return World()


def replies_from(tap, principal):
    return [
        message
        for message in tap.captured
        if message.msg_type == "request-reply" and message.source == principal
    ]


def captured_delivery(world, issuer, variant):
    """The delivery wire form one clean issue sends, and its result."""
    tap = Eavesdropper()
    tap.attach(world.realm.network)
    try:
        result = issuer.obtain(world, variant)
    finally:
        tap.detach(world.realm.network)
    (reply,) = replies_from(tap, issuer.issuer(world, variant))
    return issuer.delivery(reply.payload), result


def obtain_rewritten(world, issuer, rewrite):
    """Issue once more (variant 0), with ``rewrite`` applied in transit to
    the delivery in the issuer's reply."""
    principal = issuer.issuer(world, 0)

    def active_tap(message):
        if message.msg_type == "request-reply" and message.source == principal:
            payload = message.payload
            issuer.replace(payload, rewrite(dict(issuer.delivery(payload))))

    world.realm.network.add_tap(active_tap)
    try:
        return issuer.obtain(world, 0)
    finally:
        world.realm.network.remove_tap(active_tap)


def session_key(world, issuer):
    return world.bob.kerberos.get_ticket(issuer.issuer(world, 0)).session_key


# ---------------------------------------------------------------------------


def test_no_frame_holds_the_proxy_key(world, issuer):
    tap = Eavesdropper()
    tap.attach(world.realm.network)
    result = issuer.obtain(world, 0)
    key = issuer.key(result)
    assert len(key) == 32
    assert replies_from(tap, issuer.issuer(world, 0))
    assert not any(key in encode(message.payload) for message in tap.captured)


def test_the_delivery_is_declared_and_seals_only_the_key(world, issuer):
    delivery, result = captured_delivery(world, issuer, 0)
    form = ProxyDelivery.from_wire(delivery)
    # The certificate and ticket travel as they are; the sealed key is
    # the 32-byte secret plus the box's nonce and tag.
    assert len(form.sealed_key) == 32 + 48
    kproxy = open_proxy_delivery(delivery, session_key(world, issuer))
    assert kproxy.proxy.proxy_key.secret == issuer.key(result)
    assert kproxy.proxy.certificates == form.certificates
    assert kproxy.tickets == form.tickets


def test_round_trip_verifies_at_the_end_server(world, issuer):
    issuer.exercise(world, issuer.obtain(world, 0))


def flip_key_byte(delivery):
    box = bytearray(delivery["sealed_key"])
    box[20] ^= 0x01
    delivery["sealed_key"] = bytes(box)
    return delivery


def test_flipped_key_byte_is_refused(world, issuer):
    with pytest.raises(ServiceError, match="proxy delivery failed to open"):
        obtain_rewritten(world, issuer, flip_key_byte)


def test_flipped_signature_byte_is_refused(world, issuer):
    def flip(delivery):
        certificate = dict(delivery["certificates"][0])
        signature = bytearray(certificate["signature"])
        signature[0] ^= 0x01
        certificate["signature"] = bytes(signature)
        delivery["certificates"] = [certificate]
        return delivery

    with pytest.raises(ServiceError, match="proxy delivery failed to open"):
        obtain_rewritten(world, issuer, flip)


@pytest.mark.parametrize("field", ["server", "blob"])
def test_changed_ticket_is_refused(world, issuer, field):
    def change(delivery):
        ticket = dict(delivery["tickets"][0])
        if field == "server":
            ticket["server"] = str(world.files[1].principal)
        else:
            blob = bytearray(ticket["blob"])
            blob[-1] ^= 0x01
            ticket["blob"] = bytes(blob)
        delivery["tickets"] = [ticket]
        return delivery

    with pytest.raises(ServiceError, match="proxy delivery failed to open"):
        obtain_rewritten(world, issuer, change)


@pytest.mark.parametrize("part", ["certificates", "tickets"])
def test_part_of_a_second_delivery_is_refused(world, issuer, part):
    other, _ = captured_delivery(world, issuer, 1)
    assert other[part] != captured_delivery(world, issuer, 0)[0][part]

    def splice(delivery):
        delivery[part] = other[part]
        return delivery

    with pytest.raises(ServiceError, match="proxy delivery failed to open"):
        obtain_rewritten(world, issuer, splice)


def test_wrong_session_key_is_refused(world, issuer):
    delivery, _ = captured_delivery(world, issuer, 0)
    with pytest.raises(ServiceError, match="proxy delivery failed to open"):
        open_proxy_delivery(delivery, SymmetricKey(bytes(32)))


def test_a_key_sealed_under_another_session_key_is_refused(world, issuer):
    """A well-formed delivery for this chain, but sealed for someone
    else: the key does not open under the client's session key."""

    def reseal(delivery):
        kproxy = open_proxy_delivery(delivery, session_key(world, issuer))
        return seal_proxy_delivery(kproxy, SymmetricKey(bytes(32)))

    with pytest.raises(ServiceError, match="proxy delivery failed to open"):
        obtain_rewritten(world, issuer, reseal)


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda delivery: {k: v for k, v in delivery.items() if k != "sealed_key"},
        lambda delivery: dict(delivery, sealed_key="not bytes"),
        lambda delivery: dict(delivery, certificates=[]),
        lambda delivery: dict(delivery, extra=1),
    ],
    ids=["missing-field", "wrong-type", "no-certificate", "extra-field"],
)
def test_malformed_delivery_is_refused_as_malformed(world, issuer, rewrite):
    with pytest.raises(WireSchemaError) as refused:
        obtain_rewritten(world, issuer, rewrite)
    assert encode_error(refused.value)["__error__"]["kind"] == "malformed"


def test_a_delivery_that_is_not_a_dict_is_malformed(world):
    with pytest.raises(WireSchemaError):
        open_proxy_delivery(b"sealed bundle", SymmetricKey(bytes(32)))


def test_associated_data_keeps_every_boundary(world):
    """Moving bytes across a field boundary is a change: the ticket
    ``files@REPRO.OR`` + ``G…`` is not ``files@REPRO.ORG`` + ``…``."""
    issuer = AuthorizationIssuer()
    delivery, _ = captured_delivery(world, issuer, 0)
    (ticket,) = delivery["tickets"]
    assert ticket["server"] == "files@REPRO.ORG"
    moved = dict(
        delivery,
        tickets=[{"server": "files@REPRO.OR", "blob": b"G" + ticket["blob"]}],
    )
    with pytest.raises(ServiceError, match="proxy delivery failed to open"):
        open_proxy_delivery(moved, session_key(world, issuer))


def test_certificate_body_changed_under_its_signature_fails_at_the_end_server(
    world,
):
    """The key is bound to each certificate's signature, a MAC over the
    whole body: a body changed under it opens at the client, but no
    end-server accepts it."""
    issuer = AuthorizationIssuer()

    def change_body(delivery):
        certificate = dict(delivery["certificates"][0])
        nonce = bytearray(certificate["nonce"])
        nonce[0] ^= 0x01
        certificate["nonce"] = bytes(nonce)
        delivery["certificates"] = [certificate]
        return delivery

    kproxy = obtain_rewritten(world, issuer, change_body)
    with pytest.raises(ProxyVerificationError):
        issuer.exercise(world, kproxy)
