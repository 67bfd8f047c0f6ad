"""A credential that recurs on every request is derived once per server.

* §6.1: a claimant signs every envelope under its one long-term key.  A
  Schnorr key whose envelope verified at a server once gets a comb table
  when it comes back; a first request builds nothing, a key outside the
  order-q subgroup keeps verifying natively, and no verdict depends on
  the table (``schnorr.set_precompute(False)`` gives the same ones).
* §6.2: a Kerberos proxy travels with its grantor's ticket.  The acceptor
  opens each sealed blob once and keeps the body until the ticket
  expires; the server, expiry and grantor checks still run on every use,
  and a blob that differs by a byte is opened (and refused) afresh.
"""

import math

import pytest

from repro.acl import AclEntry, SinglePrincipal
from repro.core.evaluation import RequestContext
from repro.core.presentation import request_digest
from repro.core.vcache import DISABLED_CONFIG
from repro.crypto import schnorr
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.crypto.signature import (
    SchnorrVerifier,
    set_signature_cache,
)
from repro.errors import SignatureError, TicketError
from repro.kerberos.proxy_support import grant_via_credentials
from repro.kerberos.ticket import ProxyBundle, Ticket
from repro.net.message import is_error
from repro.obs.telemetry import Telemetry
from repro.services.pk_endserver import (
    PkClient,
    PkEndServer,
    PublicKeyDirectory,
)
from repro.testbed import Realm


@pytest.fixture(autouse=True)
def fresh_tables():
    """Key tables are process-wide, and a signature memo hit would skip
    the exponentiations these tests are about."""
    previous = set_signature_cache(None)
    schnorr.clear_key_tables()
    yield
    schnorr.clear_key_tables()
    set_signature_cache(previous)


def has_table(public):
    return schnorr._KEY_TABLES.get((public.group_p, public.y)) is not None


def promoted(realm):
    return realm.telemetry.metrics.counter("vcache.keytable.promoted").total()


# ---------------------------------------------------------------------------
# §6.1: envelope claimant keys
# ---------------------------------------------------------------------------


class Pk:
    def __init__(self):
        self.realm = Realm(seed=b"recurring-pk", telemetry=Telemetry())
        rng = self.realm.rng.fork(b"pk")
        directory = PublicKeyDirectory()
        self.server = PkEndServer(
            self.realm.principal("pk-files"), self.realm.network,
            self.realm.clock, directory, group=TEST_GROUP, rng=rng,
            telemetry=self.realm.telemetry,
        )
        self.server.register_operation("read", lambda request: {"data": b"ok"})
        self.bob, self.mallory, self.eve = (
            PkClient(
                self.realm.principal(name), self.realm.network,
                self.realm.clock, directory, group=TEST_GROUP, rng=rng,
            )
            for name in ("bob", "mallory", "eve")
        )
        for client in (self.bob, self.mallory, self.eve):
            self.server.acl.add(
                AclEntry(subject=SinglePrincipal(client.principal))
            )
        # Eve's key is outside the order-q subgroup: y = -g^x has order
        # 2q, so a signature made with x verifies exactly when its
        # challenge is odd — about half of them, natively and, unchanged,
        # with tables.
        x = self.eve.identity.x
        y = TEST_GROUP.p - self.eve.identity.y
        self.eve.identity = schnorr.SchnorrPrivateKey(TEST_GROUP.p, x, y)
        directory.publish(self.eve.principal, self.eve.identity.public)

    def envelope(self, client):
        return client._envelope(
            self.server.principal, request_digest("read", "doc")
        )

    def send(self, client, envelope):
        """True when the server accepted the request."""
        reply = self.realm.network.send(
            client.principal, self.server.principal, "request",
            {
                "operation": "read", "target": "doc", "args": {},
                "amounts": {}, "envelope": envelope.to_wire(),
            },
        )
        return not is_error(reply)


def native_verdict(public, envelope):
    """Today's verdict: the signature checked with plain ``pow()``."""
    previous = schnorr.set_precompute(False)
    try:
        SchnorrVerifier(public=public).verify(
            envelope.body_bytes(), envelope.signature
        )
        return True
    except SignatureError:
        return False
    finally:
        schnorr.set_precompute(previous)


def test_a_first_request_builds_no_table():
    pk = Pk()
    key = pk.bob.identity.public
    assert pk.send(pk.bob, pk.envelope(pk.bob))
    assert not has_table(key)
    assert schnorr.registered_key_count() == 0
    assert promoted(pk.realm) == 0
    for _ in range(3):
        assert pk.send(pk.bob, pk.envelope(pk.bob))
        assert has_table(key)
    assert schnorr.registered_key_count() == 1
    assert promoted(pk.realm) == 1


def test_only_a_verified_envelope_marks_its_key():
    pk = Pk()
    forged = pk.envelope(pk.bob)
    forged = type(forged)(
        forged.claimant, forged.server, forged.timestamp, forged.nonce,
        forged.digest, pk.mallory.signer.sign(forged.body_bytes()),
    )
    for _ in range(2):
        assert not pk.send(pk.bob, forged)
    assert pk.send(pk.bob, pk.envelope(pk.bob))
    assert not has_table(pk.bob.identity.public)


def test_an_out_of_subgroup_key_keeps_todays_verdicts():
    pk = Pk()
    public = pk.eve.identity.public
    verdicts = []
    for _ in range(12):
        envelope = pk.envelope(pk.eve)
        expected = native_verdict(public, envelope)
        assert pk.send(pk.eve, envelope) == expected
        verdicts.append(expected)
    assert set(verdicts) == {True, False}
    # Promotion was tried, refused, and remembered: no table.
    key = (public.group_p, public.y)
    assert schnorr._KEY_TABLES.get(key, False) is None
    assert schnorr.registered_key_count() == 0
    assert promoted(pk.realm) == 0


def envelopes(pk):
    """A run of good, forged and out-of-subgroup envelopes, by sender."""
    run = [(pk.bob, pk.envelope(pk.bob)) for _ in range(3)]
    forged = pk.envelope(pk.bob)
    run.append((pk.bob, type(forged)(
        forged.claimant, forged.server, forged.timestamp, forged.nonce,
        forged.digest, pk.mallory.signer.sign(forged.body_bytes()),
    )))
    run.append((pk.mallory, pk.envelope(pk.mallory)))
    run += [(pk.eve, pk.envelope(pk.eve)) for _ in range(8)]
    run += [(pk.bob, pk.envelope(pk.bob)) for _ in range(2)]
    return run


def test_verdicts_do_not_depend_on_tables():
    """The same envelopes, sent to a server with tables and to a fresh
    one (same seed, same keys) with every table bypassed."""
    pk = Pk()
    run = envelopes(pk)
    with_tables = [pk.send(client, envelope) for client, envelope in run]
    assert schnorr.registered_key_count() == 1  # bob's
    schnorr.clear_key_tables()
    native = Pk()
    assert native.eve.identity == pk.eve.identity
    previous = schnorr.set_precompute(False)
    try:
        assert [
            native.send(client, envelope) for client, envelope in run
        ] == with_tables
    finally:
        schnorr.set_precompute(previous)
    assert with_tables[:5] == [True, True, True, False, True]
    assert set(with_tables[5:13]) == {True, False}
    assert with_tables[13:] == [True, True]


# ---------------------------------------------------------------------------
# §6.2: the tickets a Kerberos proxy bundle carries
# ---------------------------------------------------------------------------


class Krb:
    def __init__(self, verify_cache=None):
        self.realm = Realm(
            seed=b"recurring-krb", telemetry=Telemetry(),
            verify_cache=verify_cache,
        )
        self.alice = self.realm.user("alice")
        self.files = self.realm.file_server("files")
        self.other = self.realm.file_server("other")
        self.proxy = self.grant(self.files)

    def grant(self, server):
        credentials = self.alice.kerberos.get_ticket(server.principal)
        return grant_via_credentials(credentials, (), self.realm.clock.now())

    def bundle(self, proxy=None, server=None):
        server = server or self.files
        return ProxyBundle.from_wire(
            (proxy or self.proxy).presentation(
                server.principal, self.realm.clock.now(), "read",
                target="doc",
            )
        )

    def verify(self, bundle, server=None):
        server = server or self.files
        return server.acceptor.verify(
            bundle,
            RequestContext(server=server.principal, operation="read",
                           target="doc"),
        )

    def count(self, outcome):
        return self.realm.telemetry.metrics.counter(
            f"vcache.ticket.{outcome}"
        ).total()


def count_opens(monkeypatch):
    """From now on, the blob of every ticket decrypted."""
    calls = []
    original = Ticket.open

    def counting(ticket, key):
        calls.append(ticket.blob)
        return original(ticket, key)

    monkeypatch.setattr(Ticket, "open", counting)
    return calls


@pytest.fixture
def krb():
    return Krb()


def test_a_recurring_ticket_is_opened_once(krb, monkeypatch):
    opens = count_opens(monkeypatch)
    for _ in range(3):
        assert krb.verify(krb.bundle()).grantor == krb.alice.principal
    assert len(opens) == 1
    assert (krb.count("hit"), krb.count("miss")) == (2, 1)


def test_a_memo_hit_on_an_expired_ticket_is_refused(krb, monkeypatch):
    opens = count_opens(monkeypatch)
    krb.verify(krb.bundle())
    (ticket,) = krb.bundle().tickets
    body = krb.files.acceptor._opened[ticket.blob]
    # Past expiry the memo drops the entry, and the reopened ticket is
    # refused ...
    krb.realm.clock.set(body.expires_at + 1.0)
    with pytest.raises(TicketError, match="expired"):
        krb.verify(krb.bundle())
    assert len(opens) == 2
    # ... and a body held past its ticket's expiry is refused on its hit.
    krb.files.acceptor._opened.put(ticket.blob, body, math.inf)
    with pytest.raises(TicketError, match="expired"):
        krb.verify(krb.bundle())
    assert len(opens) == 2


def test_a_flipped_byte_misses_and_is_refused(krb, monkeypatch):
    opens = count_opens(monkeypatch)
    krb.verify(krb.bundle())
    bundle = krb.bundle()
    (ticket,) = bundle.tickets
    for index in (0, len(ticket.blob) // 2, len(ticket.blob) - 1):
        blob = bytearray(ticket.blob)
        blob[index] ^= 0x01
        flipped = ProxyBundle(
            (Ticket(ticket.server, bytes(blob)),), bundle.presented
        )
        with pytest.raises(TicketError):
            krb.verify(flipped)
    assert len(opens) == 4
    assert krb.count("miss") == 4
    assert len(krb.files.acceptor._opened) == 1


def test_a_ticket_for_another_server_is_refused(krb):
    krb.verify(krb.bundle())
    elsewhere = krb.grant(krb.other)
    krb.verify(krb.bundle(elsewhere, krb.other), krb.other)
    with pytest.raises(TicketError, match="ticket for"):
        krb.verify(krb.bundle(elsewhere))
    # The other server's blob, relabelled for this one, does not open
    # under this server's key.
    (theirs,) = elsewhere.tickets
    relabelled = ProxyBundle(
        (Ticket(krb.files.principal, theirs.blob),), krb.bundle().presented
    )
    with pytest.raises(TicketError):
        krb.verify(relabelled)
    # A blob this server opened, relabelled for the other one, is refused
    # there before any memo is consulted.
    (ours,) = krb.proxy.tickets
    with pytest.raises(TicketError, match="ticket for"):
        krb.verify(
            ProxyBundle((ours,), krb.bundle(server=krb.other).presented),
            krb.other,
        )


def test_no_memo_without_the_verification_cache(monkeypatch):
    krb = Krb(verify_cache=DISABLED_CONFIG)
    opens = count_opens(monkeypatch)
    assert krb.files.acceptor._opened is None
    for _ in range(3):
        krb.verify(krb.bundle())
    assert len(opens) == 3
    assert (krb.count("hit"), krb.count("miss")) == (0, 0)
