"""Kerberos-carried proxies and the TGS proxy exchange (§6.2–§6.3)."""

import pytest

from repro.clock import SimulatedClock
from repro.core.evaluation import RequestContext
from repro.core.proxy import cascade
from repro.core.restrictions import (
    AcceptOnce,
    Authorized,
    AuthorizedEntry,
    Grantee,
    Quota,
)
from repro.crypto.rng import Rng
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    KerberosError,
    ProxyExpiredError,
    ReplayError,
    TicketError,
)
from repro.kerberos import (
    ApAcceptor,
    Credentials,
    KerberosClient,
    KerberosProxy,
    KerberosProxyAcceptor,
    KeyDistributionCenter,
    grant_via_credentials,
    make_ap_request,
)
from repro.kerberos.proxy_support import endorse
from repro.net.network import Network
from repro.testbed import Realm

START = 1_000_000.0


@pytest.fixture
def world(rng):
    clock = SimulatedClock(START)
    network = Network(clock, rng=rng)
    kdc = KeyDistributionCenter(network, clock, rng=rng)
    alice = PrincipalId("alice")
    alice_key = kdc.database.register(alice)
    server = PrincipalId("server")
    server_key = kdc.database.register(server)
    client = KerberosClient(alice, alice_key, network, clock, rng=rng)
    acceptor = KerberosProxyAcceptor(server, server_key, clock)
    return clock, network, kdc, client, server, server_key, acceptor


def req(server, **kwargs):
    defaults = dict(server=server, operation="read")
    defaults.update(kwargs)
    return RequestContext(**defaults)


class TestGrantViaCredentials:
    def test_accepted_by_end_server(self, world):
        clock, _, _, client, server, _, acceptor = world
        creds = client.get_ticket(server)
        kproxy = grant_via_credentials(creds, (), clock.now())
        wire = kproxy.presentation(server, clock.now(), "read")
        verified = acceptor.accept(wire, req(server))
        assert verified.grantor == client.principal

    def test_proxy_capped_by_ticket_lifetime(self, world):
        clock, _, _, client, server, _, acceptor = world
        creds = client.get_ticket(server, till=clock.now() + 50)
        kproxy = grant_via_credentials(
            creds, (), clock.now(), expires_at=clock.now() + 10_000
        )
        assert kproxy.proxy.expires_at <= clock.now() + 50

    def test_expired_ticket_rejected(self, world, rng):
        clock, _, _, client, server, _, acceptor = world
        creds = client.get_ticket(server, till=clock.now() + 10)
        kproxy = grant_via_credentials(creds, (), clock.now())
        wire = kproxy.presentation(server, clock.now(), "read")
        clock.advance(11)
        with pytest.raises((TicketError, ProxyExpiredError)):
            acceptor.accept(wire, req(server))

    def test_restrictions_enforced(self, world):
        clock, _, _, client, server, _, acceptor = world
        creds = client.get_ticket(server)
        kproxy = grant_via_credentials(
            creds,
            (Authorized(entries=(AuthorizedEntry("a", ("read",)),)),),
            clock.now(),
        )
        from repro.errors import RestrictionViolation

        wire = kproxy.presentation(server, clock.now(), "write", target="a")
        with pytest.raises(RestrictionViolation):
            acceptor.accept(
                wire, req(server, operation="write", target="a")
            )

    def test_ticket_authdata_applies(self, world):
        """Restrictions on the grantor's own ticket bind the proxy too."""
        clock, _, _, client, server, _, acceptor = world
        creds = client.get_ticket(
            server,
            additional_restrictions=(Quota(currency="c", limit=1),),
            use_cache=False,
        )
        kproxy = grant_via_credentials(creds, (), clock.now())
        from repro.errors import RestrictionViolation

        wire = kproxy.presentation(server, clock.now(), "read")
        with pytest.raises(RestrictionViolation):
            acceptor.accept(
                wire, req(server, amounts={"c": 5})
            )

    def test_cascaded_proxy_accepted(self, world):
        clock, _, _, client, server, _, acceptor = world
        creds = client.get_ticket(server)
        kproxy = grant_via_credentials(creds, (), clock.now())
        inner = cascade(
            kproxy.proxy, (Quota(currency="c", limit=5),),
            clock.now(), clock.now() + 100,
        )
        wire = kproxy.handoff(inner).presentation(
            server, clock.now(), "read"
        )
        verified = acceptor.accept(wire, req(server, amounts={"c": 3}))
        assert verified.chain_length == 2

    def test_transferable_round_trip(self, world):
        clock, _, _, client, server, _, acceptor = world
        creds = client.get_ticket(server)
        kproxy = grant_via_credentials(creds, (), clock.now())
        again = KerberosProxy.from_transferable(kproxy.transferable())
        wire = again.presentation(server, clock.now(), "read")
        acceptor.accept(wire, req(server))


class TestEndorsement:
    def test_endorsed_chain_verifies_with_both_tickets(self, world, rng):
        clock, network, kdc, client, server, _, acceptor = world
        bob = PrincipalId("bob")
        bob_key = kdc.database.register(bob)
        bob_client = KerberosClient(bob, bob_key, network, clock, rng=rng)

        creds = client.get_ticket(server)
        kproxy = grant_via_credentials(
            creds,
            (Grantee(principals=(bob,)), AcceptOnce(identifier="ck-1")),
            clock.now(),
        )
        carol = PrincipalId("carol")
        bob_creds = bob_client.get_ticket(server)
        endorsed = endorse(
            kproxy, bob_creds, carol, (), clock.now(), clock.now() + 100,
            rng=rng,
        )
        assert len(endorsed.tickets) == 2
        wire = endorsed.presentation(
            server, clock.now(), "read", claimant=carol
        )
        verified = acceptor.accept(wire, req(server, claimant=carol))
        assert verified.audit_trail == (bob,)  # Fig. 5's paper trail

    def test_accept_once_fires_through_endorsement(self, world, rng):
        clock, network, kdc, client, server, _, acceptor = world
        bob = PrincipalId("bob")
        bob_key = kdc.database.register(bob)
        bob_client = KerberosClient(bob, bob_key, network, clock, rng=rng)
        creds = client.get_ticket(server)
        kproxy = grant_via_credentials(
            creds,
            (Grantee(principals=(bob,)), AcceptOnce(identifier="ck-2")),
            clock.now(),
        )
        carol = PrincipalId("carol")
        endorsed = endorse(
            kproxy, bob_client.get_ticket(server), carol, (),
            clock.now(), clock.now() + 100, rng=rng,
        )
        wire = endorsed.presentation(server, clock.now(), "read", claimant=carol)
        acceptor.accept(wire, req(server, claimant=carol))
        wire2 = endorsed.presentation(server, clock.now(), "read", claimant=carol)
        with pytest.raises(ReplayError):
            acceptor.accept(wire2, req(server, claimant=carol))


class TestTgsProxy:
    """§6.3: a proxy for the ticket-granting service fans out."""

    def test_grantee_obtains_ticket_in_grantor_name(self, world, rng):
        clock, network, kdc, client, server, server_key, _ = world
        bob = PrincipalId("bob")
        bob_key = kdc.database.register(bob)
        bob_client = KerberosClient(bob, bob_key, network, clock, rng=rng)
        bob_client.login()

        tgt = client.login()
        tgs_proxy = grant_via_credentials(
            Credentials(
                ticket=tgt.ticket,
                session_key=tgt.session_key,
                client=client.principal,
                expires_at=tgt.expires_at,
            ),
            (Authorized(entries=(AuthorizedEntry("*", ("read",)),)),),
            clock.now(),
        )
        creds = bob_client.redeem_tgs_proxy(
            tgt.ticket, tgs_proxy.proxy, server
        )
        assert creds.client == client.principal
        body = creds.ticket.open(server_key)
        types = [r.to_wire()["type"] for r in body.authorization_data]
        assert "authorized" in types  # identical restrictions carried
        assert "grantee" in types  # pinned to bob

    def test_grantee_can_establish_session(self, world, rng):
        clock, network, kdc, client, server, server_key, _ = world
        bob = PrincipalId("bob")
        bob_key = kdc.database.register(bob)
        bob_client = KerberosClient(bob, bob_key, network, clock, rng=rng)
        bob_client.login()

        tgt = client.login()
        tgs_proxy = grant_via_credentials(
            Credentials(
                ticket=tgt.ticket,
                session_key=tgt.session_key,
                client=client.principal,
                expires_at=tgt.expires_at,
            ),
            (),
            clock.now(),
        )
        creds = bob_client.redeem_tgs_proxy(tgt.ticket, tgs_proxy.proxy, server)
        acceptor = ApAcceptor(server, server_key, clock)
        session = acceptor.accept(
            make_ap_request(creds, clock, presenter=bob, rng=rng)
        )
        assert session.client == client.principal
        assert session.presenter == bob

    def test_third_party_cannot_redeem(self, world, rng):
        """The TGS reply is sealed under the proxy key — only its holder
        can recover the new session key."""
        clock, network, kdc, client, server, _, _ = world
        mallory = PrincipalId("mallory")
        mallory_key = kdc.database.register(mallory)
        mallory_client = KerberosClient(
            mallory, mallory_key, network, clock, rng=rng
        )
        mallory_client.login()

        tgt = client.login()
        tgs_proxy = grant_via_credentials(
            Credentials(
                ticket=tgt.ticket,
                session_key=tgt.session_key,
                client=client.principal,
                expires_at=tgt.expires_at,
            ),
            (),
            clock.now(),
        )
        # Mallory saw the certificates (e.g. on the wire) but not the
        # proxy key.
        stolen = tgs_proxy.proxy.without_key()
        with pytest.raises(Exception):
            mallory_client.redeem_tgs_proxy(tgt.ticket, stolen, server)


class TestKerberosEdgeCases:
    def test_tgs_proxy_requires_symmetric_key(self):
        """A Schnorr-keyed proxy cannot ride the TGS proxy exchange."""
        realm = Realm(seed=b"edge-krb")
        alice = realm.user("alice")
        bob = realm.user("bob")
        fs = realm.file_server("files")
        tgt = alice.kerberos.login()
        bob.kerberos.login()

        from repro.core.proxy import grant_public
        from repro.crypto import schnorr
        from repro.crypto.schnorr_groups import TEST_GROUP
        from repro.crypto.signature import SchnorrSigner
        from repro.errors import ReproError

        identity = schnorr.generate_keypair(TEST_GROUP)
        pk_proxy = grant_public(
            alice.principal, SchnorrSigner(identity), (),
            realm.clock.now(), realm.clock.now() + 100, group=TEST_GROUP,
        )
        with pytest.raises(ReproError):
            bob.kerberos.redeem_tgs_proxy(
                tgt.ticket, pk_proxy, fs.principal
            )
