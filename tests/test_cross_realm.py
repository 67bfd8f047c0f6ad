"""Cross-realm authentication and delegation (§1's inter-organization setting)."""

import pytest

from repro.core.restrictions import Authorized, AuthorizedEntry, Grantee
from repro.errors import ReproError, TicketError, UnknownPrincipalError
from repro.kerberos.kdc import cross_realm_principal, federate
from repro.kerberos.proxy_support import grant_via_credentials
from repro.testbed import Realm, federation


@pytest.fixture
def realms():
    return federation(["A.ORG", "B.ORG", "C.ORG"], seed=b"xrealm-test")


class TestFederation:
    def test_cross_realm_ticket(self, realms):
        alice = realms["A.ORG"].user("alice")
        shop = realms["B.ORG"].file_server("shop")
        creds = alice.kerberos.get_ticket(shop.principal)
        assert creds.server == shop.principal
        assert creds.client == alice.principal
        assert creds.client.realm == "A.ORG"

    def test_cross_realm_session(self, realms):
        alice = realms["A.ORG"].user("alice")
        shop = realms["B.ORG"].file_server("shop")
        shop.grant_owner(alice.principal)
        shop.put("doc", b"data")
        out = alice.client_for(shop.principal).request("read", "doc")
        assert out["data"] == b"data"

    def test_cross_realm_tgt_cached(self, realms):
        alice = realms["A.ORG"].user("alice")
        b = realms["B.ORG"]
        s1 = b.file_server("s1")
        s2 = b.file_server("s2")
        alice.kerberos.get_ticket(s1.principal)
        before = b.network.metrics.snapshot()
        alice.kerberos.get_ticket(s2.principal)
        delta = b.network.metrics.delta_since(before)
        # Only the remote TGS exchange — no new home-KDC or AS traffic.
        home_kdc = realms["A.ORG"].kdc.principal
        assert delta.messages_to(home_kdc) == 0

    def test_unfederated_realm_fails(self):
        a = Realm(seed=b"iso-a", realm="ISO-A.ORG")
        # A foreign server in a realm our KDC has no trust path to.
        alice = a.user("alice")
        foreign = alice.kerberos.get_ticket.__self__  # noqa: just clarity
        from repro.encoding.identifiers import PrincipalId

        with pytest.raises(ReproError):
            alice.kerberos.get_ticket(PrincipalId("srv", "NOWHERE.ORG"))

    def test_cross_realm_principal_naming(self):
        p = cross_realm_principal("B.ORG", "A.ORG")
        assert p.name == "krbtgt.B.ORG"
        assert p.realm == "A.ORG"

    def test_federation_is_pairwise_not_transitive(self):
        """Only explicitly federated pairs trust each other."""
        a = Realm(seed=b"pt-a", realm="PA.ORG")
        b = Realm(
            seed=b"pt-b", realm="PB.ORG", network=a.network, clock=a.clock
        )
        c = Realm(
            seed=b"pt-c", realm="PC.ORG", network=a.network, clock=a.clock
        )
        federate(a.kdc, b.kdc)
        federate(b.kdc, c.kdc)
        alice = a.user("alice")
        server_c = c.file_server("srv")
        # A->C has no direct key; our client does not chase multi-hop
        # referral paths, so this fails at the home KDC.
        with pytest.raises(ReproError):
            alice.kerberos.get_ticket(server_c.principal)


class TestCrossRealmDelegation:
    def test_capability_across_realms(self, realms):
        """A grantor in one organization delegates to a bearer in another."""
        alice = realms["A.ORG"].user("alice")
        bob = realms["B.ORG"].user("bob")
        shop = realms["B.ORG"].file_server("shop")
        shop.grant_owner(alice.principal)
        shop.put("doc", b"data")
        creds = alice.kerberos.get_ticket(shop.principal)
        cap = grant_via_credentials(
            creds,
            (Authorized(entries=(AuthorizedEntry("doc", ("read",)),)),),
            realms["A.ORG"].clock.now(),
        )
        out = bob.client_for(shop.principal).request(
            "read", "doc", proxy=cap, anonymous=True
        )
        assert out["data"] == b"data"

    def test_delegate_proxy_across_realms(self, realms):
        alice = realms["A.ORG"].user("alice")
        bob = realms["C.ORG"].user("bob")
        shop = realms["B.ORG"].file_server("shop")
        shop.grant_owner(alice.principal)
        shop.put("doc", b"data")
        creds = alice.kerberos.get_ticket(shop.principal)
        proxy = grant_via_credentials(
            creds,
            (Grantee(principals=(bob.principal,)),),
            realms["A.ORG"].clock.now(),
        )
        out = bob.client_for(shop.principal).request(
            "read", "doc", proxy=proxy
        )
        assert out["data"] == b"data"
        # The audit record spans organizations.
        record = shop.audit.involving(alice.principal)[0]
        assert record.claimant.realm == "C.ORG"
        assert record.grantor.realm == "A.ORG"

    def test_cross_realm_payment(self, realms):
        """Electronic commerce across organizations (§1): a check drawn on
        a bank in realm A clears into an account at a bank in realm B."""
        buyer = realms["A.ORG"].user("buyer")
        merchant = realms["B.ORG"].user("merchant")
        bank_a = realms["A.ORG"].accounting_server("bank-a")
        bank_b = realms["B.ORG"].accounting_server("bank-b")
        bank_a.create_account("buyer", buyer.principal, {"dollars": 100})
        bank_b.create_account("merchant", merchant.principal)
        check = buyer.accounting_client(bank_a.principal).write_check(
            "buyer", merchant.principal, "dollars", 35
        )
        result = merchant.accounting_client(bank_b.principal).deposit_check(
            check, "merchant"
        )
        assert result["paid"] == 35
        assert bank_a.accounts["buyer"].balance("dollars") == 65
        assert bank_b.accounts["merchant"].balance("dollars") == 35


class TestKerberosEdgeCases:
    def test_cross_tgt_reuse_after_expiry(self):
        realms = federation(["XA.ORG", "XB.ORG"], seed=b"edge-cross")
        alice = realms["XA.ORG"].user("alice")
        srv = realms["XB.ORG"].file_server("srv")
        alice.kerberos.get_ticket(srv.principal)
        # Push past every lifetime; the client must transparently redo the
        # whole chain (login, cross TGT, remote TGS).
        realms["XA.ORG"].clock.advance(9 * 3600)
        creds = alice.kerberos.get_ticket(srv.principal)
        assert creds.expires_at > realms["XA.ORG"].clock.now()
