"""Authorization server (§3.2, Fig. 3) and group server (§3.3)."""

import pytest

from repro.acl import AclEntry, GroupSubject, SinglePrincipal
from repro.core.restrictions import Expiration, Grantee, IssuedFor, Quota
from repro.errors import (
    AuthorizationDenied,
    RestrictionViolation,
    ServiceError,
)
from repro.testbed import Realm
from repro.kerberos.proxy_support import grant_via_credentials


@pytest.fixture
def world():
    realm = Realm(seed=b"authz-test")
    alice = realm.user("alice")
    bob = realm.user("bob")
    fs = realm.file_server("files")
    fs.put("doc/x", b"X")
    fs.put("a", b"A")
    fs.put("b", b"B")
    azs = realm.authorization_server("authz")
    # Fig. 3: end-server S grants (full) access to authorization server R.
    fs.acl.add(AclEntry(subject=SinglePrincipal(azs.principal)))
    return realm, alice, bob, fs, azs


class TestAuthorizationServer:
    def test_fig3_flow(self, world):
        realm, alice, bob, fs, azs = world
        azs.database_for(fs.principal).add(
            AclEntry(subject=SinglePrincipal(bob.principal), operations=("read",))
        )
        proxy = bob.authorization_client(azs.principal).authorize(
            fs.principal, ("read",), ("doc/*",)
        )
        # Message 3: present to S.
        out = bob.client_for(fs.principal).request(
            "read", "doc/x", proxy=proxy
        )
        assert out["data"] == b"X"

    def test_unlisted_client_denied(self, world):
        realm, alice, bob, fs, azs = world
        azs.database_for(fs.principal)  # empty database
        with pytest.raises(AuthorizationDenied):
            bob.authorization_client(azs.principal).authorize(
                fs.principal, ("read",)
            )

    def test_unknown_end_server_denied(self, world):
        realm, alice, bob, fs, azs = world
        with pytest.raises(AuthorizationDenied):
            bob.authorization_client(azs.principal).authorize(
                realm.principal("ghost-server"), ("read",)
            )

    def test_operation_not_in_database_denied(self, world):
        realm, alice, bob, fs, azs = world
        azs.database_for(fs.principal).add(
            AclEntry(subject=SinglePrincipal(bob.principal), operations=("read",))
        )
        with pytest.raises(AuthorizationDenied):
            bob.authorization_client(azs.principal).authorize(
                fs.principal, ("delete",)
            )

    def test_issued_proxy_scope_limited(self, world):
        """The proxy asserts exactly what was requested, nothing more."""
        realm, alice, bob, fs, azs = world
        azs.database_for(fs.principal).add(
            AclEntry(
                subject=SinglePrincipal(bob.principal),
                operations=("read", "delete"),
            )
        )
        proxy = bob.authorization_client(azs.principal).authorize(
            fs.principal, ("read",), ("doc/*",)
        )
        client = bob.client_for(fs.principal)
        with pytest.raises(RestrictionViolation):
            client.request("delete", "doc/x", proxy=proxy)

    def test_database_entry_restrictions_copied(self, world):
        """§3.5: ACL-entry restrictions flow into issued proxies."""
        realm, alice, bob, fs, azs = world
        azs.database_for(fs.principal).add(
            AclEntry(
                subject=SinglePrincipal(bob.principal),
                operations=("read",),
                restrictions=(Quota(currency="bytes", limit=1),),
            )
        )
        proxy = bob.authorization_client(azs.principal).authorize(
            fs.principal, ("read",)
        )
        quota_types = [
            r.to_wire()["type"]
            for cert in proxy.proxy.certificates
            for r in cert.restrictions
        ]
        assert "quota" in quota_types

    def test_issued_for_pins_proxy_to_server(self, world):
        realm, alice, bob, fs, azs = world
        azs.database_for(fs.principal).add(
            AclEntry(subject=SinglePrincipal(bob.principal), operations=("read",))
        )
        proxy = bob.authorization_client(azs.principal).authorize(
            fs.principal, ("read",)
        )
        issued_for = [
            r
            for cert in proxy.proxy.certificates
            for r in cert.restrictions
            if isinstance(r, IssuedFor)
        ]
        assert issued_for and issued_for[0].servers == (fs.principal,)

    def test_unauthenticated_request_denied(self, world):
        realm, alice, bob, fs, azs = world
        azs.database_for(fs.principal).add(
            AclEntry(subject=SinglePrincipal(bob.principal), operations=("read",))
        )
        client = bob.client_for(azs.principal)
        with pytest.raises(AuthorizationDenied):
            client.request(
                "authorize",
                args={
                    "server": fs.principal.to_wire(),
                    "operations": ["read"],
                    "targets": ["*"],
                },
                with_session=False,
            )

    def test_end_server_must_trust_authz_server(self, world):
        """Without R on S's ACL the proxy is verifiable but unauthorized."""
        realm, alice, bob, fs, azs = world
        fs.acl.remove_subject(SinglePrincipal(azs.principal))
        azs.database_for(fs.principal).add(
            AclEntry(subject=SinglePrincipal(bob.principal), operations=("read",))
        )
        proxy = bob.authorization_client(azs.principal).authorize(
            fs.principal, ("read",)
        )
        with pytest.raises(AuthorizationDenied):
            bob.client_for(fs.principal).request(
                "read", "doc/x", proxy=proxy
            )


class TestGroupServer:
    def test_membership_proxy_round_trip(self, world):
        realm, alice, bob, fs, azs = world
        gs = realm.group_server("groups")
        gid = gs.create_group("staff", (bob.principal,))
        fs.acl.add(AclEntry(subject=GroupSubject(gid), operations=("read",)))
        g, proxy = bob.group_client(gs.principal).get_group_proxy(
            "staff", fs.principal
        )
        assert g == gid
        out = bob.client_for(fs.principal).request(
            "read", "doc/x", group_proxies=[(g, proxy)]
        )
        assert out["data"] == b"X"

    def test_group_proxy_not_transferable(self, world):
        """Group proxies are delegate proxies pinned to the member."""
        realm, alice, bob, fs, azs = world
        gs = realm.group_server("groups")
        gid = gs.create_group("staff", (bob.principal,))
        fs.acl.add(AclEntry(subject=GroupSubject(gid), operations=("read",)))
        g, proxy = bob.group_client(gs.principal).get_group_proxy(
            "staff", fs.principal
        )
        carol = realm.user("carol")
        with pytest.raises(RestrictionViolation):
            carol.client_for(fs.principal).request(
                "read", "doc/x", group_proxies=[(g, proxy)]
            )

    def test_proxy_asserts_only_its_group(self, world):
        """§7.6: group-membership limits assertable groups."""
        realm, alice, bob, fs, azs = world
        gs = realm.group_server("groups")
        gs.create_group("staff", (bob.principal,))
        admins = gs.create_group("admins", (bob.principal,))
        fs.acl.add(
            AclEntry(subject=GroupSubject(admins), operations=("read",))
        )
        g, staff_proxy = bob.group_client(gs.principal).get_group_proxy(
            "staff", fs.principal
        )
        # Presenting the staff proxy as an admins assertion must fail.
        with pytest.raises(RestrictionViolation):
            bob.client_for(fs.principal).request(
                "read", "doc/x", group_proxies=[(admins, staff_proxy)]
            )

    def test_unknown_group(self, world):
        realm, alice, bob, fs, azs = world
        gs = realm.group_server("groups")
        with pytest.raises(ServiceError):
            bob.group_client(gs.principal).get_group_proxy(
                "ghosts", fs.principal
            )

    def test_membership_revocation(self, world):
        realm, alice, bob, fs, azs = world
        gs = realm.group_server("groups")
        gs.create_group("staff", (bob.principal,))
        gs.remove_member("staff", bob.principal)
        with pytest.raises(AuthorizationDenied):
            bob.group_client(gs.principal).get_group_proxy(
                "staff", fs.principal
            )

    def test_online_membership_query(self, world):
        realm, alice, bob, fs, azs = world
        gs = realm.group_server("groups")
        gs.create_group("staff", (bob.principal,))
        gc = bob.group_client(gs.principal)
        assert gc.query_membership("staff", bob.principal)
        assert not gc.query_membership("staff", alice.principal)

    def test_group_name_in_authz_database(self, world):
        """§3.3: group names appear in authorization databases too."""
        realm, alice, bob, fs, azs = world
        gs = realm.group_server("groups")
        gid = gs.create_group("staff", (bob.principal,))
        azs.database_for(fs.principal).add(
            AclEntry(subject=GroupSubject(gid), operations=("read",))
        )
        g, gproxy = bob.group_client(gs.principal).get_group_proxy(
            "staff", azs.principal
        )
        proxy = bob.authorization_client(azs.principal).authorize(
            fs.principal, ("read",), ("doc/*",), group_proxies=[(g, gproxy)]
        )
        out = bob.client_for(fs.principal).request(
            "read", "doc/x", proxy=proxy
        )
        assert out["data"] == b"X"


class TestAuthorizationMatrix:
    def test_multi_operation_multi_target(self, world):
        realm, alice, bob, fs, azs = world
        azs.database_for(fs.principal).add(
            AclEntry(
                subject=SinglePrincipal(bob.principal),
                operations=("read", "stat"),
                targets=("a", "b"),
            )
        )
        proxy = bob.authorization_client(azs.principal).authorize(
            fs.principal, ("read", "stat"), ("a", "b")
        )
        client = bob.client_for(fs.principal)
        assert client.request("read", "a", proxy=proxy)["data"] == b"A"
        assert client.request("stat", "b", proxy=proxy)["exists"]

    def test_partial_coverage_denied(self, world):
        """Every requested (op, target) must be covered by the database."""
        realm, alice, bob, fs, azs = world
        azs.database_for(fs.principal).add(
            AclEntry(
                subject=SinglePrincipal(bob.principal),
                operations=("read",),
                targets=("a",),
            )
        )
        with pytest.raises(AuthorizationDenied):
            bob.authorization_client(azs.principal).authorize(
                fs.principal, ("read",), ("a", "b")
            )

    def test_expiration_restriction_in_database(self, world):
        """An Expiration carried from the database limits the proxy."""
        realm, alice, bob, fs, azs = world
        azs.database_for(fs.principal).add(
            AclEntry(
                subject=SinglePrincipal(bob.principal),
                operations=("read",),
                restrictions=(
                    Expiration(not_after=realm.clock.now() + 30),
                ),
            )
        )
        proxy = bob.authorization_client(azs.principal).authorize(
            fs.principal, ("read",)
        )
        client = bob.client_for(fs.principal)
        assert client.request("read", "a", proxy=proxy)["data"] == b"A"
        realm.clock.advance(31)
        with pytest.raises(RestrictionViolation):
            client.request("read", "a", proxy=proxy)

    def test_empty_operations_rejected(self, world):
        realm, alice, bob, fs, azs = world
        with pytest.raises(ServiceError):
            bob.authorization_client(azs.principal).authorize(
                fs.principal, ()
            )


class TestIssuedForInIssuerMode:
    def test_proxy_scoped_to_issuer_accepted(self, world):
        """A proxy issued-for the authorization server itself passes the
        issuer-mode check there."""
        realm, alice, bob, fs, azs = world
        fs.grant_owner(alice.principal)
        azs.database_for(fs.principal).add(
            AclEntry(subject=SinglePrincipal(alice.principal), operations=("read",))
        )
        creds = bob.kerberos.get_ticket(azs.principal)
        # bob holds a proxy from alice usable at the authz server.
        alice_creds = alice.kerberos.get_ticket(azs.principal)
        helper = grant_via_credentials(
            alice_creds,
            (
                Grantee(principals=(bob.principal,)),
                IssuedFor(servers=(azs.principal,)),
            ),
            realm.clock.now(),
        )
        proxy = bob.authorization_client(azs.principal).authorize(
            fs.principal, ("read",), proxy=helper
        )
        out = bob.client_for(fs.principal).request(
            "read", "a", proxy=proxy
        )
        assert out["data"] == b"A"

    def test_proxy_scoped_elsewhere_rejected(self, world):
        realm, alice, bob, fs, azs = world
        azs.database_for(fs.principal).add(
            AclEntry(subject=SinglePrincipal(alice.principal), operations=("read",))
        )
        alice_creds = alice.kerberos.get_ticket(azs.principal)
        wrong = grant_via_credentials(
            alice_creds,
            (
                Grantee(principals=(bob.principal,)),
                IssuedFor(servers=(fs.principal,)),  # not for the issuer
            ),
            realm.clock.now(),
        )
        with pytest.raises(RestrictionViolation):
            bob.authorization_client(azs.principal).authorize(
                fs.principal, ("read",), proxy=wrong
            )
