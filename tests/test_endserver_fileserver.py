"""The end-server framework and the file server (§3.5 hybrid authorization)."""

from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.acl import AclEntry, Anyone, Compound, GroupSubject, SinglePrincipal
from repro.core.restrictions import (
    Authorized,
    AuthorizedEntry,
    ForUseByGroup,
    Grantee,
    Quota,
)
from repro.errors import (
    AuthorizationDenied,
    ProxyVerificationError,
    ReproError,
    RestrictionViolation,
    ServiceError,
)
from repro.encoding.schema import wire
from repro.kerberos.proxy_support import KerberosProxy, grant_via_credentials
from repro.testbed import Realm


@pytest.fixture
def world():
    realm = Realm(seed=b"endserver-test")
    alice = realm.user("alice")
    bob = realm.user("bob")
    fs = realm.file_server("files")
    fs.grant_owner(alice.principal)
    fs.put("doc/a.txt", b"contents A")
    fs.put("doc/b.txt", b"contents B")
    return realm, alice, bob, fs


class TestDirectAccess:
    def test_owner_reads(self, world):
        realm, alice, bob, fs = world
        out = alice.client_for(fs.principal).request("read", "doc/a.txt")
        assert out["data"] == b"contents A"

    def test_stranger_denied(self, world):
        realm, alice, bob, fs = world
        with pytest.raises(AuthorizationDenied):
            bob.client_for(fs.principal).request("read", "doc/a.txt")

    def test_no_session_no_proxy_denied(self, world):
        realm, alice, bob, fs = world
        client = alice.client_for(fs.principal)
        with pytest.raises(AuthorizationDenied):
            client.request("read", "doc/a.txt", with_session=False)

    def test_write_and_stat(self, world):
        realm, alice, bob, fs = world
        client = alice.client_for(fs.principal)
        client.request(
            "write", "doc/new.txt",
            args={"data": b"hello"}, amounts={"bytes": 5},
        )
        out = client.request("stat", "doc/new.txt")
        assert out == {"exists": True, "size": 5}

    def test_write_underdeclared_bytes_rejected(self, world):
        realm, alice, bob, fs = world
        client = alice.client_for(fs.principal)
        with pytest.raises(ServiceError):
            client.request(
                "write", "doc/x", args={"data": b"hello"},
                amounts={"bytes": 1},
            )

    def test_delete_and_list(self, world):
        realm, alice, bob, fs = world
        client = alice.client_for(fs.principal)
        assert client.request("delete", "doc/a.txt") == {"deleted": True}
        assert client.request("list", "doc/")["paths"] == ["doc/b.txt"]

    def test_unknown_operation(self, world):
        realm, alice, bob, fs = world
        with pytest.raises(ServiceError):
            alice.client_for(fs.principal).request("frobnicate", "x")

    def test_read_missing_file(self, world):
        realm, alice, bob, fs = world
        with pytest.raises(ServiceError):
            alice.client_for(fs.principal).request("read", "nope")


class TestCapabilityPath:
    def _capability(self, realm, alice, fs, entries):
        creds = alice.kerberos.get_ticket(fs.principal)
        return grant_via_credentials(
            creds, (Authorized(entries=entries),), realm.clock.now()
        )

    def test_capability_conveys_owner_rights(self, world):
        realm, alice, bob, fs = world
        cap = self._capability(
            realm, alice, fs, (AuthorizedEntry("doc/a.txt", ("read",)),)
        )
        out = bob.client_for(fs.principal).request(
            "read", "doc/a.txt", proxy=cap
        )
        assert out["data"] == b"contents A"

    def test_capability_scope_enforced(self, world):
        realm, alice, bob, fs = world
        cap = self._capability(
            realm, alice, fs, (AuthorizedEntry("doc/a.txt", ("read",)),)
        )
        client = bob.client_for(fs.principal)
        with pytest.raises(RestrictionViolation):
            client.request("read", "doc/b.txt", proxy=cap)
        with pytest.raises(RestrictionViolation):
            client.request("delete", "doc/a.txt", proxy=cap)

    def test_anonymous_bearer_presentation(self, world):
        """A bearer capability works with no session at all (§3.1)."""
        realm, alice, bob, fs = world
        cap = self._capability(
            realm, alice, fs, (AuthorizedEntry("doc/a.txt", ("read",)),)
        )
        out = bob.client_for(fs.principal).request(
            "read", "doc/a.txt", proxy=cap, anonymous=True
        )
        assert out["data"] == b"contents A"

    def test_capability_from_unprivileged_grantor_useless(self, world):
        """The proxy conveys the *grantor's* rights — bob has none."""
        realm, alice, bob, fs = world
        creds = bob.kerberos.get_ticket(fs.principal)
        cap = grant_via_credentials(
            creds,
            (Authorized(entries=(AuthorizedEntry("doc/a.txt", ("read",)),)),),
            realm.clock.now(),
        )
        carol = realm.user("carol")
        with pytest.raises(AuthorizationDenied):
            carol.client_for(fs.principal).request(
                "read", "doc/a.txt", proxy=cap
            )

    def test_revocation_via_acl_change(self, world):
        """§3.1: revoking the grantor's access kills all derived capabilities."""
        realm, alice, bob, fs = world
        cap = self._capability(
            realm, alice, fs, (AuthorizedEntry("doc/a.txt", ("read",)),)
        )
        client = bob.client_for(fs.principal)
        client.request("read", "doc/a.txt", proxy=cap)
        fs.acl.remove_subject(SinglePrincipal(alice.principal))
        with pytest.raises(AuthorizationDenied):
            client.request("read", "doc/a.txt", proxy=cap)


class TestDelegatePath:
    def test_delegate_proxy_requires_named_claimant(self, world):
        realm, alice, bob, fs = world
        creds = alice.kerberos.get_ticket(fs.principal)
        proxy = grant_via_credentials(
            creds, (Grantee(principals=(bob.principal,)),), realm.clock.now()
        )
        out = bob.client_for(fs.principal).request(
            "read", "doc/a.txt", proxy=proxy
        )
        assert out["data"] == b"contents A"
        carol = realm.user("carol")
        with pytest.raises(RestrictionViolation):
            carol.client_for(fs.principal).request(
                "read", "doc/a.txt", proxy=proxy
            )


class TestCompoundPrincipals:
    def test_user_and_host_required(self, world):
        """§3.5: concurrence of user and host credentials."""
        realm, alice, bob, fs = world
        host = realm.user("workstation-7")
        fs.put("secure/keys", b"root key material")
        fs.acl.add(
            AclEntry(
                subject=Compound(
                    subjects=(
                        SinglePrincipal(bob.principal),
                        SinglePrincipal(host.principal),
                    )
                ),
                operations=("read",),
                targets=("secure/*",),
            )
        )
        client = bob.client_for(fs.principal)
        # Bob alone: denied.
        with pytest.raises(AuthorizationDenied):
            client.request("read", "secure/keys")
        # Bob plus the host's proxy vouching for him: allowed.
        host_creds = host.kerberos.get_ticket(fs.principal)
        host_proxy = grant_via_credentials(
            host_creds,
            (Grantee(principals=(bob.principal,)),),
            realm.clock.now(),
        )
        out = client.request("read", "secure/keys", proxy=host_proxy)
        assert out["data"] == b"root key material"


class TestSessionRestrictions:
    def test_authenticator_restrictions_bind_session(self, world):
        """§6.2: restrictions in the authenticator narrow the session."""
        realm, alice, bob, fs = world
        client = alice.client_for(fs.principal)
        client.establish_session(
            additional_restrictions=(
                Authorized(entries=(AuthorizedEntry("doc/b.txt", ("read",)),)),
            )
        )
        assert client.request("read", "doc/b.txt")["data"] == b"contents B"
        with pytest.raises(RestrictionViolation):
            client.request("read", "doc/a.txt")

    def test_quota_in_session(self, world):
        realm, alice, bob, fs = world
        client = alice.client_for(fs.principal)
        client.establish_session(
            additional_restrictions=(Quota(currency="bytes", limit=3),)
        )
        with pytest.raises(RestrictionViolation):
            client.request(
                "write", "doc/big", args={"data": b"xxxxx"},
                amounts={"bytes": 5},
            )


class TestGroupAcl:
    def test_group_entry_via_group_proxy(self, world):
        realm, alice, bob, fs = world
        gs = realm.group_server("groups")
        gid = gs.create_group("staff", (bob.principal,))
        fs.acl.add(
            AclEntry(subject=GroupSubject(gid), operations=("read",))
        )
        g, gproxy = bob.group_client(gs.principal).get_group_proxy(
            "staff", fs.principal
        )
        out = bob.client_for(fs.principal).request(
            "read", "doc/a.txt", group_proxies=[(g, gproxy)]
        )
        assert out["data"] == b"contents A"

    def test_non_member_cannot_get_proxy(self, world):
        realm, alice, bob, fs = world
        gs = realm.group_server("groups")
        gs.create_group("staff", (bob.principal,))
        carol = realm.user("carol")
        with pytest.raises(AuthorizationDenied):
            carol.group_client(gs.principal).get_group_proxy(
                "staff", fs.principal
            )

    def test_for_use_by_group_restriction(self, world):
        """§7.2: a proxy usable only by asserting a group membership."""
        realm, alice, bob, fs = world
        gs = realm.group_server("groups")
        gid = gs.create_group("auditors", (bob.principal,))
        creds = alice.kerberos.get_ticket(fs.principal)
        proxy = grant_via_credentials(
            creds,
            (ForUseByGroup(groups=(gid,)),),
            realm.clock.now(),
        )
        client = bob.client_for(fs.principal)
        with pytest.raises(RestrictionViolation):
            client.request("read", "doc/a.txt", proxy=proxy)
        g, gproxy = bob.group_client(gs.principal).get_group_proxy(
            "auditors", fs.principal
        )
        out = client.request(
            "read", "doc/a.txt", proxy=proxy, group_proxies=[(g, gproxy)]
        )
        assert out["data"] == b"contents A"


class TestServiceClientBehaviors:
    def test_session_reused_across_requests(self, world):
        realm, alice, bob, fs = world
        client = alice.client_for(fs.principal)
        client.request("read", "doc/a.txt")
        before = realm.network.metrics.snapshot()
        client.request("read", "doc/a.txt")
        delta = realm.network.metrics.delta_since(before)
        assert delta.messages == 2  # no AP re-handshake

    def test_anonymous_without_proxy_denied(self, world):
        realm, alice, bob, fs = world
        client = alice.client_for(fs.principal)
        with pytest.raises(AuthorizationDenied):
            client.request("read", "doc/a.txt", anonymous=True)

    def test_session_restrictions_per_session(self, world):
        """Two clients of the same user carry independent sessions."""
        realm, alice, bob, fs = world
        restricted = alice.client_for(fs.principal)
        restricted.establish_session(
            additional_restrictions=(Quota(currency="bytes", limit=0),)
        )
        free = alice.client_for(fs.principal)
        free.request(
            "write", "c", args={"data": b"xx"}, amounts={"bytes": 2}
        )
        with pytest.raises(RestrictionViolation):
            restricted.request(
                "write", "d", args={"data": b"xx"}, amounts={"bytes": 2}
            )


class TestProxyTransfer:
    def test_transferable_without_key_for_delegates(self, world):
        """Delegate proxies can be passed around without key material."""
        realm, alice, bob, fs = world
        creds = alice.kerberos.get_ticket(fs.principal)
        proxy = grant_via_credentials(
            creds, (Grantee(principals=(bob.principal,)),), realm.clock.now()
        )
        stripped = KerberosProxy(
            tickets=proxy.tickets, proxy=proxy.proxy.without_key()
        )
        wire = stripped.transferable()
        assert wire["proxy_key"] is None
        rebuilt = KerberosProxy.from_transferable(wire)
        out = bob.client_for(fs.principal).request(
            "read", "doc/a.txt", proxy=rebuilt
        )
        assert out["data"] == b"contents A"

    def test_bearer_without_key_unusable(self, world):
        realm, alice, bob, fs = world
        creds = alice.kerberos.get_ticket(fs.principal)
        proxy = grant_via_credentials(creds, (), realm.clock.now())
        stripped = KerberosProxy(
            tickets=proxy.tickets, proxy=proxy.proxy.without_key()
        )
        with pytest.raises(ReproError):
            bob.client_for(fs.principal).request(
                "read", "doc/a.txt", proxy=stripped, anonymous=True
            )


class TestEndServerEdgeCases:
    @pytest.fixture
    def world(self):
        realm = Realm(seed=b"edge-endserver")
        alice = realm.user("alice")
        fs = realm.file_server("files")
        fs.grant_owner(alice.principal)
        fs.put("doc", b"data")
        return realm, alice, fs

    def test_unknown_session_id(self, world):
        realm, alice, fs = world
        from repro.net.message import raise_if_error

        with pytest.raises(ServiceError):
            raise_if_error(
                realm.network.send(
                    alice.principal, fs.principal, "request",
                    {
                        "operation": "read", "target": "doc",
                        "session_id": b"bogus-session-id", "args": {},
                        "amounts": {},
                    },
                )
            )

    def test_group_proxy_from_wrong_server_rejected(self, world):
        """A group proxy must be granted by the group's own server (§3.3)."""
        realm, alice, fs = world
        from repro.encoding.identifiers import GroupId
        from repro.core.restrictions import GroupMembership

        impostor_group = GroupId(
            server=realm.principal("real-group-server"), group="staff"
        )
        # alice (not the group server) mints a proxy claiming membership.
        creds = alice.kerberos.get_ticket(fs.principal)
        fake = grant_via_credentials(
            creds,
            (GroupMembership(groups=(impostor_group,)),),
            realm.clock.now(),
        )
        client = alice.client_for(fs.principal)
        with pytest.raises(ProxyVerificationError):
            client.request(
                "read", "doc", group_proxies=[(impostor_group, fake)]
            )

    def test_malformed_request_payload(self, world):
        realm, alice, fs = world
        from repro.net.message import is_error

        reply = realm.network.send(
            alice.principal, fs.principal, "request", {"no": "operation"}
        )
        assert is_error(reply)

    def test_non_finite_amount_is_an_error_reply(self, world):
        """An infinite amount is refused by type, before any int() could
        overflow."""
        realm, alice, fs = world
        client = alice.client_for(fs.principal)
        client.establish_session()
        before = (dict(fs.files), dict(fs.sessions), fs.audit.all())
        reply = realm.network.send(
            alice.principal, fs.principal, "request",
            {
                "operation": "read", "target": "doc", "args": {},
                "session_id": client.session_id(),
                "amounts": {"x": float("inf")},
            },
        )
        assert reply["__error__"]["kind"] == "malformed"
        assert "amounts['x']" in reply["__error__"]["detail"]
        assert (dict(fs.files), dict(fs.sessions), fs.audit.all()) == before
        assert client.request("read", "doc")["data"] == b"data"

    def test_index_error_in_a_handler_is_an_error_reply(self, world):
        realm, alice, fs = world

        @wire
        @dataclass(frozen=True)
        class ItemsArgs:
            items: Tuple[int, ...]

        fs.register_operation(
            "first", lambda request: {"item": request.args.items[0]}, ItemsArgs
        )
        client = alice.client_for(fs.principal)
        assert client.request("first", args={"items": [7]})["item"] == 7
        with pytest.raises(ServiceError, match="malformed.*IndexError"):
            client.request("first", args={"items": []})
        assert client.request("read", "doc")["data"] == b"data"

    def test_handler_exception_becomes_error_payload(self, world):
        realm, alice, fs = world

        def broken(request):
            raise ServiceError("deliberate")

        fs.register_operation("boom", broken)
        client = alice.client_for(fs.principal)
        with pytest.raises(ServiceError, match="deliberate"):
            client.request("boom")


class TestChallengeBasedPresentation:
    @pytest.fixture
    def world(self):
        realm = Realm(seed=b"challenge-test")
        alice = realm.user("alice")
        bob = realm.user("bob")
        fs = realm.file_server("files")
        fs.grant_owner(alice.principal)
        fs.put("doc", b"data")
        creds = alice.kerberos.get_ticket(fs.principal)
        cap = grant_via_credentials(
            creds,
            (Authorized(entries=(AuthorizedEntry("doc", ("read",)),)),),
            realm.clock.now(),
        )
        return realm, alice, bob, fs, cap

    def test_challenge_flow_works(self, world):
        realm, alice, bob, fs, cap = world
        client = bob.client_for(fs.principal)
        out = client.request(
            "read", "doc", proxy=cap, anonymous=True, use_challenge=True
        )
        assert out["data"] == b"data"

    def test_forged_challenge_rejected(self, world):
        realm, alice, bob, fs, cap = world
        wire = cap.presentation(
            fs.principal, realm.clock.now(), "read", target="doc",
            challenge=b"not-issued-by-server",
        )
        payload = {
            "operation": "read", "target": "doc", "args": {},
            "amounts": {}, "proxy": wire,
        }
        from repro.net.message import raise_if_error

        with pytest.raises(ProxyVerificationError):
            raise_if_error(
                realm.network.send(
                    bob.principal, fs.principal, "request", payload
                )
            )

    def test_challenge_single_use(self, world):
        realm, alice, bob, fs, cap = world
        challenge = realm.network.send(
            bob.principal, fs.principal, "get-challenge", {}
        )["challenge"]
        wire = cap.presentation(
            fs.principal, realm.clock.now(), "read", target="doc",
            challenge=challenge,
        )
        payload = {
            "operation": "read", "target": "doc", "args": {},
            "amounts": {}, "proxy": wire,
        }
        from repro.net.message import raise_if_error

        raise_if_error(
            realm.network.send(bob.principal, fs.principal, "request", payload)
        )
        # The same challenge (even with a fresh proof) is spent.
        wire2 = cap.presentation(
            fs.principal, realm.clock.now(), "read", target="doc",
            challenge=challenge,
        )
        payload["proxy"] = wire2
        with pytest.raises(ProxyVerificationError):
            raise_if_error(
                realm.network.send(
                    bob.principal, fs.principal, "request", payload
                )
            )

    def test_expired_challenge_rejected(self, world):
        realm, alice, bob, fs, cap = world
        challenge = realm.network.send(
            bob.principal, fs.principal, "get-challenge", {}
        )["challenge"]
        realm.clock.advance(fs.acceptor.verifier.freshness_window + 1)
        wire = cap.presentation(
            fs.principal, realm.clock.now(), "read", target="doc",
            challenge=challenge,
        )
        payload = {
            "operation": "read", "target": "doc", "args": {},
            "amounts": {}, "proxy": wire,
        }
        from repro.net.message import raise_if_error

        with pytest.raises(ProxyVerificationError):
            raise_if_error(
                realm.network.send(
                    bob.principal, fs.principal, "request", payload
                )
            )


class TestBoundedTables:
    """Sessions and challenges nobody comes back for do not pile up."""

    def test_abandoned_and_replaced_sessions_are_swept(self):
        realm = Realm(seed=b"bounded-sessions")
        fs = realm.file_server("files")
        fs.put("doc", b"data")
        for i in range(5):
            user = realm.user(f"u{i}")
            fs.grant_owner(user.principal)
            client = user.client_for(fs.principal)
            client.establish_session()
            client.establish_session()  # replaces a live session
            assert client.request("read", "doc")["data"] == b"data"
        assert len(fs.sessions) == 10
        # Every ticket (and so every session) expires; nobody returns.
        realm.clock.advance(9 * 3600)
        late = realm.user("late")
        fs.grant_owner(late.principal)
        client = late.client_for(fs.principal)
        assert client.request("read", "doc")["data"] == b"data"
        assert list(fs.sessions) == [client.session_id()]

    def test_live_sessions_survive_a_sweep(self):
        realm = Realm(seed=b"bounded-sessions-live")
        fs = realm.file_server("files")
        fs.put("doc", b"data")
        alice, bob = realm.user("alice"), realm.user("bob")
        fs.grant_owner(alice.principal)
        fs.grant_owner(bob.principal)
        first = alice.client_for(fs.principal)
        first.establish_session()
        realm.clock.advance(600.0)  # past the sweep interval, not the ticket
        bob.client_for(fs.principal).establish_session()
        assert len(fs.sessions) == 2
        messages = realm.network.metrics.messages
        assert first.request("read", "doc")["data"] == b"data"
        assert realm.network.metrics.messages == messages + 2

    def test_unused_challenges_are_swept(self):
        realm = Realm(seed=b"bounded-challenges")
        bob = realm.user("bob")
        fs = realm.file_server("files")

        def fetch():
            return realm.network.send(
                bob.principal, fs.principal, "get-challenge", {}
            )["challenge"]

        for _ in range(20):
            fetch()
        assert len(fs._challenges) == 20
        realm.clock.advance(fs.acceptor.verifier.freshness_window + 1.0)
        fresh = fetch()
        assert list(fs._challenges) == [fresh]


class TestAuditIntegration:
    def test_proxy_requests_audited(self):
        realm = Realm(seed=b"audit-int")
        alice = realm.user("alice")
        bob = realm.user("bob")
        fs = realm.file_server("files")
        fs.grant_owner(alice.principal)
        fs.put("doc", b"data")
        creds = alice.kerberos.get_ticket(fs.principal)
        proxy = grant_via_credentials(
            creds, (Grantee(principals=(bob.principal,)),), realm.clock.now()
        )
        bob.client_for(fs.principal).request("read", "doc", proxy=proxy)
        records = fs.audit.involving(alice.principal)
        assert len(records) == 1
        assert records[0].grantor == alice.principal
        assert records[0].claimant == bob.principal
        assert records[0].operation == "read"

    def test_direct_requests_not_audited(self):
        realm = Realm(seed=b"audit-int2")
        alice = realm.user("alice")
        fs = realm.file_server("files")
        fs.grant_owner(alice.principal)
        fs.put("doc", b"data")
        alice.client_for(fs.principal).request("read", "doc")
        assert len(fs.audit) == 0


class TestSessionRecovery:
    def test_expired_session_reestablished(self):
        realm = Realm(seed=b"session-recovery")
        alice = realm.user("alice")
        fs = realm.file_server("files")
        fs.grant_owner(alice.principal)
        fs.put("doc", b"data")
        client = alice.client_for(fs.principal)
        assert client.request("read", "doc")["data"] == b"data"
        # Let the ticket (and therefore the session) expire.
        realm.clock.advance(9 * 3600)
        assert client.request("read", "doc")["data"] == b"data"
