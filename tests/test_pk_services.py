"""The pure public-key deployment (§6.1): no KDC, directory + signatures."""

import pytest

from repro.acl import AclEntry, SinglePrincipal
from repro.clock import SimulatedClock
from repro.core.proxy import cascade, grant_hybrid, grant_public
from repro.core.restrictions import (
    Authorized,
    AuthorizedEntry,
    Grantee,
    IssuedFor,
    Quota,
)
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    AuthenticatorError,
    AuthorizationDenied,
    ProxyVerificationError,
    ReplayError,
    ReproError,
    RestrictionViolation,
)
from repro.net import Network
from repro.services.pk_endserver import (
    PkClient,
    PkEndServer,
    PublicKeyDirectory,
)

START = 1_000_000.0


@pytest.fixture
def world(rng):
    clock = SimulatedClock(START)
    network = Network(clock, rng=rng)
    directory = PublicKeyDirectory()
    server = PkEndServer(
        PrincipalId("pk-files"), network, clock, directory,
        group=TEST_GROUP, rng=rng,
    )
    files = {"doc": b"pk data"}

    def read(request):
        return {"data": files[request.args["path"]]}

    def write(request):
        files[request.args["path"]] = request.args["data"]
        return {"ok": True}

    server.register_operation("read", read)
    server.register_operation("write", write)
    alice = PkClient(
        PrincipalId("alice"), network, clock, directory,
        group=TEST_GROUP, rng=rng,
    )
    bob = PkClient(
        PrincipalId("bob"), network, clock, directory,
        group=TEST_GROUP, rng=rng,
    )
    server.acl.add(AclEntry(subject=SinglePrincipal(alice.principal)))
    return clock, network, directory, server, alice, bob


class TestEnvelopeAuthentication:
    def test_signed_request(self, world):
        clock, network, directory, server, alice, bob = world
        out = alice.request(
            server.principal, "read", target="doc", args={"path": "doc"}
        )
        assert out["data"] == b"pk data"

    def test_unlisted_principal_denied(self, world):
        clock, network, directory, server, alice, bob = world
        with pytest.raises(AuthorizationDenied):
            bob.request(
                server.principal, "read", target="doc", args={"path": "doc"}
            )

    def test_unknown_principal_rejected(self, world, rng):
        clock, network, directory, server, alice, bob = world
        stranger = PkClient(
            PrincipalId("stranger"), network, clock, PublicKeyDirectory(),
            group=TEST_GROUP, rng=rng,
        )  # published only to a *different* directory
        with pytest.raises(AuthenticatorError):
            stranger.request(
                server.principal, "read", target="doc", args={"path": "doc"}
            )

    def test_envelope_replay_rejected(self, world):
        clock, network, directory, server, alice, bob = world
        from repro.core.presentation import request_digest

        digest = request_digest("read", "doc")
        envelope = alice._envelope(server.principal, digest).to_wire()
        payload = {
            "operation": "read", "target": "doc",
            "args": {"path": "doc"}, "amounts": {}, "envelope": envelope,
        }
        from repro.net.message import raise_if_error

        raise_if_error(
            network.send(alice.principal, server.principal, "request", payload)
        )
        with pytest.raises(ReplayError):
            raise_if_error(
                network.send(
                    alice.principal, server.principal, "request", payload
                )
            )

    def test_non_finite_amount_is_an_error_reply(self, world):
        """An infinite amount comes back as a ``malformed`` error naming
        the currency, and consumes nothing."""
        clock, network, directory, server, alice, bob = world
        from repro.core.presentation import request_digest
        from repro.net.message import raise_if_error

        envelope = alice._envelope(
            server.principal, request_digest("read", "doc")
        ).to_wire()
        payload = {
            "operation": "read", "target": "doc", "args": {"path": "doc"},
            "amounts": {"x": float("inf")}, "envelope": envelope,
        }
        reply = network.send(
            alice.principal, server.principal, "request", payload
        )
        assert reply["__error__"]["kind"] == "malformed"
        assert "amounts['x']" in reply["__error__"]["detail"]
        assert len(server.audit.all()) == 0
        # The envelope was not consumed: the well-formed request goes through.
        payload["amounts"] = {}
        out = raise_if_error(
            network.send(alice.principal, server.principal, "request", payload)
        )
        assert out["data"] == b"pk data"

    def test_envelope_bound_to_request(self, world):
        """An envelope for one request cannot authorize another."""
        clock, network, directory, server, alice, bob = world
        from repro.core.presentation import request_digest

        envelope = alice._envelope(
            server.principal, request_digest("read", "doc")
        ).to_wire()
        payload = {
            "operation": "write", "target": "other",
            "args": {"path": "other", "data": b"x"}, "amounts": {},
            "envelope": envelope,
        }
        from repro.net.message import raise_if_error

        with pytest.raises(AuthenticatorError):
            raise_if_error(
                network.send(
                    alice.principal, server.principal, "request", payload
                )
            )

    def test_stale_envelope_rejected(self, world):
        clock, network, directory, server, alice, bob = world
        from repro.core.presentation import request_digest

        envelope = alice._envelope(
            server.principal, request_digest("read", "doc")
        ).to_wire()
        clock.advance(server.verifier.max_skew + 1)
        payload = {
            "operation": "read", "target": "doc",
            "args": {"path": "doc"}, "amounts": {}, "envelope": envelope,
        }
        from repro.net.message import raise_if_error

        with pytest.raises(AuthenticatorError):
            raise_if_error(
                network.send(
                    alice.principal, server.principal, "request", payload
                )
            )


class TestPkProxies:
    def test_fig6_proxy_end_to_end(self, world):
        """A pure public-key proxy (Fig. 6), granted and used with no KDC."""
        clock, network, directory, server, alice, bob = world
        proxy = grant_public(
            alice.principal, alice.signer,
            (
                Authorized(entries=(AuthorizedEntry("doc", ("read",)),)),
                IssuedFor(servers=(server.principal,)),
            ),
            clock.now(), clock.now() + 600, group=TEST_GROUP,
        )
        out = bob.request(
            server.principal, "read", target="doc",
            args={"path": "doc"}, proxy=proxy, anonymous=True,
        )
        assert out["data"] == b"pk data"

    def test_hybrid_proxy_end_to_end(self, world):
        """§6.1 hybrid: symmetric proxy key sealed to the server's key."""
        clock, network, directory, server, alice, bob = world
        proxy = grant_hybrid(
            alice.principal, alice.signer,
            server.principal, directory.key_of(server.principal),
            (Authorized(entries=(AuthorizedEntry("doc", ("read",)),)),),
            clock.now(), clock.now() + 600,
        )
        out = bob.request(
            server.principal, "read", target="doc",
            args={"path": "doc"}, proxy=proxy, anonymous=True,
        )
        assert out["data"] == b"pk data"

    def test_delegate_pk_proxy(self, world):
        clock, network, directory, server, alice, bob = world
        proxy = grant_public(
            alice.principal, alice.signer,
            (Grantee(principals=(bob.principal,)),),
            clock.now(), clock.now() + 600, group=TEST_GROUP,
        )
        out = bob.request(
            server.principal, "read", target="doc",
            args={"path": "doc"}, proxy=proxy,
        )
        assert out["data"] == b"pk data"
        # Someone else with the proxy (and key!) still fails the grantee check.
        carol = PkClient(
            PrincipalId("carol"), network, clock, directory,
            group=TEST_GROUP,
        )
        with pytest.raises(RestrictionViolation):
            carol.request(
                server.principal, "read", target="doc",
                args={"path": "doc"}, proxy=proxy,
            )

    def test_cascaded_pk_proxy(self, world):
        clock, network, directory, server, alice, bob = world
        proxy = grant_public(
            alice.principal, alice.signer, (),
            clock.now(), clock.now() + 600, group=TEST_GROUP,
        )
        narrower = cascade(
            proxy, (Quota(currency="bytes", limit=1),),
            clock.now(), clock.now() + 60,
        )
        out = bob.request(
            server.principal, "read", target="doc",
            args={"path": "doc"}, proxy=narrower, anonymous=True,
        )
        assert out["data"] == b"pk data"

    def test_directory_revocation_kills_proxies(self, world):
        """The PK revocation lever: drop the grantor from the directory."""
        clock, network, directory, server, alice, bob = world
        proxy = grant_public(
            alice.principal, alice.signer, (),
            clock.now(), clock.now() + 600, group=TEST_GROUP,
        )
        bob.request(
            server.principal, "read", target="doc",
            args={"path": "doc"}, proxy=proxy, anonymous=True,
        )
        directory.revoke(alice.principal)
        with pytest.raises(ProxyVerificationError):
            bob.request(
                server.principal, "read", target="doc",
                args={"path": "doc"}, proxy=proxy, anonymous=True,
            )

    def test_proxy_for_other_server_rejected(self, world, rng):
        clock, network, directory, server, alice, bob = world
        other = PkEndServer(
            PrincipalId("pk-other"), network, clock, directory,
            group=TEST_GROUP, rng=rng,
        )
        other.register_operation("read", lambda request: {"data": b"other"})
        other.acl.add(AclEntry(subject=SinglePrincipal(alice.principal)))
        proxy = grant_public(
            alice.principal, alice.signer,
            (IssuedFor(servers=(server.principal,)),),
            clock.now(), clock.now() + 600, group=TEST_GROUP,
        )
        with pytest.raises(RestrictionViolation):
            bob.request(
                other.principal, "read", target="doc",
                args={"path": "doc"}, proxy=proxy, anonymous=True,
            )

    def test_proxy_requests_audited(self, world):
        clock, network, directory, server, alice, bob = world
        proxy = grant_public(
            alice.principal, alice.signer, (),
            clock.now(), clock.now() + 600, group=TEST_GROUP,
        )
        bob.request(
            server.principal, "read", target="doc",
            args={"path": "doc"}, proxy=proxy, anonymous=True,
        )
        assert len(server.audit.involving(alice.principal)) == 1
