"""Degraded-mode authorization: cached proxies during authority outages.

The paper's availability argument (§3.1–3.2): proxies verify *offline*,
so an authorization-server outage must not stop clients holding
still-fresh credentials — and must stop them again the moment those
credentials expire or are revoked.
"""

import pytest

from repro.acl import AclEntry, SinglePrincipal
from repro.errors import RetriesExhaustedError
from repro.kerberos.proxy_support import grant_via_credentials
from repro.resil.degraded import ProxyCache
from repro.testbed import Realm


@pytest.fixture
def deployment():
    realm = Realm(seed=b"degraded-tests", resilience=True)
    fs = realm.file_server("files")
    fs.put("doc", b"data")
    authz = realm.authorization_server("authz")
    fs.acl.add(AclEntry(subject=SinglePrincipal(authz.principal)))
    user = realm.user("bob")
    authz.database_for(fs.principal).add(
        AclEntry(subject=SinglePrincipal(user.principal), operations=("read",))
    )
    azc = user.resilient_authorization_client(authz.principal)
    azc.service.establish_session()
    client = user.client_for(fs.principal)
    return realm, fs, authz, azc, client


class TestProxyCache:
    def test_put_get_roundtrip(self):
        realm = Realm(seed=b"cache-unit")
        alice = realm.user("alice")
        fs = realm.file_server("files")
        creds = alice.kerberos.get_ticket(fs.principal)
        proxy = grant_via_credentials(creds, (), realm.clock.now())
        cache = ProxyCache(realm.clock)
        cache.put(fs.principal, ("read",), ("*",), proxy)
        assert cache.get(fs.principal, ("read",), ("*",)) is proxy
        # A different request shape misses.
        assert cache.get(fs.principal, ("write",), ("*",)) is None

    def test_expires_with_the_tightest_certificate(self):
        realm = Realm(seed=b"cache-unit")
        alice = realm.user("alice")
        fs = realm.file_server("files")
        creds = alice.kerberos.get_ticket(fs.principal)
        proxy = grant_via_credentials(
            creds, (), realm.clock.now(), realm.clock.now() + 100.0
        )
        cache = ProxyCache(realm.clock)
        cache.put(fs.principal, ("read",), ("*",), proxy)
        realm.clock.advance(101.0)
        assert cache.get(fs.principal, ("read",), ("*",)) is None
        assert not cache._entries  # and the dead entry was evicted


class TestDegradedAuthorization:
    def test_cached_proxy_served_while_authority_down(self, deployment):
        realm, fs, authz, azc, client = deployment
        azc.authorize(fs.principal, ("read",))
        realm.network.blackhole(authz.principal)
        proxy = azc.authorize(fs.principal, ("read",))
        assert azc.degraded_grants == 1
        # The grant still works: verification is offline (§3.1).
        assert client.request("read", "doc", proxy=proxy)["data"] == b"data"

    def test_degraded_grants_are_flagged_in_the_audit_log(self, deployment):
        realm, fs, authz, azc, client = deployment
        azc.authorize(fs.principal, ("read",))
        realm.network.blackhole(authz.principal)
        proxy = azc.authorize(fs.principal, ("read",))
        client.request("read", "doc", proxy=proxy)
        record = fs.audit.all()[-1]
        assert record.degraded
        assert "[degraded]" in record.describe()

    def test_healthy_grants_are_not_flagged(self, deployment):
        realm, fs, authz, azc, client = deployment
        proxy = azc.authorize(fs.principal, ("read",))
        client.request("read", "doc", proxy=proxy)
        record = fs.audit.all()[-1]
        assert not record.degraded
        assert "[degraded]" not in record.describe()

    def test_no_cache_entry_means_the_outage_is_fatal(self, deployment):
        realm, fs, authz, azc, client = deployment
        realm.network.blackhole(authz.principal)
        with pytest.raises(RetriesExhaustedError):
            azc.authorize(fs.principal, ("read",))

    def test_expired_cache_entry_is_refused(self, deployment):
        realm, fs, authz, azc, client = deployment
        azc.authorize(fs.principal, ("read",))
        realm.network.blackhole(authz.principal)
        # Outlive the issued proxy (authz default lifetime 3600s): the
        # degraded path must not resurrect expired credentials.
        realm.clock.advance(4000.0)
        with pytest.raises(RetriesExhaustedError):
            azc.authorize(fs.principal, ("read",))

    def test_recovery_clears_the_degraded_marking(self, deployment):
        realm, fs, authz, azc, client = deployment
        azc.authorize(fs.principal, ("read",))
        realm.network.blackhole(authz.principal)
        azc.authorize(fs.principal, ("read",))
        realm.network.heal(authz.principal)
        # Wait out the breaker cooldown, then authorize for real again.
        realm.clock.advance(120.0)
        proxy = azc.authorize(fs.principal, ("read",))
        assert azc.degraded_grants == 1  # unchanged
        client.request("read", "doc", proxy=proxy)
        assert not fs.audit.all()[-1].degraded


def test_a_proxy_is_served_up_to_its_expiry_instant():
    """Expired means ``expires_at < now``, the verifier's comparison: at the
    instant itself the proxy still verifies, so the cache serves it."""
    realm = Realm(seed=b"cache-unit")
    alice = realm.user("alice")
    fs = realm.file_server("files")
    creds = alice.kerberos.get_ticket(fs.principal)
    proxy = grant_via_credentials(
        creds, (), realm.clock.now(), realm.clock.now() + 100.0
    )
    cache = ProxyCache(realm.clock)
    cache.put(fs.principal, ("read",), ("*",), proxy)
    realm.clock.advance(100.0)
    assert cache.get(fs.principal, ("read",), ("*",)) is proxy
