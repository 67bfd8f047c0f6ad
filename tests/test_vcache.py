"""Unit tests for the verification fast path.

Covers the three cache layers and their supporting machinery:

* the process-wide :class:`SignatureCache` (positive-only, LRU);
* the per-verifier :class:`ChainPrefixCache`;
* :class:`VerificationCacheConfig` and the ``override`` context manager;
* encode-once memoization on certificates and network messages;
* the bounded :class:`AuthenticatorCache` (timestamp clamp + hard cap).
"""

import dataclasses

import pytest

from repro.clock import SimulatedClock
from repro.core.evaluation import RequestContext
from repro.core.presentation import present
from repro.core.proxy import cascade, grant_conventional
from repro.core.replay import AuthenticatorCache
from repro.core.vcache import (
    DEFAULT_CONFIG,
    DISABLED_CONFIG,
    ChainPrefixCache,
    VerificationCacheConfig,
    current_config,
    override,
    set_default_config,
)
from repro.core.verification import ProxyVerifier, SharedKeyCrypto
from repro.crypto import signature as sigmod
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.signature import (
    HmacSigner,
    SignatureCache,
    get_signature_cache,
    set_signature_cache,
)
from repro.encoding.identifiers import PrincipalId
from repro.errors import SignatureError
from repro.net.message import Message

START = 1_000_000.0
ALICE = PrincipalId("alice")
SERVER = PrincipalId("server")


@pytest.fixture(autouse=True)
def _fresh_default_config():
    """Isolate every test from the process-wide cache state."""
    previous = set_default_config(DEFAULT_CONFIG)
    try:
        yield
    finally:
        set_default_config(previous)


def hmac_chain(links=3, rng_seed=b"vcache-test"):
    rng = Rng(seed=rng_seed)
    clock = SimulatedClock(START)
    shared = SymmetricKey.generate(rng=rng)
    proxy = grant_conventional(ALICE, shared, (), START, START + 3600, rng)
    for _ in range(links - 1):
        proxy = cascade(proxy, (), START, START + 3600, rng)
    return clock, SharedKeyCrypto({ALICE: shared}), proxy


# ---------------------------------------------------------------------------
# SignatureCache
# ---------------------------------------------------------------------------

class TestSignatureCache:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SignatureCache(max_entries=0)

    def test_lru_eviction_order(self):
        cache = SignatureCache(max_entries=2)
        k1 = ("hmac", b"k", b"m1", b"s1")
        k2 = ("hmac", b"k", b"m2", b"s2")
        k3 = ("hmac", b"k", b"m3", b"s3")
        assert cache.store(k1) == 0
        assert cache.store(k2) == 0
        assert cache.lookup(k1)  # refresh k1 -> k2 is now oldest
        assert cache.store(k3) == 1
        assert cache.lookup(k1)
        assert not cache.lookup(k2)
        assert cache.lookup(k3)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2

    def test_successful_verify_is_memoized(self):
        previous = set_signature_cache(SignatureCache())
        try:
            signer = HmacSigner(key=SymmetricKey.generate(rng=Rng(seed=b"s")))
            sig = signer.sign(b"message")
            signer.verify(b"message", sig)
            signer.verify(b"message", sig)
            stats = get_signature_cache().stats()
            assert stats["hits"] == 1
            assert stats["misses"] == 1
            assert stats["entries"] == 1
        finally:
            set_signature_cache(previous)

    def test_failed_verify_is_never_cached(self):
        previous = set_signature_cache(SignatureCache())
        try:
            signer = HmacSigner(key=SymmetricKey.generate(rng=Rng(seed=b"s")))
            bad = b"\x00" * len(signer.sign(b"message"))
            for _ in range(2):
                with pytest.raises(SignatureError):
                    signer.verify(b"message", bad)
            stats = get_signature_cache().stats()
            assert stats["hits"] == 0
            assert stats["misses"] == 2
            assert stats["entries"] == 0
        finally:
            set_signature_cache(previous)

    def test_cache_keys_separate_keys_and_messages(self):
        previous = set_signature_cache(SignatureCache())
        try:
            a = HmacSigner(key=SymmetricKey.generate(rng=Rng(seed=b"a")))
            b = HmacSigner(key=SymmetricKey.generate(rng=Rng(seed=b"b")))
            sig = a.sign(b"msg")
            a.verify(b"msg", sig)
            # Same message+signature under a different key must still fail —
            # the memo entry is bound to a's key fingerprint.
            with pytest.raises(SignatureError):
                b.verify(b"msg", sig)
        finally:
            set_signature_cache(previous)

    def test_disabled_cache_still_verifies(self):
        previous = set_signature_cache(None)
        try:
            signer = HmacSigner(key=SymmetricKey.generate(rng=Rng(seed=b"s")))
            sig = signer.sign(b"message")
            signer.verify(b"message", sig)
            with pytest.raises(SignatureError):
                signer.verify(b"message", b"\x00" * len(sig))
        finally:
            set_signature_cache(previous)

    def test_cache_observer_sees_hits_misses(self):
        events = []
        previous = set_signature_cache(SignatureCache())
        prev_obs = sigmod.set_signature_cache_observer(
            lambda event, scheme: events.append((event, scheme))
        )
        try:
            signer = HmacSigner(key=SymmetricKey.generate(rng=Rng(seed=b"s")))
            sig = signer.sign(b"m")
            signer.verify(b"m", sig)
            signer.verify(b"m", sig)
            assert events == [("miss", "hmac"), ("hit", "hmac")]
        finally:
            sigmod.set_signature_cache_observer(prev_obs)
            set_signature_cache(previous)


# ---------------------------------------------------------------------------
# ChainPrefixCache
# ---------------------------------------------------------------------------

class TestChainPrefixCache:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ChainPrefixCache(max_entries=0)

    def test_miss_then_hit(self):
        cache = ChainPrefixCache()
        assert cache.get(b"k") is None
        assert cache.put(b"k", "material") == 0
        assert cache.get(b"k") == "material"
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
        }

    def test_lru_eviction(self):
        cache = ChainPrefixCache(max_entries=2)
        cache.put(b"a", 1)
        cache.put(b"b", 2)
        assert cache.get(b"a") == 1  # refresh a -> b is oldest
        assert cache.put(b"c", 3) == 1
        assert cache.get(b"b") is None
        assert cache.get(b"a") == 1
        assert cache.get(b"c") == 3
        assert cache.stats()["evictions"] == 1

    def test_clear(self):
        cache = ChainPrefixCache()
        cache.put(b"a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get(b"a") is None


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

class TestCacheConfig:
    def test_disabled_config_builds_nothing(self):
        assert DISABLED_CONFIG.build_chain_cache() is None
        assert DISABLED_CONFIG.build_signature_cache() is None

    def test_enabled_config_sizes(self):
        """The config only switches the caches on; capacity belongs to
        the caches, and a verifier takes a sized one directly."""
        fields = dataclasses.fields(VerificationCacheConfig)
        assert [field.name for field in fields] == ["enabled"]
        assert DEFAULT_CONFIG.build_signature_cache().max_entries == 4096
        assert DEFAULT_CONFIG.build_chain_cache().max_entries == 1024
        assert SignatureCache(max_entries=7).max_entries == 7
        clock, crypto, _ = hmac_chain(links=1)
        verifier = ProxyVerifier(
            server=SERVER, crypto=crypto, clock=clock,
            chain_cache=ChainPrefixCache(max_entries=5),
        )
        assert verifier.chain_cache.max_entries == 5

    def test_override_swaps_and_restores(self):
        before = current_config()
        with override(DISABLED_CONFIG):
            assert current_config() is DISABLED_CONFIG
            assert get_signature_cache() is None
        assert current_config() is before
        assert get_signature_cache() is not None

    def test_override_restores_on_exception(self):
        before = current_config()
        with pytest.raises(RuntimeError):
            with override(DISABLED_CONFIG):
                raise RuntimeError("boom")
        assert current_config() is before
        assert get_signature_cache() is not None

    def test_verifier_picks_up_process_default(self):
        clock, crypto, _ = hmac_chain(links=1)
        with override(DISABLED_CONFIG):
            off = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        on = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        assert off.chain_cache is None
        assert on.chain_cache is not None

    def test_explicit_config_beats_process_default(self):
        clock, crypto, _ = hmac_chain(links=1)
        with override(DISABLED_CONFIG):
            verifier = ProxyVerifier(
                server=SERVER,
                crypto=crypto,
                clock=clock,
                cache_config=DEFAULT_CONFIG,
            )
        assert verifier.chain_cache is not None


# ---------------------------------------------------------------------------
# Chain-prefix caching through the verifier
# ---------------------------------------------------------------------------

class TestVerifierChainCache:
    def test_repeat_presentation_hits_every_link(self):
        clock, crypto, proxy = hmac_chain(links=3)
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        context = RequestContext(server=SERVER, operation="read")
        first = verifier.verify(
            present(proxy, SERVER, clock.now(), "read"), context
        )
        stats = verifier.chain_cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 3
        second = verifier.verify(
            present(proxy, SERVER, clock.now(), "read"), context
        )
        stats = verifier.chain_cache.stats()
        assert stats["hits"] == 3
        assert stats["misses"] == 3
        assert first == second

    def test_shared_prefix_is_reused_across_extensions(self):
        rng = Rng(seed=b"vcache-prefix")
        clock = SimulatedClock(START)
        shared = SymmetricKey.generate(rng=rng)
        base = grant_conventional(ALICE, shared, (), START, START + 3600, rng)
        extended = cascade(base, (), START, START + 3600, rng)
        crypto = SharedKeyCrypto({ALICE: shared})
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        context = RequestContext(server=SERVER, operation="read")
        verifier.verify(present(base, SERVER, clock.now(), "read"), context)
        verifier.verify(
            present(extended, SERVER, clock.now(), "read"), context
        )
        # The shared root prefix hits; only the new cascade link misses.
        stats = verifier.chain_cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2

    def test_tampered_link_misses_and_fails(self):
        from repro.errors import ProxyVerificationError

        clock, crypto, proxy = hmac_chain(links=2)
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        context = RequestContext(server=SERVER, operation="read")
        verifier.verify(
            present(proxy, SERVER, clock.now(), "read"), context
        )  # warm the cache
        bad_cert = dataclasses.replace(
            proxy.certificates[-1],
            signature=b"\x00" * len(proxy.certificates[-1].signature),
        )
        tampered = dataclasses.replace(
            present(proxy, SERVER, clock.now(), "read"),
            certificates=proxy.certificates[:-1] + (bad_cert,),
        )
        with pytest.raises(ProxyVerificationError):
            verifier.verify(tampered, context)
        # The tampered link's digest changed, so it cannot hit the warm
        # prefix entry — and the failed walk must not poison the cache.
        assert verifier.verify(
            present(proxy, SERVER, clock.now(), "read"), context
        )


# ---------------------------------------------------------------------------
# Encode-once memoization
# ---------------------------------------------------------------------------

class TestEncodeOnce:
    def test_certificate_bytes_are_memoized(self):
        _, _, proxy = hmac_chain(links=1)
        cert = proxy.certificates[0]
        assert cert.body_bytes() is cert.body_bytes()
        assert cert.to_bytes() is cert.to_bytes()
        assert cert.digest() is cert.digest()

    def test_digest_is_content_addressed(self):
        _, _, proxy = hmac_chain(links=1)
        cert = proxy.certificates[0]
        roundtripped = type(cert).from_bytes(cert.to_bytes())
        assert roundtripped.digest() == cert.digest()
        tampered = dataclasses.replace(
            cert, signature=b"\x00" * len(cert.signature)
        )
        assert tampered.digest() != cert.digest()

    def test_memo_is_invisible_to_equality(self):
        _, _, proxy = hmac_chain(links=1)
        cert = proxy.certificates[0]
        fresh = type(cert).from_wire(cert.to_wire())
        cert.digest()  # populate the memo on one side only
        assert cert == fresh

    def test_message_wire_size_memoized(self):
        msg = Message(
            source=ALICE,
            destination=SERVER,
            msg_type="read",
            payload={"target": "doc"},
        )
        size = msg.wire_size()
        assert size > 0
        assert msg.__dict__["_wire_size"] == size
        assert msg.wire_size() == size


# ---------------------------------------------------------------------------
# Bounded AuthenticatorCache
# ---------------------------------------------------------------------------

class TestAuthenticatorCacheBounds:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            AuthenticatorCache(SimulatedClock(START), max_entries=0)

    def test_immediate_replay_always_caught(self):
        cache = AuthenticatorCache(
            SimulatedClock(START), window=300.0, max_skew=60.0
        )
        # Even an absurdly old claimed timestamp is retained until `now`.
        assert cache.register(b"old", timestamp=0.0)
        assert not cache.register(b"old", timestamp=0.0)

    def test_retention_follows_claimed_timestamp(self):
        clock = SimulatedClock(START)
        cache = AuthenticatorCache(clock, window=300.0, max_skew=60.0)
        assert cache.register(b"d", timestamp=START - 100.0)
        clock.advance(250.0)  # past claimed + window = START + 200
        assert cache.register(b"d", timestamp=START - 100.0)

    def test_future_claims_clamped_to_window_plus_skew(self):
        clock = SimulatedClock(START)
        cache = AuthenticatorCache(clock, window=300.0, max_skew=60.0)
        # A far-future claimed timestamp must not pin memory for hours:
        # retention is clamped to now + window + max_skew.
        assert cache.register(b"future", timestamp=START + 100_000.0)
        clock.advance(300.0 + 60.0 + 1.0)
        assert cache.register(b"future", timestamp=clock.now())

    def test_hard_cap_evicts_oldest_expiry_first(self):
        clock = SimulatedClock(START)
        cache = AuthenticatorCache(
            clock, window=300.0, max_skew=60.0, max_entries=2
        )
        assert cache.register(b"a", timestamp=START - 200.0)  # earliest expiry
        assert cache.register(b"b", timestamp=START - 100.0)
        assert cache.register(b"c", timestamp=START)  # evicts a
        assert len(cache) == 2
        assert cache.register(b"a", timestamp=START - 200.0)  # a was evicted
        assert not cache.register(b"c", timestamp=START)  # c survived

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 27: the cap evicts a live entry, whose "
        "replay is then accepted inside its window",
    )
    def test_cap_eviction_does_not_admit_a_live_replay(self):
        clock = SimulatedClock(START)
        cache = AuthenticatorCache(clock, window=300.0, max_entries=4)
        assert cache.register(b"victim", timestamp=START)
        for fresh in range(4):
            clock.advance(1.0)
            assert cache.register(b"fresh-%d" % fresh, timestamp=clock.now())
        # START + 5 s: the victim's claimed time is well inside the window.
        clock.advance(1.0)
        assert not cache.register(b"victim", timestamp=START)
