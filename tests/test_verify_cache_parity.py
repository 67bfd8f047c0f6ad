"""Cached-vs-uncached parity: the fast path must be invisible.

The verification caches may only change *speed*.  These tests replay the
paper's figure protocols with the caches on and off and assert the
observable behaviour is byte-identical, then attack a verifier with hot
caches to show that expiry, replay suppression, revocation, and
restriction evaluation are exactly as strict as on a cold path.
"""

import pytest

from repro.clock import SimulatedClock
from repro.core.evaluation import RequestContext
from repro.core.presentation import present
from repro.core.proxy import cascade, grant_conventional, grant_public
from repro.core.restrictions import Authorized, AuthorizedEntry, Quota
from repro.core.vcache import DEFAULT_CONFIG, DISABLED_CONFIG, override
from repro.core.verification import (
    ProxyVerifier,
    PublicKeyCrypto,
    SharedKeyCrypto,
)
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.schnorr import generate_keypair
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.crypto.signature import SchnorrSigner
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    ProxyExpiredError,
    ProxyVerificationError,
    ReplayError,
    RestrictionViolation,
)
from repro.workloads.load import SCENARIOS, run_figure

START = 1_000_000.0
ALICE = PrincipalId("alice")
SERVER = PrincipalId("server")


# ---------------------------------------------------------------------------
# Figure replays: byte-identical traces with caches on and off
# ---------------------------------------------------------------------------

def _figure_views(figure, config):
    with override(config):
        telemetry = run_figure(figure)
    # The trees are compared byte-for-byte *except* the cache's own
    # telemetry events (vcache.*): they introspect the cache itself, so
    # they exist precisely when the cache does.  Everything else — spans,
    # timings, protocol events — must be identical.
    tree = "\n".join(
        line
        for line in telemetry.render_tree().splitlines()
        if "* vcache." not in line
    )
    return (telemetry.render_message_trace(), tree)


@pytest.mark.parametrize("figure", sorted(SCENARIOS))
def test_figure_trace_parity(figure):
    cached_trace, cached_tree = _figure_views(figure, DEFAULT_CONFIG)
    uncached_trace, uncached_tree = _figure_views(figure, DISABLED_CONFIG)
    assert cached_trace == uncached_trace
    assert cached_tree == uncached_tree


# ---------------------------------------------------------------------------
# VerifiedProxy parity on repeat presentations
# ---------------------------------------------------------------------------

def _hmac_setup(restrictions=(), links=3, seed=b"parity-hmac"):
    rng = Rng(seed=seed)
    clock = SimulatedClock(START)
    shared = SymmetricKey.generate(rng=rng)
    proxy = grant_conventional(
        ALICE, shared, restrictions, START, START + 3600, rng
    )
    for i in range(links - 1):
        proxy = cascade(
            proxy,
            (Quota(currency=f"hop{i}", limit=100),),
            START,
            START + 3600,
            rng,
        )
    return clock, SharedKeyCrypto({ALICE: shared}), proxy


def _schnorr_setup(seed=b"parity-schnorr"):
    rng = Rng(seed=seed)
    clock = SimulatedClock(START)
    identity = generate_keypair(TEST_GROUP, rng=rng)
    proxy = grant_public(
        ALICE,
        SchnorrSigner(identity),
        (),
        START,
        START + 3600,
        rng,
        group=TEST_GROUP,
    )
    proxy = cascade(proxy, (), START, START + 3600, rng)
    crypto = PublicKeyCrypto(
        directory={ALICE: SchnorrSigner(identity).verifier()}
    )
    return clock, crypto, proxy


@pytest.mark.parametrize(
    "setup", [_hmac_setup, _schnorr_setup], ids=["hmac", "schnorr"]
)
def test_verified_proxy_identical_cached_and_uncached(setup):
    clock, crypto, proxy = setup()
    context = RequestContext(server=SERVER, operation="read")
    results = []
    for config in (DEFAULT_CONFIG, DISABLED_CONFIG):
        with override(config):
            verifier = ProxyVerifier(
                server=SERVER, crypto=crypto, clock=clock
            )
            # Two rounds so the cached verifier answers from a hot cache
            # on its second pass.
            for _ in range(2):
                results.append(
                    verifier.verify(
                        present(proxy, SERVER, clock.now(), "read"), context
                    )
                )
    assert len(set(results)) == 1  # VerifiedProxy is frozen and comparable


# ---------------------------------------------------------------------------
# Security parity: hot caches must reject exactly what cold paths reject
# ---------------------------------------------------------------------------

def _warm(verifier, clock, proxy, context, operation="read", target=None):
    return verifier.verify(
        present(proxy, SERVER, clock.now(), operation, target=target),
        context,
    )


def test_expired_chain_rejected_with_hot_cache():
    clock, crypto, proxy = _hmac_setup()
    context = RequestContext(server=SERVER, operation="read")
    with override(DEFAULT_CONFIG):
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        _warm(verifier, clock, proxy, context)
        assert verifier.chain_cache.stats()["entries"] > 0
        clock.advance(4000.0)  # past the chain's expiry
        with pytest.raises(ProxyExpiredError):
            _warm(verifier, clock, proxy, context)


def test_replayed_presentation_rejected_with_hot_cache():
    clock, crypto, proxy = _hmac_setup()
    context = RequestContext(server=SERVER, operation="read")
    with override(DEFAULT_CONFIG):
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        presented = present(proxy, SERVER, clock.now(), "read")
        verifier.verify(presented, context)
        with pytest.raises(ReplayError):
            verifier.verify(presented, context)


def test_shared_key_revocation_rejected_with_hot_cache():
    clock, crypto, proxy = _hmac_setup()
    context = RequestContext(server=SERVER, operation="read")
    with override(DEFAULT_CONFIG):
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        _warm(verifier, clock, proxy, context)
        crypto.drop_shared_key(ALICE)
        with pytest.raises(ProxyVerificationError):
            _warm(verifier, clock, proxy, context)


def test_directory_revocation_rejected_with_hot_cache():
    clock, crypto, proxy = _schnorr_setup()
    context = RequestContext(server=SERVER, operation="read")
    with override(DEFAULT_CONFIG):
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        _warm(verifier, clock, proxy, context)
        crypto.remove_principal(ALICE)
        with pytest.raises(ProxyVerificationError):
            _warm(verifier, clock, proxy, context)


def test_key_rotation_invalidates_prefix_entries():
    """Rotating the grantor's key changes the cache token, so stale prefix
    entries become unreachable and the old chain fails afresh."""
    clock, crypto, proxy = _hmac_setup()
    context = RequestContext(server=SERVER, operation="read")
    with override(DEFAULT_CONFIG):
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        _warm(verifier, clock, proxy, context)
        _warm(verifier, clock, proxy, context)
        hot_hits = verifier.chain_cache.stats()["hits"]
        assert hot_hits == len(proxy.certificates)
        crypto.add_shared_key(
            ALICE, SymmetricKey.generate(rng=Rng(seed=b"rotated"))
        )
        with pytest.raises(ProxyVerificationError):
            _warm(verifier, clock, proxy, context)
        # The rotated key changed the prefix token: no further hits.
        assert verifier.chain_cache.stats()["hits"] == hot_hits


def test_restriction_violation_rejected_with_hot_cache():
    clock, crypto, proxy = _hmac_setup(
        restrictions=(
            Authorized(entries=(AuthorizedEntry("file", ("read",)),)),
        ),
        links=1,
    )
    with override(DEFAULT_CONFIG):
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        _warm(
            verifier,
            clock,
            proxy,
            RequestContext(server=SERVER, operation="read", target="file"),
            target="file",
        )
        with pytest.raises(RestrictionViolation):
            _warm(
                verifier,
                clock,
                proxy,
                RequestContext(
                    server=SERVER, operation="delete", target="file"
                ),
                operation="delete",
                target="file",
            )


def test_stale_possession_proof_rejected_with_hot_cache():
    clock, crypto, proxy = _hmac_setup()
    context = RequestContext(server=SERVER, operation="read")
    with override(DEFAULT_CONFIG):
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        _warm(verifier, clock, proxy, context)
        stale = present(proxy, SERVER, clock.now(), "read")
        clock.advance(verifier.freshness_window + 1.0)
        with pytest.raises(ProxyVerificationError):
            verifier.verify(stale, context)
