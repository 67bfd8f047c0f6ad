"""F6 — Figure 6 and §6.1: public-key and hybrid proxies.

Regenerates Fig. 6 ({restrictions, Kproxy} under the grantor's private key)
and measures the three schemes side by side:

* conventional (HMAC + sealed symmetric key, §6.2) — fast, single server;
* pure public-key (Schnorr certificate + Schnorr proxy key, Fig. 6) —
  verifiable everywhere, so ``issued-for`` matters (§7.3);
* hybrid (public-key signature, symmetric proxy key encrypted to the
  end-server, §6.1) — cheap proxy key, locked to one server;
* RSA variants for the grantor identity, to show scheme-independence.
"""

import pytest

from conftest import report
from repro.clock import SimulatedClock
from repro.core.evaluation import RequestContext
from repro.core.presentation import present
from repro.core.proxy import (
    grant_conventional,
    grant_hybrid,
    grant_public,
)
from repro.core.restrictions import IssuedFor
from repro.core.verification import (
    ProxyVerifier,
    PublicKeyCrypto,
    SharedKeyCrypto,
)
from repro.crypto import rsa, schnorr
from repro.crypto.keys import KeyPair, SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.crypto.signature import RsaSigner, SchnorrSigner
from repro.encoding.identifiers import PrincipalId

ALICE = PrincipalId("alice")
SERVER = PrincipalId("server")
START = 1_000_000.0

RNG = Rng(seed=b"f6")
IDENTITY = schnorr.generate_keypair(TEST_GROUP, rng=RNG)
SERVER_KEY = schnorr.generate_keypair(TEST_GROUP, rng=RNG)
RSA_IDENTITY = KeyPair.generate(bits=1024, rng=Rng(seed=b"f6-rsa"))
SHARED = SymmetricKey.generate(rng=RNG)


def public_verifier(clock):
    return ProxyVerifier(
        server=SERVER,
        crypto=PublicKeyCrypto(
            directory={
                ALICE: SchnorrSigner(IDENTITY).verifier(),
            },
            own_schnorr=SERVER_KEY,
        ),
        clock=clock,
    )


def test_grant_pure_public(benchmark):
    benchmark(
        grant_public,
        ALICE, SchnorrSigner(IDENTITY), (), START, START + 3600,
        RNG, TEST_GROUP,
    )


def test_grant_hybrid(benchmark):
    benchmark(
        grant_hybrid,
        ALICE, SchnorrSigner(IDENTITY), SERVER, SERVER_KEY.public,
        (), START, START + 3600, RNG,
    )


def test_grant_rsa_signed(benchmark):
    benchmark(
        grant_hybrid,
        ALICE, RsaSigner(RSA_IDENTITY), SERVER, SERVER_KEY.public,
        (), START, START + 3600, RNG,
    )


def test_verify_pure_public(benchmark):
    clock = SimulatedClock(START)
    verifier = public_verifier(clock)
    proxy = grant_public(
        ALICE, SchnorrSigner(IDENTITY), (), START, START + 3600,
        RNG, TEST_GROUP,
    )
    context = RequestContext(server=SERVER, operation="read")

    def run():
        return verifier.verify(
            present(proxy, SERVER, clock.now(), "read"), context
        )

    assert benchmark(run).grantor == ALICE


def test_verify_hybrid(benchmark):
    clock = SimulatedClock(START)
    verifier = public_verifier(clock)
    proxy = grant_hybrid(
        ALICE, SchnorrSigner(IDENTITY), SERVER, SERVER_KEY.public,
        (), START, START + 3600, RNG,
    )
    context = RequestContext(server=SERVER, operation="read")

    def run():
        return verifier.verify(
            present(proxy, SERVER, clock.now(), "read"), context
        )

    assert benchmark(run).grantor == ALICE


def test_verify_conventional_baseline(benchmark):
    clock = SimulatedClock(START)
    verifier = ProxyVerifier(
        server=SERVER, crypto=SharedKeyCrypto({ALICE: SHARED}), clock=clock
    )
    proxy = grant_conventional(ALICE, SHARED, (), START, START + 3600, RNG)
    context = RequestContext(server=SERVER, operation="read")

    def run():
        return verifier.verify(
            present(proxy, SERVER, clock.now(), "read"), context
        )

    assert benchmark(run).grantor == ALICE


def test_pk_service_request(benchmark):
    """Service-level §6.1: a full request through the no-KDC end-server."""
    from repro.acl import AclEntry, SinglePrincipal
    from repro.net import Network
    from repro.services.pk_endserver import (
        PkClient,
        PkEndServer,
        PublicKeyDirectory,
    )

    rng = Rng(seed=b"f6-svc")
    clock = SimulatedClock(START)
    network = Network(clock, rng=rng)
    directory = PublicKeyDirectory()
    server = PkEndServer(
        PrincipalId("pk-srv"), network, clock, directory,
        group=TEST_GROUP, rng=rng,
    )
    server.register_operation("read", lambda request: {"data": b"d"})
    alice = PkClient(
        PrincipalId("alice-svc"), network, clock, directory,
        group=TEST_GROUP, rng=rng,
    )
    server.acl.add(AclEntry(subject=SinglePrincipal(alice.principal)))

    def run():
        return alice.request(server.principal, "read", target="doc")

    assert benchmark(run)["data"] == b"d"


def test_fig6_scheme_report(benchmark):
    """Fig. 6 structure plus the §6/§7.3 scheme-property matrix."""
    clock = SimulatedClock(START)
    pure = grant_public(
        ALICE, SchnorrSigner(IDENTITY), (), START, START + 3600,
        RNG, TEST_GROUP,
    )
    hybrid = grant_hybrid(
        ALICE, SchnorrSigner(IDENTITY), SERVER, SERVER_KEY.public,
        (IssuedFor(servers=(SERVER,)),), START, START + 3600, RNG,
    )
    conventional = grant_conventional(
        ALICE, SHARED, (), START, START + 3600, RNG
    )
    rows = [
        (
            "conventional (§6.2)",
            len(conventional.final.to_bytes()),
            "sealed symmetric",
            "one (sealing key's server)",
        ),
        (
            "pure public-key (Fig. 6)",
            len(pure.final.to_bytes()),
            "public (Schnorr)",
            "ALL — needs issued-for (§7.3)",
        ),
        (
            "hybrid (§6.1)",
            len(hybrid.final.to_bytes()),
            "symmetric, encrypted to server",
            "one (key-encryption target)",
        ),
    ]
    report(
        "F6 / Fig.6: proxy schemes",
        rows,
        ("scheme", "cert bytes", "proxy-key binding", "verifiable at"),
    )

    # §7.3 demonstrated: without issued-for, a pure public-key proxy
    # verifies at a second server too; with it, it does not.
    other_server = PrincipalId("other-server")
    other = ProxyVerifier(
        server=other_server,
        crypto=PublicKeyCrypto(
            directory={ALICE: SchnorrSigner(IDENTITY).verifier()}
        ),
        clock=clock,
    )
    other.verify(
        present(pure, other_server, clock.now(), "read"),
        RequestContext(server=other_server, operation="read"),
    )
    restricted = grant_public(
        ALICE, SchnorrSigner(IDENTITY),
        (IssuedFor(servers=(SERVER,)),), START, START + 3600,
        RNG, TEST_GROUP,
    )
    from repro.errors import RestrictionViolation

    try:
        other.verify(
            present(restricted, other_server, clock.now(), "read"),
            RequestContext(server=other_server, operation="read"),
        )
        issued_for_held = False
    except RestrictionViolation:
        issued_for_held = True
    report(
        "F6: issued-for on public-key proxies (§7.3)",
        [
            ("unrestricted proxy at other server", "accepted (the hazard)"),
            ("issued-for proxy at other server",
             "rejected" if issued_for_held else "ACCEPTED (bug)"),
        ],
        ("presentation", "outcome"),
    )
    assert issued_for_held
    benchmark(lambda: None)
