"""F1 — Figure 1: the restricted proxy primitive.

Regenerates the paper's Fig. 1 structure (certificate + proxy key) and
measures the cost of the two fundamental operations — granting and
verifying — under both cryptosystems (§6), swept over restriction count.
The paper claims proxies are a cheap generalization of authentication;
the numbers quantify "cheap".
"""

import pytest

from conftest import report
from repro.clock import SimulatedClock
from repro.core.evaluation import RequestContext
from repro.core.presentation import present
from repro.core.proxy import grant_conventional, grant_public
from repro.core.restrictions import Authorized, AuthorizedEntry, Quota
from repro.core.verification import (
    ProxyVerifier,
    PublicKeyCrypto,
    SharedKeyCrypto,
)
from repro.crypto import schnorr
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.crypto.signature import SchnorrSigner
from repro.encoding.identifiers import PrincipalId

ALICE = PrincipalId("alice")
SERVER = PrincipalId("server")
START = 1_000_000.0


def restrictions_of(n):
    return tuple(
        Quota(currency=f"c{i}", limit=i + 1) for i in range(n)
    )


def conventional_setup():
    rng = Rng(seed=b"f1-conv")
    shared = SymmetricKey.generate(rng=rng)
    clock = SimulatedClock(START)
    verifier = ProxyVerifier(
        server=SERVER, crypto=SharedKeyCrypto({ALICE: shared}), clock=clock
    )
    return rng, shared, clock, verifier


def public_setup():
    rng = Rng(seed=b"f1-pub")
    identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
    clock = SimulatedClock(START)
    verifier = ProxyVerifier(
        server=SERVER,
        crypto=PublicKeyCrypto(
            directory={ALICE: SchnorrSigner(identity).verifier()}
        ),
        clock=clock,
    )
    return rng, identity, clock, verifier


@pytest.mark.parametrize("n_restrictions", [0, 8, 32])
def test_grant_conventional(benchmark, n_restrictions):
    rng, shared, clock, _ = conventional_setup()
    restrictions = restrictions_of(n_restrictions)
    benchmark(
        grant_conventional,
        ALICE, shared, restrictions, START, START + 3600, rng,
    )


@pytest.mark.parametrize("n_restrictions", [0, 8, 32])
def test_verify_conventional(benchmark, n_restrictions):
    rng, shared, clock, verifier = conventional_setup()
    proxy = grant_conventional(
        ALICE, shared, restrictions_of(n_restrictions),
        START, START + 3600, rng,
    )
    context = RequestContext(server=SERVER, operation="read")

    def run():
        presented = present(proxy, SERVER, clock.now(), "read")
        return verifier.verify(presented, context)

    result = benchmark(run)
    assert result.grantor == ALICE


@pytest.mark.parametrize("n_restrictions", [0, 8])
def test_grant_public(benchmark, n_restrictions):
    rng, identity, clock, _ = public_setup()
    signer = SchnorrSigner(identity)
    restrictions = restrictions_of(n_restrictions)
    benchmark(
        grant_public,
        ALICE, signer, restrictions, START, START + 3600, rng, TEST_GROUP,
    )


@pytest.mark.parametrize("n_restrictions", [0, 8])
def test_verify_public(benchmark, n_restrictions):
    rng, identity, clock, verifier = public_setup()
    proxy = grant_public(
        ALICE, SchnorrSigner(identity), restrictions_of(n_restrictions),
        START, START + 3600, rng, TEST_GROUP,
    )
    context = RequestContext(server=SERVER, operation="read")

    def run():
        presented = present(proxy, SERVER, clock.now(), "read")
        return verifier.verify(presented, context)

    result = benchmark(run)
    assert result.grantor == ALICE


def test_fig1_instrumented_verify(benchmark, telemetry):
    """Grant/verify under live telemetry: the hot-path histograms fill up.

    The exported Prometheus text must carry nonzero ``verify_chain_seconds``
    samples — the observability acceptance gate for the verifier hot path.
    """
    rng, shared, clock, _ = conventional_setup()
    verifier = ProxyVerifier(
        server=SERVER,
        crypto=SharedKeyCrypto({ALICE: shared}),
        clock=clock,
        telemetry=telemetry,
    )
    proxy = grant_conventional(
        ALICE, shared, restrictions_of(4), START, START + 3600, rng
    )
    context = RequestContext(server=SERVER, operation="read")

    def run():
        presented = present(proxy, SERVER, clock.now(), "read")
        return verifier.verify(presented, context)

    assert benchmark(run).grantor == ALICE
    text = telemetry.prometheus()
    assert "verify_chain_seconds" in text
    verifications = telemetry.metrics.counter(
        "proxy_verifications_total"
    ).total()
    assert verifications > 0
    report(
        "F1: instrumented verification (telemetry on)",
        [
            ("proxy_verifications_total", int(verifications)),
            (
                "signature ops observed",
                int(
                    telemetry.metrics.counter(
                        "signature_operations_total"
                    ).total()
                ),
            ),
        ],
        ("metric", "value"),
    )


def test_fig1_structure_report(benchmark):
    """Print Fig. 1 as built: certificate fields and wire sizes."""
    rng, shared, clock, verifier = conventional_setup()

    def grant():
        return grant_conventional(
            ALICE, shared,
            (Authorized(entries=(AuthorizedEntry("file", ("read",)),)),),
            START, START + 3600, rng,
        )

    proxy = benchmark(grant)
    cert = proxy.final
    rows = [
        ("grantor", str(cert.grantor)),
        ("restrictions", [r.to_wire()["type"] for r in cert.restrictions]),
        ("key binding", cert.key_binding.KIND),
        ("certificate bytes", len(cert.to_bytes())),
        ("signature bytes", len(cert.signature)),
        ("proxy-key bytes (held by grantee)", len(proxy.proxy_key.secret)),
    ]
    report(
        "F1 / Fig.1: [restrictions, Kproxy]_grantor + proxy key",
        rows, ("field", "value"),
    )
