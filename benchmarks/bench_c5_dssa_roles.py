"""C5 — §5: on-the-fly delegation — restricted proxies vs DSSA roles.

"The creation of a new role is cumbersome when delegating on the fly or
when granting access to individual objects."  In the DSSA, each distinct
rights subset needs a fresh principal (keypair) plus a role certificate;
with proxies, the restriction rides in the grant itself.  We delegate R
random object subsets and compare total grant cost and artifact counts.
"""

import pytest

from conftest import report
from repro.baselines import DssaPrincipal, DssaVerifier
from repro.clock import SimulatedClock
from repro.core.evaluation import RequestContext
from repro.core.presentation import present
from repro.core.proxy import grant_conventional, grant_public
from repro.core.restrictions import Authorized, AuthorizedEntry, Grantee
from repro.core.verification import ProxyVerifier, SharedKeyCrypto
from repro.crypto import schnorr
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.crypto.signature import SchnorrSigner
from repro.encoding.identifiers import PrincipalId
from repro.workloads import delegation_subsets

ALICE = PrincipalId("alice")
BOB = PrincipalId("bob")
START = 1_000_000.0
N_DELEGATIONS = 20


def subsets():
    return delegation_subsets(
        N_DELEGATIONS, n_objects=100, subset_size=3, rng=Rng(seed=b"c5")
    )


def test_proxy_on_the_fly_delegation(benchmark):
    """Proxy grant per subset (conventional crypto, typical deployment)."""
    rng = Rng(seed=b"c5-proxy")
    shared = SymmetricKey.generate(rng=rng)
    work = subsets()

    def run():
        for subset in work:
            grant_conventional(
                ALICE, shared,
                (
                    Grantee(principals=(BOB,)),
                    Authorized(
                        entries=tuple(
                            AuthorizedEntry(obj, ("read",)) for obj in subset
                        )
                    ),
                ),
                START, START + 600, rng,
            )

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_proxy_public_key_delegation(benchmark):
    """Same, public-key flavour (closest to the DSSA's setting)."""
    rng = Rng(seed=b"c5-proxy-pk")
    identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
    signer = SchnorrSigner(identity)
    work = subsets()

    def run():
        for subset in work:
            grant_public(
                ALICE, signer,
                (
                    Grantee(principals=(BOB,)),
                    Authorized(
                        entries=tuple(
                            AuthorizedEntry(obj, ("read",)) for obj in subset
                        )
                    ),
                ),
                START, START + 600, rng, TEST_GROUP,
            )

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_dssa_on_the_fly_delegation(benchmark):
    """DSSA: a fresh role (keypair + certificate) per subset, then the
    delegation certificate."""
    rng = Rng(seed=b"c5-dssa")
    user = DssaPrincipal(ALICE, rng=rng)
    work = subsets()

    def run():
        for subset in work:
            role = user.create_role(
                tuple(("read", obj) for obj in subset), expires_at=START + 600
            )
            user.delegate(role, BOB, expires_at=START + 600)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_c5_artifact_report(benchmark):
    """Artifacts per delegation and the structural claim about roles."""
    rng = Rng(seed=b"c5-artifacts")
    user = DssaPrincipal(ALICE, rng=rng)
    work = subsets()
    for subset in work:
        role = user.create_role(
            tuple(("read", obj) for obj in subset), expires_at=START + 600
        )
        user.delegate(role, BOB, expires_at=START + 600)
    rows = [
        (
            "restricted proxies",
            "1 certificate (restrictions inline)",
            "0",
            "yes: any restriction, any time (§2)",
        ),
        (
            "DSSA roles",
            "1 role cert + 1 delegation cert",
            str(len(user.roles)),
            "no: role set is fixed at creation (§5)",
        ),
    ]
    report(
        f"C5 / §5 vs DSSA: {N_DELEGATIONS} on-the-fly delegations",
        rows,
        ("design", "artifacts per delegation", "new principals created",
         "restriction on the fly?"),
    )
    assert len(user.roles) == N_DELEGATIONS
    benchmark(lambda: None)


def test_c5_roles_cannot_build_authorization_server(benchmark):
    """'Roles can not be used to implement the authorization server of
    Section 3.2': a role certificate asserts the *user's* rights under a
    fixed list; the §3.2 server must let a client act as *the server* for
    rights computed per request.  With proxies the authorization server is
    ~30 lines on top of the core; with roles the construct does not type-
    check — the delegation is always rooted at the resource owner, not the
    authorization authority.  We demonstrate the proxy construction works
    rooted at a third-party authority."""
    rng = Rng(seed=b"c5-authz")
    shared = SymmetricKey.generate(rng=rng)
    authority = PrincipalId("authority")
    clock = SimulatedClock(START)
    verifier = ProxyVerifier(
        server=PrincipalId("server"),
        crypto=SharedKeyCrypto({authority: shared}),
        clock=clock,
    )
    proxy = grant_conventional(
        authority, shared,
        (Authorized(entries=(AuthorizedEntry("obj/1", ("read",)),)),),
        START, START + 600, rng,
    )
    result = verifier.verify(
        present(proxy, PrincipalId("server"), clock.now(), "read", target="obj/1"),
        RequestContext(
            server=PrincipalId("server"), operation="read", target="obj/1"
        ),
    )
    assert result.grantor == authority  # the client acts as the authority
    benchmark(lambda: None)
