"""Shared fixtures.

Expensive key material (RSA) is generated once per session with a fixed
seed; everything else is cheap enough to build per test.  All fixtures are
deterministic so failures reproduce exactly.
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.crypto import rsa as rsa_mod
from repro.crypto import schnorr as schnorr_mod
from repro.crypto.keys import KeyPair, SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.encoding.identifiers import PrincipalId
from repro.testbed import Realm

#: Fixed epoch for simulated clocks: far from zero so expiry arithmetic
#: never goes negative.
START = 1_000_000.0

#: RFC 3526 group 14 (2048-bit MODP) prime: a well-formed modulus that is in
#: no Schnorr group table, for "a group we do not own" rejection tests.
RFC3526_PRIME_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)


@pytest.fixture
def clock():
    return SimulatedClock(START)


@pytest.fixture
def rng():
    return Rng(seed=b"test-rng")


@pytest.fixture(scope="session")
def rsa_keypair():
    """One 1024-bit RSA keypair for the whole run (keygen is the slow part)."""
    return KeyPair.generate(bits=1024, rng=Rng(seed=b"rsa-fixture"))


@pytest.fixture(scope="session")
def rsa_keypair_other():
    return KeyPair.generate(bits=1024, rng=Rng(seed=b"rsa-fixture-2"))


@pytest.fixture
def schnorr_key(rng):
    return schnorr_mod.generate_keypair(TEST_GROUP, rng=rng)


@pytest.fixture
def symmetric_key(rng):
    return SymmetricKey.generate(rng=rng)


@pytest.fixture
def alice():
    return PrincipalId("alice")


@pytest.fixture
def bob():
    return PrincipalId("bob")


@pytest.fixture
def carol():
    return PrincipalId("carol")


@pytest.fixture
def server():
    return PrincipalId("server")


@pytest.fixture
def realm():
    """A fresh single-realm deployment on a simulated network."""
    return Realm(seed=b"test-realm")


@pytest.fixture
def fig5_mix(monkeypatch):
    """Run a ``fig5-mix`` chaos campaign and demand what every one must
    show: every variant reached, the routed ``bank-a`` → ``bank-b`` →
    ``bank-c`` clearing hop taken, every invariant held after every unit
    on both arms, and parity with the fault-free baseline.  A campaign
    whose draws contain no ``bank-c`` → ``bank-a`` deposit passes
    ``routed=False`` and is held to everything else."""
    from repro.resil.chaos import CampaignSpec, run_campaign
    from repro.services.accounting import AccountingServer
    from repro.workloads.load import Fig5Mix

    collectors = []
    collect = AccountingServer._op_collect_check

    def counted(self, request):
        collectors.append(self.principal.name)
        return collect(self, request)

    # Only a routed deposit sends collect-check: the hop's middle bank.
    monkeypatch.setattr(AccountingServer, "_op_collect_check", counted)

    def run(routed=True, **fields):
        collectors.clear()
        report = run_campaign(CampaignSpec(figure="fig5-mix", **fields))
        assert report.recovery_problems == [], report.render()
        assert report.exit_code() == 0, report.render()
        variants = {unit.outcome["variant"] for unit in report.units}
        assert variants == set(Fig5Mix.VARIANTS)
        if routed:
            assert "bank-b" in collectors
        return report

    return run
