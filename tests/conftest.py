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
