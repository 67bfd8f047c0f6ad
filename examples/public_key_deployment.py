#!/usr/bin/env python3
"""A deployment with no KDC at all: pure public-key proxies (§6.1, Fig. 6).

Everything runs off a public-key directory (the "authentication/name
server"): clients sign request envelopes with their own keys, grantors sign
Fig. 6 proxy certificates, and the end-server verifies everything offline.
Also shows the §6.1 hybrid scheme and the §7.3 issued-for pitfall.

Run:  python examples/public_key_deployment.py
"""

from repro.clock import SimulatedClock
from repro.core.proxy import grant_hybrid, grant_public
from repro.core.restrictions import Authorized, AuthorizedEntry, IssuedFor
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.encoding.identifiers import PrincipalId
from repro.errors import ReproError
from repro.net import Network
from repro.services.pk_endserver import (
    PkClient,
    PkEndServer,
    PublicKeyDirectory,
)
from repro.acl import AclEntry, SinglePrincipal


def main() -> None:
    rng = Rng(seed=b"pk-example")
    clock = SimulatedClock(1_000_000.0)
    network = Network(clock, rng=rng)
    directory = PublicKeyDirectory()   # the only shared infrastructure

    server = PkEndServer(
        PrincipalId("archive"), network, clock, directory,
        group=TEST_GROUP, rng=rng,
    )
    documents = {"paper.ps": b"ICDCS 1993 camera-ready"}
    server.register_operation(
        "read", lambda request: {"data": documents[request.target]}
    )

    alice = PkClient(
        PrincipalId("alice"), network, clock, directory,
        group=TEST_GROUP, rng=rng,
    )
    bob = PkClient(
        PrincipalId("bob"), network, clock, directory,
        group=TEST_GROUP, rng=rng,
    )
    server.acl.add(AclEntry(subject=SinglePrincipal(alice.principal)))

    print("1. alice authenticates by signature (no tickets anywhere):")
    out = alice.request(
        server.principal, "read", target="paper.ps",
    )
    print(f"   read -> {out['data']!r}")

    print("\n2. alice grants a Fig. 6 public-key proxy, pinned with")
    print("   issued-for (§7.3 — otherwise it would verify everywhere):")
    proxy = grant_public(
        alice.principal, alice.signer,
        (
            Authorized(entries=(AuthorizedEntry("paper.ps", ("read",)),)),
            IssuedFor(servers=(server.principal,)),
        ),
        clock.now(), clock.now() + 3600, group=TEST_GROUP,
    )
    out = bob.request(
        server.principal, "read", target="paper.ps",
        proxy=proxy, anonymous=True,
    )
    print(f"   bob, anonymous bearer -> {out['data']!r}")

    print("\n3. the hybrid scheme (§6.1): cheap symmetric proxy key,")
    print("   encrypted to the archive's public key:")
    hybrid = grant_hybrid(
        alice.principal, alice.signer,
        server.principal, directory.key_of(server.principal),
        (Authorized(entries=(AuthorizedEntry("paper.ps", ("read",)),)),),
        clock.now(), clock.now() + 3600,
    )
    out = bob.request(
        server.principal, "read", target="paper.ps",
        proxy=hybrid, anonymous=True,
    )
    print(f"   bob via hybrid proxy -> {out['data']!r}")

    print("\n4. revocation = one directory update:")
    directory.revoke(alice.principal)
    for label, bundle in (("public", proxy), ("hybrid", hybrid)):
        try:
            bob.request(
                server.principal, "read", target="paper.ps",
                proxy=bundle, anonymous=True,
            )
        except ReproError as exc:
            print(f"   {label} proxy now refused: {exc}")


if __name__ == "__main__":
    main()
