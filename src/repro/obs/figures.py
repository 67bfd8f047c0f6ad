"""Runnable protocol figures, traced end to end.

Each ``run_figN`` builds a small seeded deployment, warms the underlying
Kerberos machinery (the figures omit key-distribution traffic, §2), clears
the warm-up spans, and then replays the figure's messages inside one
telemetry *run* — so ``python -m repro trace fig3`` renders the protocol
as a single span tree whose numbered steps match the paper's arrows.

The runners return the :class:`~repro.obs.telemetry.Telemetry` they
recorded into; callers render it with the exporters.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.obs.telemetry import Telemetry

START = 1_000_000.0


def _fresh(label: str, telemetry: Telemetry):
    from repro.testbed import Realm

    return Realm(seed=b"obs-" + label.encode(), telemetry=telemetry)


def run_fig1(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Fig. 1: the restricted proxy primitive — grant, present, verify."""
    from repro.clock import SimulatedClock
    from repro.core.evaluation import RequestContext
    from repro.core.presentation import present
    from repro.core.proxy import grant_conventional
    from repro.core.restrictions import Authorized, AuthorizedEntry
    from repro.core.verification import ProxyVerifier, SharedKeyCrypto
    from repro.crypto.keys import SymmetricKey
    from repro.crypto.rng import Rng
    from repro.encoding.identifiers import PrincipalId

    if telemetry is None:
        telemetry = Telemetry()
    rng = Rng(seed=b"obs-fig1")
    clock = SimulatedClock(START)
    telemetry.bind_clock(clock)
    grantor = PrincipalId("alice")
    server = PrincipalId("server")
    shared = SymmetricKey.generate(rng=rng)
    verifier = ProxyVerifier(
        server=server,
        crypto=SharedKeyCrypto({grantor: shared}),
        clock=clock,
        telemetry=telemetry,
    )
    with telemetry.run("fig1"):
        with telemetry.span(
            "fig.step", step=1, label="grant [restrictions, Kproxy]_grantor"
        ):
            proxy = grant_conventional(
                grantor,
                shared,
                (Authorized(entries=(AuthorizedEntry("file", ("read",)),)),),
                START,
                START + 3600,
                rng,
            )
        with telemetry.span(
            "fig.step", step=2, label="present proxy to S; S verifies"
        ):
            presented = present(proxy, server, clock.now(), "read")
            verifier.verify(
                presented,
                RequestContext(server=server, operation="read", target="file"),
            )
    return telemetry


def run_fig3(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Fig. 3: the authorization-server protocol (messages 0–3)."""
    from repro.acl import AclEntry, SinglePrincipal
    from repro.services.nameserver import lookup

    if telemetry is None:
        telemetry = Telemetry()
    realm = _fresh("fig3", telemetry)
    fs = realm.file_server("files")
    fs.put("doc", b"data")
    authz = realm.authorization_server("authz")
    fs.acl.add(AclEntry(subject=SinglePrincipal(authz.principal)))
    ns = realm.name_server()
    ns.publish(fs.principal, authorization_server=authz.principal)
    user = realm.user("client")
    authz.database_for(fs.principal).add(
        AclEntry(subject=SinglePrincipal(user.principal), operations=("read",))
    )

    # §2: key-distribution traffic is omitted from the figures — warm every
    # ticket, then drop the warm-up spans so the run shows only the figure.
    azc = user.authorization_client(authz.principal)
    azc.service.establish_session()
    azc.authorize(fs.principal, ("read",))
    client = user.client_for(fs.principal)
    client.establish_session()
    if telemetry.enabled:
        telemetry.tracer.clear()
        telemetry.store.clear()

    with telemetry.run("fig3"):
        with telemetry.span(
            "fig.step",
            step="0 (dashed)",
            label="a-priori knowledge via name server",
        ):
            lookup(realm.network, user.principal, ns.principal, fs.principal)
        with telemetry.span(
            "fig.step",
            step="1+2",
            label="authenticated request -> [op X only]_R, {Kproxy}Ksession",
        ):
            proxy = azc.authorize(fs.principal, ("read",))
        with telemetry.span(
            "fig.step",
            step=3,
            label="present proxy to S, authenticate with Kproxy",
        ):
            client.request("read", "doc", proxy=proxy)
    return telemetry


def run_fig4(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Fig. 4: a cascaded proxy chain, verified offline at the end-server."""
    from repro.clock import SimulatedClock
    from repro.core.evaluation import RequestContext
    from repro.core.presentation import present
    from repro.core.proxy import cascade, grant_conventional
    from repro.core.restrictions import Quota
    from repro.core.verification import ProxyVerifier, SharedKeyCrypto
    from repro.crypto.keys import SymmetricKey
    from repro.crypto.rng import Rng
    from repro.encoding.identifiers import PrincipalId

    if telemetry is None:
        telemetry = Telemetry()
    rng = Rng(seed=b"obs-fig4")
    clock = SimulatedClock(START)
    telemetry.bind_clock(clock)
    grantor = PrincipalId("alice")
    server = PrincipalId("server")
    shared = SymmetricKey.generate(rng=rng)
    verifier = ProxyVerifier(
        server=server,
        crypto=SharedKeyCrypto({grantor: shared}),
        clock=clock,
        telemetry=telemetry,
    )
    with telemetry.run("fig4"):
        with telemetry.span(
            "fig.step", step=1, label="grant root proxy [.]_alice"
        ):
            proxy = grant_conventional(
                grantor, shared, (), START, START + 3600, rng
            )
        for hop in range(2):
            with telemetry.span(
                "fig.step",
                step=hop + 2,
                label=f"cascade: subordinate {hop + 1} re-delegates "
                f"[restrictions, Kproxy{hop + 2}]_Kproxy{hop + 1}",
            ):
                proxy = cascade(
                    proxy,
                    (Quota(currency=f"hop{hop}", limit=100),),
                    START,
                    START + 3600,
                    rng,
                )
        with telemetry.span(
            "fig.step", step=4, label="present chain to S; offline verify"
        ):
            presented = present(proxy, server, clock.now(), "read")
            verifier.verify(
                presented, RequestContext(server=server, operation="read")
            )
    return telemetry


def run_fig5(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Fig. 5: processing a check (E1/E2 endorsements, cross-server)."""
    if telemetry is None:
        telemetry = Telemetry()
    realm = _fresh("fig5", telemetry)
    payor = realm.user("payor")
    payee = realm.user("payee")
    bank_payor = realm.accounting_server("bank-payor")
    bank_payee = realm.accounting_server("bank-payee")
    bank_payor.create_account("payor", payor.principal, {"dollars": 1000})
    bank_payee.create_account("payee", payee.principal)
    payor_client = payor.accounting_client(bank_payor.principal)
    payee_client = payee.accounting_client(bank_payee.principal)

    # Warm every server's tickets with one clearing, then trace a clean run.
    check = payor_client.write_check("payor", payee.principal, "dollars", 1)
    payee_client.deposit_check(check, "payee")
    if telemetry.enabled:
        telemetry.tracer.clear()
        telemetry.store.clear()

    with telemetry.run("fig5"):
        with telemetry.span(
            "fig.step", step=1, label="check: [payee, $5, #N]_payor"
        ):
            check = payor_client.write_check(
                "payor", payee.principal, "dollars", 5
            )
        with telemetry.span(
            "fig.step",
            step="2+3",
            label="E1 deposit at payee's server; E2 forwarded for clearing",
        ):
            payee_client.deposit_check(check, "payee")
    return telemetry


def run_fig6(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Fig. 6 territory (§6.1): pure public-key proxies, no KDC.

    A directory publishes long-term public keys; alice signs a restricted
    proxy with her private key, and a bearer presents it to a server that
    verifies the whole chain offline against the directory.
    """
    from repro.acl import AclEntry, SinglePrincipal
    from repro.clock import SimulatedClock
    from repro.core.proxy import grant_public
    from repro.core.restrictions import Authorized, AuthorizedEntry, IssuedFor
    from repro.crypto.rng import Rng
    from repro.crypto.schnorr_groups import TEST_GROUP
    from repro.encoding.identifiers import PrincipalId
    from repro.net import Network
    from repro.services.pk_endserver import (
        PkClient,
        PkEndServer,
        PublicKeyDirectory,
    )

    if telemetry is None:
        telemetry = Telemetry()
    rng = Rng(seed=b"obs-fig6")
    clock = SimulatedClock(START)
    telemetry.bind_clock(clock)
    network = Network(clock, rng=rng, telemetry=telemetry)
    directory = PublicKeyDirectory()
    server = PkEndServer(
        PrincipalId("pk-files"),
        network,
        clock,
        directory,
        group=TEST_GROUP,
        rng=rng,
        telemetry=telemetry,
    )
    files = {"doc": b"pk data"}

    def read(request):
        return {"data": files[request.args["path"]]}

    server.register_operation("read", read)
    alice = PkClient(
        PrincipalId("alice"), network, clock, directory,
        group=TEST_GROUP, rng=rng,
    )
    bob = PkClient(
        PrincipalId("bob"), network, clock, directory,
        group=TEST_GROUP, rng=rng,
    )
    server.acl.add(AclEntry(subject=SinglePrincipal(alice.principal)))

    with telemetry.run("fig6"):
        with telemetry.span(
            "fig.step",
            step=1,
            label="grant [restrictions, Kproxy-pub]_Kalice (signed, no KDC)",
        ):
            proxy = grant_public(
                alice.principal,
                alice.signer,
                (
                    Authorized(
                        entries=(AuthorizedEntry("doc", ("read",)),)
                    ),
                    IssuedFor(servers=(server.principal,)),
                ),
                clock.now(),
                clock.now() + 600,
                rng,
                group=TEST_GROUP,
            )
        with telemetry.span(
            "fig.step",
            step=2,
            label="bearer presents proxy; S verifies against the directory",
        ):
            bob.request(
                server.principal,
                "read",
                target="doc",
                args={"path": "doc"},
                proxy=proxy,
                anonymous=True,
            )
    return telemetry


FIGURES: Dict[str, Callable[[Optional[Telemetry]], Telemetry]] = {
    "fig1": run_fig1,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
}


def run_figure(
    name: str, telemetry: Optional[Telemetry] = None
) -> Telemetry:
    """Run one named figure protocol under telemetry and return it."""
    try:
        runner = FIGURES[name]
    except KeyError:
        raise ValueError(
            f"unknown figure {name!r}; choose from {sorted(FIGURES)}"
        ) from None
    return runner(telemetry)
