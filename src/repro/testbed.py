"""One-call assembly of a complete deployment.

Tests, examples, and benchmarks all need the same scaffolding: a simulated
clock and network, a KDC, some users, and a few servers.  :class:`Realm`
builds it, with a deterministic seed so any run is reproducible.

    realm = Realm(seed=b"demo")
    alice = realm.user("alice")
    fs = realm.file_server("fileserver")
    fs.grant_owner(alice.principal)
    client = alice.client_for(fs.principal)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.clock import Clock, SimulatedClock, SystemClock
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import Rng
from repro.encoding.identifiers import PrincipalId
from repro.kerberos.client import KerberosClient
from repro.kerberos.kdc import KeyDistributionCenter
from repro.net.aio import AioNetwork
from repro.net.network import LatencyModel, Network
from repro.obs.telemetry import NO_TELEMETRY, Telemetry
from repro.resil.channel import ResilientChannel
from repro.resil.dedupe import ResponseCache
from repro.resil.degraded import ResilientAuthorizationClient
from repro.resil.policy import RetryPolicy
from repro.services.accounting import AccountingClient, AccountingServer
from repro.services.authorization import (
    AuthorizationClient,
    AuthorizationServer,
)
from repro.services.client import ServiceClient
from repro.services.fileserver import FileServer
from repro.services.groups import GroupClient, GroupServer
from repro.services.nameserver import NameServer
from repro.services.printserver import PrintServer


@dataclass
class User:
    """A human-shaped principal: identity plus a Kerberos agent."""

    principal: PrincipalId
    secret_key: SymmetricKey
    kerberos: KerberosClient

    def client_for(self, server: PrincipalId) -> ServiceClient:
        return ServiceClient(self.kerberos, server)

    def authorization_client(self, server: PrincipalId) -> AuthorizationClient:
        return AuthorizationClient(self.kerberos, server)

    def resilient_authorization_client(
        self, server: PrincipalId, telemetry=None
    ) -> ResilientAuthorizationClient:
        """Fig. 3 client with the degraded-mode cache (§3.1–3.2)."""
        return ResilientAuthorizationClient(
            self.kerberos, server, telemetry=telemetry
        )

    def group_client(self, server: PrincipalId) -> GroupClient:
        return GroupClient(self.kerberos, server)

    def accounting_client(self, server: PrincipalId) -> AccountingClient:
        return AccountingClient(self.kerberos, server)


class Realm:
    """A complete single-realm deployment on a simulated network."""

    def __init__(
        self,
        seed: Optional[bytes] = b"repro-testbed",
        realm: str = "REPRO.ORG",
        start_time: float = 1_000_000.0,
        latency: Optional[LatencyModel] = None,
        real_time: bool = False,
        network: Optional[Network] = None,
        clock: Optional[Clock] = None,
        telemetry: Optional[Telemetry] = None,
        verify_cache=None,
        resilience=None,
        runtime: str = "sync",
        time_dilation: float = 0.0,
        max_batch: int = 64,
        request_timeout: Optional[float] = None,
    ) -> None:
        """Build a realm; pass a shared ``network``/``clock`` to co-locate
        several realms on one fabric (see :func:`federation`).  An optional
        ``telemetry`` is bound to the realm clock and threaded into the
        network (and from there into every service); when a shared network
        is supplied, its telemetry is adopted instead.  ``verify_cache``
        (a :class:`~repro.core.vcache.VerificationCacheConfig`) becomes
        the default ``cache_config`` of every end-server the realm builds —
        pass :data:`~repro.core.vcache.DISABLED_CONFIG` to run the realm
        with the verification fast path off.

        ``resilience`` turns on the resilience layer: pass ``True`` for the
        default :class:`~repro.resil.policy.RetryPolicy` or a policy of
        your own.  Every client and service is then built on a
        :class:`~repro.resil.channel.ResilientChannel` (``realm.channel``)
        — RPCs retry with backoff behind circuit breakers, servers dedupe
        resends, end servers mark grants degraded while their authority is
        unreachable, and :meth:`kdc_replica` registers failover replicas.

        ``runtime`` selects the delivery mode when the realm builds its
        own network: ``"sync"`` (the seeded deterministic default) or
        ``"aio"`` for the queue-based asyncio runtime
        (:class:`~repro.net.aio.AioNetwork` — wrap client work in
        ``async with realm.network.serve()`` or
        :func:`repro.net.aio.drive`).  Both modes fork the same ``b"net"``
        rng, so a single-driver aio realm reproduces the sync realm's
        draws exactly — the parity contract of ``docs/scaling.md``.
        ``time_dilation``, ``max_batch``, and ``request_timeout`` pass
        through to the network (dilation also applies to the sync mode
        under a wall clock)."""
        self.rng = Rng(seed=seed)
        self.verify_cache = verify_cache
        if clock is not None:
            self.clock = clock
        else:
            self.clock = (
                SystemClock() if real_time else SimulatedClock(start_time)
            )
        if network is not None:
            self.network = network
            self.telemetry = (
                telemetry if telemetry is not None else network.telemetry
            )
        else:
            self.telemetry = telemetry if telemetry is not None else NO_TELEMETRY
            if runtime == "aio":
                self.network = AioNetwork(
                    self.clock,
                    latency=latency,
                    rng=self.rng.fork(b"net"),
                    telemetry=self.telemetry,
                    time_dilation=time_dilation,
                    max_batch=max_batch,
                    request_timeout=request_timeout,
                )
            elif runtime == "sync":
                self.network = Network(
                    self.clock,
                    latency=latency,
                    rng=self.rng.fork(b"net"),
                    telemetry=self.telemetry,
                    time_dilation=time_dilation,
                )
            else:
                raise ValueError(
                    f"runtime must be 'sync' or 'aio', not {runtime!r}"
                )
        if self.telemetry:
            self.telemetry.bind_clock(self.clock)
        self.realm = realm
        self.channel: Optional[ResilientChannel] = None
        if resilience:
            policy = (
                resilience
                if isinstance(resilience, RetryPolicy)
                else RetryPolicy()
            )
            self.channel = ResilientChannel(
                self.network,
                policy=policy,
                rng=self.rng.fork(b"resil"),
                telemetry=self.telemetry,
            )
        #: What clients and services send through: the resilient channel
        #: when the layer is on, else the bare network.
        self._fabric = (
            self.channel if self.channel is not None else self.network
        )
        #: Every response cache handed to a service, so chaos reports can
        #: sum dedupe activity across the deployment.
        self.dedupe_caches: list = []
        self.kdc = KeyDistributionCenter(
            self._fabric,
            self.clock,
            realm=realm,
            rng=self.rng.fork(b"kdc"),
            dedupe=self._dedupe_cache(),
        )
        self.users: Dict[str, User] = {}
        #: Crash-restart counters per server name: each restart forks
        #: fresh rng streams (tagged with the count) so a restarted
        #: server never re-draws its predecessor's random sequence.
        self._restarts: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def principal(self, name: str) -> PrincipalId:
        return PrincipalId(name, self.realm)

    def user(self, name: str) -> User:
        """Register (or fetch) a user principal with a Kerberos agent."""
        if name in self.users:
            return self.users[name]
        principal = self.principal(name)
        key = self.kdc.database.register(principal)
        agent = KerberosClient(
            principal,
            key,
            self._fabric,
            self.clock,
            rng=self.rng.fork(b"user:" + name.encode()),
        )
        user = User(principal=principal, secret_key=key, kerberos=agent)
        self.users[name] = user
        return user

    def _server_identity(self, name: str):
        principal = self.principal(name)
        key = self.kdc.database.register(principal)
        agent = KerberosClient(
            principal,
            key,
            self._fabric,
            self.clock,
            rng=self.rng.fork(b"srv:" + name.encode()),
        )
        return principal, key, agent

    # ------------------------------------------------------------------

    def _dedupe_cache(self) -> Optional[ResponseCache]:
        if self.channel is None:
            return None
        cache = ResponseCache(self.clock)
        self.dedupe_caches.append(cache)
        return cache

    def _apply_verify_cache(self, kwargs: dict) -> dict:
        if self.verify_cache is not None:
            kwargs.setdefault("cache_config", self.verify_cache)
        if self.channel is not None:
            kwargs.setdefault("dedupe", self._dedupe_cache())
            kwargs.setdefault(
                "authority_monitor", self.channel.authority_unreachable
            )
        return kwargs

    def file_server(self, name: str, **kwargs) -> FileServer:
        principal, key, _ = self._server_identity(name)
        kwargs = self._apply_verify_cache(kwargs)
        return FileServer(
            principal,
            key,
            self._fabric,
            self.clock,
            rng=self.rng.fork(b"fs:" + name.encode()),
            **kwargs,
        )

    def print_server(self, name: str, **kwargs) -> PrintServer:
        principal, key, _ = self._server_identity(name)
        kwargs = self._apply_verify_cache(kwargs)
        return PrintServer(
            principal, key, self._fabric, self.clock, **kwargs
        )

    def name_server(self, name: str = "nameserver") -> NameServer:
        principal, _, __ = self._server_identity(name)
        return NameServer(principal, self._fabric, self.clock)

    def authorization_server(self, name: str, **kwargs) -> AuthorizationServer:
        principal, key, agent = self._server_identity(name)
        kwargs = self._apply_verify_cache(kwargs)
        return AuthorizationServer(
            principal,
            key,
            self._fabric,
            self.clock,
            kerberos=agent,
            rng=self.rng.fork(b"authz:" + name.encode()),
            **kwargs,
        )

    def group_server(self, name: str, **kwargs) -> GroupServer:
        principal, key, agent = self._server_identity(name)
        kwargs = self._apply_verify_cache(kwargs)
        return GroupServer(
            principal,
            key,
            self._fabric,
            self.clock,
            kerberos=agent,
            rng=self.rng.fork(b"grp:" + name.encode()),
            **kwargs,
        )

    def accounting_server(self, name: str, **kwargs) -> AccountingServer:
        principal, key, agent = self._server_identity(name)
        kwargs = self._apply_verify_cache(kwargs)
        return AccountingServer(
            principal,
            key,
            self._fabric,
            self.clock,
            kerberos=agent,
            rng=self.rng.fork(b"acct:" + name.encode()),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Crash-restart (durability layer)
    # ------------------------------------------------------------------

    def _restart_identity(self, name: str):
        """Identity for a restarted server: the *same* principal and the
        *same* long-term key (re-registering would mint a fresh key and
        silently invalidate every outstanding ticket for the server —
        a crash does not rotate keys), but restart-tagged rng forks."""
        principal = self.principal(name)
        key = self.kdc.database.key_of(principal)
        count = self._restarts.get(name, 0) + 1
        self._restarts[name] = count
        tag = name.encode() + b"#%d" % count
        agent = KerberosClient(
            principal,
            key,
            self._fabric,
            self.clock,
            rng=self.rng.fork(b"srv:" + tag),
        )
        return principal, key, agent, tag

    def restart_accounting_server(self, name: str, **kwargs) -> AccountingServer:
        """Rebuild an accounting server after a simulated crash.

        The caller unregisters (or just abandons) the dead instance;
        constructing the replacement re-registers the principal's network
        handler.  Pass a store opened on the dead server's directory
        (``store.reopen()``) to recover its books; without one this models
        a server that lost everything.
        """
        principal, key, agent, tag = self._restart_identity(name)
        kwargs = self._apply_verify_cache(kwargs)
        return AccountingServer(
            principal,
            key,
            self._fabric,
            self.clock,
            kerberos=agent,
            rng=self.rng.fork(b"acct:" + tag),
            **kwargs,
        )

    def restart_file_server(self, name: str, **kwargs) -> FileServer:
        """Rebuild a file server after a simulated crash (see
        :meth:`restart_accounting_server`)."""
        principal, key, _, tag = self._restart_identity(name)
        kwargs = self._apply_verify_cache(kwargs)
        return FileServer(
            principal,
            key,
            self._fabric,
            self.clock,
            rng=self.rng.fork(b"fs:" + tag),
            **kwargs,
        )

    def crash_restart(self, server, **span_attributes):
        """Kill ``server`` and rebuild the same kind of server from its
        own store — the one crash model of chaos campaigns.

        Process state (sessions, in-memory registries, balances, the store
        object itself) vanishes; the WAL and snapshot survive.  The
        replacement registers the principal's handler again, recovers
        before serving, and keeps the dead instance's inter-bank
        ``routes`` (configuration, not state).
        Clients notice only dropped sessions, which they re-establish.
        """
        rebuild = {
            AccountingServer: self.restart_accounting_server,
            FileServer: self.restart_file_server,
        }.get(type(server))
        if rebuild is None or server.durability is None:
            raise ValueError(
                f"cannot crash-restart {server.principal}: "
                "not a server built on a durability store"
            )
        name = server.principal.name
        with self.telemetry.span(
            "recovery.crash_restart", server=name, **span_attributes
        ):
            self.network.unregister(server.principal)
            new = rebuild(name, durability=server.durability.reopen())
        if isinstance(server, AccountingServer):
            new.routes.update(server.routes)
        return new

    # ------------------------------------------------------------------
    # Replicas (resilience layer required)
    # ------------------------------------------------------------------

    def _require_channel(self) -> ResilientChannel:
        if self.channel is None:
            raise ValueError(
                "replicas need the resilience layer: "
                "build the realm with resilience=True"
            )
        return self.channel

    def kdc_replica(self, name: str) -> KeyDistributionCenter:
        """Stand up a KDC replica behind the realm's logical KDC.

        The replica registers under its own endpoint name but shares the
        primary's principal database (any replica can issue equivalent
        tickets) and its response cache (a resend that fails over is
        still deduplicated).  The channel routes ``kdc@REALM`` traffic to
        the primary first, then to replicas in registration order.
        """
        channel = self._require_channel()
        endpoint = self.principal(name)
        replica = KeyDistributionCenter(
            self._fabric,
            self.clock,
            database=self.kdc.database,
            realm=self.realm,
            rng=self.rng.fork(b"kdc:" + name.encode()),
            dedupe=self.kdc.dedupe,
            endpoint=endpoint,
        )
        channel.add_replica(self.kdc.principal, endpoint)
        return replica


def federation(
    realm_names,
    seed: bytes = b"repro-federation",
    start_time: float = 1_000_000.0,
    latency: Optional[LatencyModel] = None,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, Realm]:
    """Build several realms on one network, with mutual cross-realm trust.

    Every pair of KDCs is federated (full mesh), so a client in any realm
    can obtain service tickets in any other — the paper's §1 setting of
    organizations whose "clients and servers not previously known to one
    another must interact".

        realms = federation(["A.ORG", "B.ORG"])
        alice = realms["A.ORG"].user("alice")
        shop = realms["B.ORG"].file_server("shop")
        alice.kerberos.get_ticket(shop.principal)   # cross-realm path
    """
    from repro.kerberos.kdc import federate

    root = Rng(seed=seed)
    clock = SimulatedClock(start_time)
    if telemetry is not None:
        telemetry.bind_clock(clock)
    network = Network(
        clock,
        latency=latency,
        rng=root.fork(b"net"),
        telemetry=telemetry,
    )
    realms: Dict[str, Realm] = {}
    for name in realm_names:
        realms[name] = Realm(
            seed=seed + b":" + name.encode(),
            realm=name,
            network=network,
            clock=clock,
        )
    names = list(realm_names)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            federate(realms[a].kdc, realms[b].kdc, rng=root.fork(
                b"fed:" + a.encode() + b":" + b.encode()
            ))
    return realms
