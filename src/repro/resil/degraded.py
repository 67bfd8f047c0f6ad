"""Degraded-mode authorization: cached proxies outlive their issuer.

The paper's availability argument (§3.1–3.2): once an authorization server
has issued a restricted proxy (or a capability has been granted), the end
server verifies it *offline* — "the authorization server is off the
request path".  So an outage of the authorization server must not stop
clients that already hold still-fresh credentials; only *new* grants (and
anything past its expiry or revocation) require the authority.

:class:`ResilientAuthorizationClient` implements the client half: every
successful grant is cached, and when the authorization server is
unreachable (retries exhausted or its breaker open) a still-fresh cached
proxy is returned instead, counted as a degraded grant.  The server half
is the ``authority_monitor`` hook on
:class:`~repro.services.endserver.EndServer`, which marks such grants
``degraded=True`` in the verification result and the audit log.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bounded import BoundedStore
from repro.clock import Clock
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    CircuitOpenError,
    MessageDroppedError,
    RetriesExhaustedError,
    UnknownEndpointError,
)
from repro.kerberos.client import KerberosClient
from repro.kerberos.proxy_support import KerberosProxy
from repro.services.authorization import AuthorizationClient

#: Transport-level failures that trigger the cached-proxy fallback.
_AUTHORITY_DOWN = (
    RetriesExhaustedError,
    CircuitOpenError,
    MessageDroppedError,
    UnknownEndpointError,
)

_CacheKey = Tuple[PrincipalId, Tuple[str, ...], Tuple[str, ...]]


class ProxyCache:
    """Client-side store of issued proxies, keyed by what was asked for."""

    def __init__(self, clock: Clock) -> None:
        self._entries = BoundedStore(now=clock.now)

    @staticmethod
    def _key(
        end_server: PrincipalId,
        operations: Tuple[str, ...],
        targets: Tuple[str, ...],
    ) -> _CacheKey:
        return (end_server, tuple(operations), tuple(targets))

    def put(
        self,
        end_server: PrincipalId,
        operations: Tuple[str, ...],
        targets: Tuple[str, ...],
        proxy: KerberosProxy,
    ) -> None:
        # The cache entry dies with the tightest certificate in the chain;
        # a proxy that would no longer verify is never served.
        self._entries.put(
            self._key(end_server, operations, targets),
            proxy,
            min(cert.expires_at for cert in proxy.proxy.certificates),
        )

    def get(
        self,
        end_server: PrincipalId,
        operations: Tuple[str, ...],
        targets: Tuple[str, ...],
    ) -> Optional[KerberosProxy]:
        return self._entries.lookup(self._key(end_server, operations, targets))


class ResilientAuthorizationClient(AuthorizationClient):
    """Fig. 3 client that survives authorization-server outages."""

    def __init__(
        self,
        kerberos: KerberosClient,
        authorization_server: PrincipalId,
        telemetry=None,
    ) -> None:
        super().__init__(kerberos, authorization_server)
        self.cache = ProxyCache(kerberos.clock)
        self.telemetry = telemetry
        #: Grants served from cache while the authority was down.
        self.degraded_grants = 0

    def authorize(
        self,
        end_server: PrincipalId,
        operations: Tuple[str, ...],
        targets: Tuple[str, ...] = ("*",),
        proxy: Optional[KerberosProxy] = None,
        group_proxies=(),
    ) -> KerberosProxy:
        operations = tuple(operations)
        targets = tuple(targets)
        try:
            issued = super().authorize(
                end_server,
                operations,
                targets=targets,
                proxy=proxy,
                group_proxies=group_proxies,
            )
        except _AUTHORITY_DOWN:
            cached = self.cache.get(end_server, operations, targets)
            if cached is None:
                raise
            self.degraded_grants += 1
            if self.telemetry is not None and self.telemetry.enabled:
                self.telemetry.inc(
                    "resil.degraded_authorizations_total",
                    help="Authorizations served from the client proxy "
                    "cache while the authorization server was down.",
                    end_server=str(end_server),
                )
                self.telemetry.event(
                    "resil.degraded_authorization",
                    end_server=str(end_server),
                    operations=",".join(operations),
                )
            return cached
        self.cache.put(end_server, operations, targets, issued)
        return issued
