"""The client-side Kerberos agent (a ``kinit``-plus-credential-cache).

Holds a principal's long-term key, performs AS and TGS exchanges over the
simulated network, caches credentials per server, and supports the TGS
proxy exchange of §6.3 (obtaining service tickets on the strength of a
proxy for the ticket-granting service).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.clock import Clock
from repro.core.presentation import present
from repro.core.proxy import Proxy
from repro.core.restrictions import Restriction
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.encoding.identifiers import PrincipalId
from repro.errors import KerberosError
from repro.kerberos.kdc import (
    cross_realm_principal,
    kdc_principal,
    tgs_principal,
)
from repro.kerberos.session import make_ap_request
from repro.kerberos.ticket import (
    AsReplyPart,
    AsRequest,
    Credentials,
    KdcReply,
    ProxyReplyPart,
    TgsProxyRequest,
    TgsReplyPart,
    TgsRequest,
    Ticket,
    open_value,
)
from repro.net.message import raise_if_error
from repro.net.network import Network


class KerberosClient:
    """A principal's credential manager."""

    def __init__(
        self,
        principal: PrincipalId,
        secret_key: SymmetricKey,
        network: Network,
        clock: Clock,
        rng: Optional[Rng] = None,
    ) -> None:
        self.principal = principal
        self._secret_key = secret_key
        self.network = network
        self.clock = clock
        self._rng = rng or DEFAULT_RNG
        self._kdc = kdc_principal(principal.realm)
        self._tgs = tgs_principal(principal.realm)
        self.tgt: Optional[Credentials] = None
        self._cache: Dict[PrincipalId, Credentials] = {}
        #: Cross-realm TGTs by remote realm name.
        self._cross_tgts: Dict[str, Credentials] = {}

    @property
    def rng(self) -> Rng:
        """This principal's random source (seeded in testbed deployments)."""
        return self._rng

    # ------------------------------------------------------------------

    def _exchange(
        self,
        msg_type: str,
        request,
        key: SymmetricKey,
        part: type,
        kdc: Optional[PrincipalId] = None,
        client: Optional[PrincipalId] = None,
    ) -> Credentials:
        """Send ``request`` to ``kdc`` (our realm's by default) and open the
        reply into ``client``'s (our) credentials: its ticket, and its
        secret ``part`` sealed under ``key``.  A part that carries a nonce
        must echo the request's, or the reply answers some other request —
        a replayed old one, say (RFC 4120 §3.1.5)."""
        reply = KdcReply.from_wire(
            raise_if_error(
                self.network.send(
                    self.principal, kdc or self._kdc, msg_type,
                    request.to_wire(),
                )
            )
        )
        secret = open_value(
            part, key.secret, reply.enc_part, part.AD,
            KerberosError, f"{msg_type} reply",
        )
        if getattr(secret, "nonce", None) != getattr(request, "nonce", None):
            raise KerberosError(
                f"{msg_type} reply does not echo the request's nonce"
            )
        return Credentials(
            ticket=reply.ticket,
            session_key=secret.session_key,
            client=client or self.principal,
            expires_at=secret.expires_at,
            authorization_data=getattr(secret, "authorization_data", ()),
        )

    def _nonce(self) -> int:
        return int.from_bytes(self._rng.bytes(4), "big")

    def login(
        self,
        till: Optional[float] = None,
        authorization_data: Tuple[Restriction, ...] = (),
    ) -> Credentials:
        """AS exchange: obtain (and cache) a TGT.

        ``authorization_data`` restricts the TGT itself — §6.3's observation
        that initial authentication is the granting of a proxy.
        """
        authorization_data = tuple(authorization_data)
        tgt = self._exchange(
            "as-request",
            AsRequest(self.principal, till, authorization_data, self._nonce()),
            self._secret_key,
            AsReplyPart,
        )
        # An AS reply does not repeat the restrictions its request asked for.
        self.tgt = replace(tgt, authorization_data=authorization_data)
        return self.tgt

    def _tgs_exchange(
        self,
        tgt: Credentials,
        server: PrincipalId,
        additional_restrictions: Tuple[Restriction, ...] = (),
        till: Optional[float] = None,
    ) -> Credentials:
        """One TGS exchange using ``tgt``, with the KDC of ``server``'s
        realm (ours, for a cross-realm TGT)."""
        ap = make_ap_request(
            tgt,
            self.clock,
            authorization_data=tuple(additional_restrictions),
            rng=self._rng,
        )
        return self._exchange(
            "tgs-request",
            TgsRequest(
                ap.ticket, ap.authenticator, server, till, self._nonce()
            ),
            tgt.session_key,
            TgsReplyPart,
            kdc_principal(server.realm),
        )

    def _home_tgt(self) -> Credentials:
        if self.tgt is None or self.tgt.expires_at <= self.clock.now():
            self.login()
        assert self.tgt is not None
        return self.tgt

    def _cross_realm_tgt(self, remote_realm: str) -> Credentials:
        """Obtain (and cache) a cross-realm TGT toward ``remote_realm``."""
        cached = self._cross_tgts.get(remote_realm)
        if cached is not None and cached.expires_at > self.clock.now():
            return cached
        cross = self._tgs_exchange(
            self._home_tgt(),
            cross_realm_principal(remote_realm, self.principal.realm),
        )
        self._cross_tgts[remote_realm] = cross
        return cross

    def get_ticket(
        self,
        server: PrincipalId,
        additional_restrictions: Tuple[Restriction, ...] = (),
        till: Optional[float] = None,
        use_cache: bool = True,
    ) -> Credentials:
        """TGS exchange: obtain credentials for ``server``.

        ``additional_restrictions`` ride in the authenticator's
        authorization-data and are *added* to the TGT's own (§6.2).

        Foreign servers (``server.realm != ours``) are reached through the
        cross-realm path: a cross-realm TGT from the home KDC, then a TGS
        exchange with the server's realm's KDC (requires federation —
        :func:`repro.kerberos.kdc.federate`).
        """
        if (
            use_cache
            and not additional_restrictions
            and server in self._cache
            and self._cache[server].expires_at > self.clock.now()
        ):
            return self._cache[server]
        tgt = (
            self._home_tgt()
            if server.realm == self.principal.realm
            else self._cross_realm_tgt(server.realm)
        )
        credentials = self._tgs_exchange(
            tgt, server, additional_restrictions, till
        )
        if not additional_restrictions:
            self._cache[server] = credentials
        return credentials

    # ------------------------------------------------------------------
    # §6.3: tickets via a TGS proxy
    # ------------------------------------------------------------------

    def redeem_tgs_proxy(
        self,
        grantor_ticket: Ticket,
        proxy: Proxy,
        server: PrincipalId,
    ) -> Credentials:
        """Obtain credentials for ``server`` using a proxy for the TGS.

        ``proxy`` must be rooted in the grantor's TGT session key and
        ``grantor_ticket`` is the grantor's TGT (handed over with the proxy
        so the TGS can recover the signing key).  Returns credentials in the
        *grantor's* name, restricted to this grantee, carrying the proxy's
        restrictions — usable at ``server`` like any other proxy (§6.3).
        """
        presented = present(
            proxy,
            self._tgs,
            self.clock.now(),
            operation="obtain-ticket",
            target=str(server),
        )
        if not isinstance(proxy.proxy_key, SymmetricKey):
            raise KerberosError("TGS proxies use symmetric proxy keys")
        return self._exchange(
            "tgs-proxy-request",
            TgsProxyRequest(grantor_ticket, presented, self.principal, server),
            proxy.proxy_key,
            ProxyReplyPart,
            client=proxy.grantor,
        )
