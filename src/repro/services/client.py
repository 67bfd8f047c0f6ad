"""Client-side agent for talking to end-servers.

Wraps a :class:`~repro.kerberos.client.KerberosClient`: establishes AP
sessions, sends authorized requests, and attaches proxies — the main proxy
exercising someone else's rights and supporting group proxies asserting
memberships (§3.3).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.restrictions import Restriction
from repro.encoding.identifiers import GroupId, PrincipalId
from repro.errors import UnknownSessionError
from repro.kerberos.client import KerberosClient
from repro.kerberos.proxy_support import KerberosProxy
from repro.kerberos.session import make_ap_request
from repro.net.message import raise_if_error


class ServiceClient:
    """One principal's connection to one end-server."""

    def __init__(self, kerberos: KerberosClient, server: PrincipalId) -> None:
        self.kerberos = kerberos
        self.server = server
        self._session_id: Optional[bytes] = None

    @property
    def principal(self) -> PrincipalId:
        return self.kerberos.principal

    def _send(self, msg_type: str, payload: dict) -> dict:
        response = self.kerberos.network.send(
            self.principal, self.server, msg_type, payload
        )
        return raise_if_error(response)

    # ------------------------------------------------------------------

    def establish_session(
        self,
        additional_restrictions: Tuple[Restriction, ...] = (),
    ) -> bytes:
        """AP exchange with the end-server; caches the session id.

        ``additional_restrictions`` ride in the authenticator's
        authorization-data, further restricting this session (§6.2).
        """
        credentials = self.kerberos.get_ticket(self.server)
        ap = make_ap_request(
            credentials,
            self.kerberos.clock,
            authorization_data=additional_restrictions,
        )
        reply = self._send("ap-request", ap.to_wire())
        self._session_id = reply["session_id"]
        return self._session_id

    def session_id(self) -> bytes:
        if self._session_id is None:
            self.establish_session()
        assert self._session_id is not None
        return self._session_id

    # ------------------------------------------------------------------

    def request(
        self,
        operation: str,
        target: Optional[str] = None,
        args: Optional[dict] = None,
        amounts: Optional[Dict[str, int]] = None,
        proxy: Optional[KerberosProxy] = None,
        group_proxies: Sequence[Tuple[GroupId, KerberosProxy]] = (),
        with_session: bool = True,
        anonymous: bool = False,
        use_challenge: bool = False,
    ) -> dict:
        """Send one authorized request.

        * ``args`` — the wire form of the operation's declared ``Args``
          (``SomeArgs(...).to_wire()``); none for an operation that
          declares none.
        * ``proxy`` — exercise the grantor's rights via a restricted proxy;
          possession is proven when the proxy key is held.
        * ``group_proxies`` — assert memberships to satisfy group ACL
          entries or ``for-use-by-group`` restrictions.
        * ``anonymous`` — present the proxy without any session (pure
          bearer presentation; no claimant).
        * ``use_challenge`` — fetch a server challenge and bind the
          possession proof to it (§2's challenge-based exchange), instead
          of relying on timestamp freshness alone.
        """
        payload: dict = {
            "operation": operation,
            "target": target,
            "args": args or {},
            "amounts": dict(amounts or {}),
        }
        if anonymous:
            with_session = False
        if with_session:
            payload["session_id"] = self.session_id()
        if proxy is not None:
            challenge = b""
            if use_challenge:
                challenge = self._send("get-challenge", {})["challenge"]
            payload["proxy"] = proxy.presentation(
                self.server,
                self.kerberos.clock.now(),
                operation,
                target=target,
                claimant=None if anonymous else self.principal,
                prove_possession=proxy.proxy.proxy_key is not None,
                challenge=challenge,
            )
        if group_proxies:
            payload["group_proxies"] = [
                {
                    "group": group.to_wire(),
                    "bundle": bundle.presentation(
                        self.server,
                        self.kerberos.clock.now(),
                        "assert-membership",
                        target=str(group),
                        claimant=None if anonymous else self.principal,
                        prove_possession=bundle.proxy.proxy_key is not None,
                    ),
                }
                for group, bundle in group_proxies
            ]
        try:
            return self._send("request", payload)
        except UnknownSessionError:
            # Sessions end with their tickets or a server restart;
            # re-establish once and retry.  Safe to resend verbatim: the
            # server rejects a dead session before consuming any proof or
            # challenge.
            payload["session_id"] = self.establish_session()
            return self._send("request", payload)
