"""A name server supplying Fig. 3's message 0.

"Message 0, the dashed line in the figure, represents a priori knowledge
about the authorization credentials needed for server S.  This information
might be specified as part of the application protocol, retrieved from a
name server, or obtained from the end-server directly."

This directory maps an end-server to the authorization/group servers whose
proxies it honours, plus the public-key material clients need in the
public-key scheme ("obtained from an authentication/name server", §6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.clock import Clock
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire
from repro.errors import ServiceError
from repro.net.message import Message
from repro.net.network import Network
from repro.net.service import Service


@wire
@dataclass(frozen=True)
class LookupArgs:
    server: PrincipalId  # whose requirements message 0 asks for


class NameServer(Service):
    """Directory of per-server authorization requirements and keys."""

    def __init__(
        self,
        principal: PrincipalId,
        network: Network,
        clock: Clock,
        telemetry=None,
    ) -> None:
        super().__init__(principal, network, clock, telemetry=telemetry)
        self._records: Dict[PrincipalId, dict] = {}

    def publish(
        self,
        server: PrincipalId,
        authorization_server: Optional[PrincipalId] = None,
        group_servers: Optional[list] = None,
        public_key: Optional[dict] = None,
    ) -> None:
        """Record what credentials ``server`` expects (registrar side)."""
        self._records[server] = {
            "authorization_server": (
                None
                if authorization_server is None
                else authorization_server.to_wire()
            ),
            "group_servers": [
                g.to_wire() for g in (group_servers or [])
            ],
            "public_key": public_key,
        }

    def op_lookup(self, message: Message) -> dict:
        """Message 0: what does this end-server require?"""
        server = LookupArgs.from_wire(message.fields).server
        record = self._records.get(server)
        self.telemetry.inc(
            "nameserver_lookups_total",
            help="Directory lookups (Fig. 3 message 0), by outcome.",
            outcome="hit" if record is not None else "miss",
        )
        if record is None:
            raise ServiceError(f"no directory record for {server}")
        return dict(record)


def lookup(
    network: Network,
    client: PrincipalId,
    nameserver: PrincipalId,
    server: PrincipalId,
) -> dict:
    """Client-side message 0."""
    from repro.net.message import raise_if_error

    return raise_if_error(
        network.send(
            client, nameserver, "lookup", LookupArgs(server).to_wire()
        )
    )
