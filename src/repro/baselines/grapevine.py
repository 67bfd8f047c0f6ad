"""Grapevine-style registration-server group lookup (§5 comparator).

"Some of the earliest work in the area is found in Grapevine where
end-servers query registration servers to determine whether a client is a
member of a particular group ...  In both approaches, the authorization
decision remains with the local system.  With the distributed authorization
and group services supported by restricted proxies, the authorization
decision can be delegated to a remote server."

The measurable difference (benchmark C2): here the end-server pays one
registry round-trip *per request*; with group proxies the client fetches a
proxy once and the end-server verifies it offline for the proxy lifetime.
"""

from __future__ import annotations

from typing import Callable, Dict, Set

from repro.clock import Clock
from repro.encoding.identifiers import PrincipalId
from repro.errors import AuthorizationDenied, ServiceError
from repro.net.message import Message, raise_if_error
from repro.net.network import Network
from repro.net.service import Service


class GrapevineRegistry(Service):
    """The registration server: authoritative group membership."""

    def __init__(
        self, principal: PrincipalId, network: Network, clock: Clock
    ) -> None:
        super().__init__(principal, network, clock)
        self._groups: Dict[str, Set[PrincipalId]] = {}

    def create_group(self, name: str, members=()) -> None:
        self._groups[name] = set(members)

    def remove_member(self, name: str, member: PrincipalId) -> None:
        self._groups.get(name, set()).discard(member)

    def op_is_member(self, message: Message) -> dict:
        group = message.payload["group"]
        member = PrincipalId.from_wire(message.payload["member"])
        if group not in self._groups:
            raise ServiceError(f"no group {group}")
        return {"member": member in self._groups[group]}


class GrapevineEndServer(Service):
    """Authorizes by group, asking the registry on every request."""

    def __init__(
        self,
        principal: PrincipalId,
        network: Network,
        clock: Clock,
        registry: PrincipalId,
        required_group: str,
    ) -> None:
        super().__init__(principal, network, clock)
        self.registry = registry
        self.required_group = required_group
        self._operations: Dict[str, Callable] = {}

    def register_operation(self, name: str, handler: Callable) -> None:
        self._operations[name] = handler

    def op_request(self, message: Message) -> dict:
        # The per-request online lookup Grapevine/YP-style systems pay.
        reply = raise_if_error(
            self.network.send(
                self.principal,
                self.registry,
                "is-member",
                {
                    "group": self.required_group,
                    "member": message.source.to_wire(),
                },
            )
        )
        if not reply["member"]:
            raise AuthorizationDenied(
                f"{message.source} is not in {self.required_group}"
            )
        handler = self._operations.get(message.payload["operation"])
        if handler is None:
            raise ServiceError(
                f"no operation {message.payload['operation']!r}"
            )
        return handler(message.source, message.payload)
