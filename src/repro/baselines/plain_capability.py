"""Traditional network capabilities: bearer tokens sent in the clear.

§3.1 distinguishes proxy-based capabilities from traditional ones: "in
presenting a capability (restricted proxy) to the end-server, the bearer
does not send the entire proxy across the network ...  The result is that an
attacker can not obtain such a capability by tapping the network to observe
the presentation of capabilities by legitimate users."

This baseline is the *traditional* design: the capability IS a secret byte
string, and presenting it means transmitting it.  Benchmark C1 taps the
network during a legitimate presentation and then replays the captured
token — successfully here, unsuccessfully against restricted proxies.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.clock import Clock
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.encoding.identifiers import PrincipalId
from repro.errors import AuthorizationDenied, ServiceError
from repro.net.message import Message
from repro.net.network import Network
from repro.net.service import Service


class PlainCapabilityServer(Service):
    """Issues and honours secret-token capabilities."""

    def __init__(
        self,
        principal: PrincipalId,
        network: Network,
        clock: Clock,
        rng: Optional[Rng] = None,
    ) -> None:
        super().__init__(principal, network, clock)
        self._rng = rng or DEFAULT_RNG
        #: token hex -> (operations, target, expiry)
        self._tokens: Dict[str, Tuple[Tuple[str, ...], str, float]] = {}
        self._operations: Dict[str, Callable] = {}
        #: who may mint capabilities (the resource owners)
        self._owners: set = set()

    def add_owner(self, principal: PrincipalId) -> None:
        self._owners.add(principal)

    def register_operation(self, name: str, handler: Callable) -> None:
        self._operations[name] = handler

    def op_issue(self, message: Message) -> dict:
        """Mint a capability token for (operations, target)."""
        if message.source not in self._owners:
            raise AuthorizationDenied(
                f"{message.source} may not issue capabilities"
            )
        token = self._rng.bytes(16).hex()
        self._tokens[token] = (
            tuple(message.payload["operations"]),
            message.payload["target"],
            float(message.payload.get("expires_at") or float("inf")),
        )
        return {"token": token}

    def op_request(self, message: Message) -> dict:
        """Honour a presented token — whoever presents it (the flaw)."""
        payload = message.payload
        token = payload["token"]
        entry = self._tokens.get(token)
        if entry is None:
            raise AuthorizationDenied("unknown capability")
        operations, target, expires_at = entry
        if expires_at < self.clock.now():
            del self._tokens[token]
            raise AuthorizationDenied("capability expired")
        if payload["operation"] not in operations:
            raise AuthorizationDenied(
                f"capability does not permit {payload['operation']!r}"
            )
        if payload.get("target") != target:
            raise AuthorizationDenied("capability is for another object")
        handler = self._operations.get(payload["operation"])
        if handler is None:
            raise ServiceError(f"no operation {payload['operation']!r}")
        return handler(message.source, payload)
