"""The resilient channel: retries, breakers, and failover for every RPC.

:class:`ResilientChannel` wraps a :class:`~repro.net.network.Network` and
exposes the same surface (``send``, ``register``, taps, metrics...), so
every client and service built on it — Kerberos agents, service clients,
end servers making server-to-server calls — transparently gains:

* **retry with backoff** — transport failures (drops, lost replies,
  unknown endpoints) are retried under the
  :class:`~repro.resil.policy.RetryPolicy`, charging the simulated clock
  the attempt timeout plus an exponential, jittered backoff;
* **replay safety** — each logical request is stamped with a retry id
  (``_rid``) and resent *verbatim*, so servers with a
  :class:`~repro.resil.dedupe.ResponseCache` recognise the resend and
  return the original reply instead of re-running the handler (the same
  contract as the existing session-retry comment in
  ``services/client.py``: safe to resend verbatim);
* **circuit breakers** — consecutive transport failures open a
  per-endpoint breaker; while open, attempts skip the endpoint without
  touching the wire, and a cooldown admits a single half-open probe;
* **replica failover** — a :class:`~repro.resil.replica.ReplicaGroup`
  maps a logical principal to ordered endpoints; routing prefers the
  primary and falls to the first replica whose breaker admits traffic.

Service-level errors (``{"__error__": ...}`` payloads) are *successful*
deliveries — they are returned to the caller unretried, exactly as on a
bare network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.clock import SimulatedClock
from repro.crypto.rng import Rng
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    CircuitOpenError,
    MessageDroppedError,
    RetriesExhaustedError,
    UnknownEndpointError,
)
from repro.net.network import Network
from repro.resil.dedupe import RID_KEY
from repro.resil.policy import CircuitBreaker, RetryPolicy
from repro.resil.replica import ReplicaGroup

#: Transport failures the channel is allowed to retry.  Anything else —
#: service errors, verification failures — travels as a response payload
#: and is never seen here.
_RETRYABLE = (MessageDroppedError, UnknownEndpointError)


@dataclass
class ChannelStats:
    """Cheap counters mirrored into telemetry (kept even when telemetry
    is the null object, so chaos reports never depend on tracing)."""

    sends: int = 0
    retries: int = 0
    failovers: int = 0
    exhausted: int = 0
    breaker_opens: int = 0
    circuit_rejections: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "sends": self.sends,
            "retries": self.retries,
            "failovers": self.failovers,
            "exhausted": self.exhausted,
            "breaker_opens": self.breaker_opens,
            "circuit_rejections": self.circuit_rejections,
        }


class ResilientChannel:
    """A Network look-alike adding retry/breaker/failover semantics."""

    def __init__(
        self,
        network: Network,
        policy: Optional[RetryPolicy] = None,
        rng: Optional[Rng] = None,
        telemetry=None,
    ) -> None:
        self.network = network
        self.policy = policy or RetryPolicy()
        #: Jitter and retry ids come from our own rng, never the network's,
        #: so wrapping a network does not perturb its seeded draw order.
        self.rng = rng or Rng(seed=b"resil-channel")
        self.telemetry = (
            telemetry if telemetry is not None else network.telemetry
        )
        self.stats = ChannelStats()
        self._groups: Dict[PrincipalId, ReplicaGroup] = {}
        self._breakers: Dict[PrincipalId, CircuitBreaker] = {}

    # -- Network surface -----------------------------------------------------

    def __getattr__(self, name):
        # Everything we don't override (register, knows, taps, metrics,
        # clock, fault hooks...) is the wrapped network's.
        if name == "network":
            raise AttributeError(name)
        return getattr(self.network, name)

    # -- replicas ------------------------------------------------------------

    def add_replica(
        self, logical: PrincipalId, endpoint: PrincipalId
    ) -> None:
        """Register ``endpoint`` as a failover target for ``logical``."""
        group = self._groups.setdefault(logical, ReplicaGroup(logical))
        if not group.endpoints:
            group.add(logical)
        group.add(endpoint)

    def candidates_for(
        self, destination: PrincipalId
    ) -> Tuple[PrincipalId, ...]:
        group = self._groups.get(destination)
        if group is None:
            return (destination,)
        return group.candidates()

    def breaker_for(self, endpoint: PrincipalId) -> CircuitBreaker:
        breaker = self._breakers.get(endpoint)
        if breaker is None:
            breaker = CircuitBreaker(self.policy.breaker)
            self._breakers[endpoint] = breaker
        return breaker

    def authority_unreachable(self, principal: PrincipalId) -> bool:
        """True when every endpoint for ``principal`` has an open breaker.

        This is the degraded-mode trigger (§3.1–3.2): end servers consult
        it to decide whether a cached-credential grant should be marked
        ``degraded``.  A principal the channel has never struggled with
        reports reachable.
        """
        now = self.network.clock.now()
        candidates = self.candidates_for(principal)
        open_count = 0
        for endpoint in candidates:
            breaker = self._breakers.get(endpoint)
            if (
                breaker is not None
                and breaker.state == CircuitBreaker.OPEN
                and now < breaker.half_open_at()
            ):
                open_count += 1
        return open_count == len(candidates) and open_count > 0

    # -- clock charging --------------------------------------------------

    def _charge(self, seconds: float) -> None:
        clock = self.network.clock
        if seconds > 0 and isinstance(clock, SimulatedClock):
            clock.advance(seconds)

    # -- routing -------------------------------------------------------------

    def _route(
        self, destination: PrincipalId
    ) -> Tuple[PrincipalId, CircuitBreaker, bool]:
        """Pick the first candidate whose breaker admits traffic.

        When every breaker is open, the client has nothing to do but wait:
        on a simulated clock we advance to the earliest half-open time and
        route again; on a real clock we fail fast.
        """
        candidates = self.candidates_for(destination)
        for probe in range(2):
            for index, endpoint in enumerate(candidates):
                breaker = self.breaker_for(endpoint)
                if breaker.allow(self.network.clock.now()):
                    return endpoint, breaker, index > 0
            self.stats.circuit_rejections += 1
            if self.telemetry.enabled:
                self.telemetry.inc(
                    "resil.circuit_rejections_total",
                    help="Sends refused because every breaker was open.",
                    destination=str(destination),
                )
            wait = (
                min(
                    self.breaker_for(e).half_open_at() for e in candidates
                )
                - self.network.clock.now()
            )
            if probe > 0 or wait <= 0 or wait == float("inf") or not isinstance(
                self.network.clock, SimulatedClock
            ):
                break
            self._charge(wait)
        raise CircuitOpenError(
            f"every endpoint for {destination} has an open circuit breaker"
        )

    # -- the resilient send ----------------------------------------------

    def send(
        self,
        source: PrincipalId,
        destination: PrincipalId,
        msg_type: str,
        payload: dict,
    ) -> dict:
        """Send with retries, breaker gating, and replica failover.

        Raises:
            RetriesExhaustedError: every permitted attempt lost a message.
            CircuitOpenError: no endpoint would admit even one attempt.
        """
        policy = self.policy
        attempts = policy.attempts_for(msg_type)
        # One retry id per *logical* request; retries resend the same
        # stamped payload verbatim so servers can dedupe (replay safety).
        stamped = dict(payload)
        stamped[RID_KEY] = self.rng.bytes(16).hex()
        self.stats.sends += 1
        last_exc: Optional[Exception] = None
        with self.telemetry.span(
            "resil.send",
            destination=str(destination),
            msg_type=msg_type,
        ) as span:
            for attempt in range(attempts):
                # One child span per attempt: resends and failover legs of
                # the same logical request stay causally distinct in the
                # trace while sharing the parent's trace id.
                try:
                    with self.telemetry.span(
                        "resil.attempt",
                        logical=str(destination),
                        msg_type=msg_type,
                        attempt=attempt + 1,
                    ) as attempt_span:
                        endpoint, breaker, failover = self._route(
                            destination
                        )
                        attempt_span.set(
                            endpoint=str(endpoint), failover=failover
                        )
                        if failover:
                            self.stats.failovers += 1
                            if self.telemetry.enabled:
                                self.telemetry.inc(
                                    "resil.failovers_total",
                                    help="Sends routed to a non-primary "
                                    "replica.",
                                    logical=str(destination),
                                    endpoint=str(endpoint),
                                )
                        response = self.network.send(
                            source, endpoint, msg_type, stamped
                        )
                        attempt_span.set(outcome="ok")
                except _RETRYABLE as exc:
                    last_exc = exc
                    was_open = breaker.state == CircuitBreaker.OPEN
                    breaker.record_failure(self.network.clock.now())
                    attempt_span.set(
                        outcome="lost",
                        reason=type(exc).__name__,
                        breaker=breaker.state,
                    )
                    if (
                        breaker.state == CircuitBreaker.OPEN
                        and not was_open
                    ):
                        self.stats.breaker_opens += 1
                        if self.telemetry.enabled:
                            self.telemetry.inc(
                                "resil.breaker_transitions_total",
                                help="Circuit breaker transitions.",
                                endpoint=str(endpoint),
                                to="open",
                            )
                    # Charge the attempt timeout, and back off before the
                    # next try.
                    self._charge(policy.timeout.seconds)
                    if attempt + 1 < attempts:
                        self.stats.retries += 1
                        if self.telemetry.enabled:
                            self.telemetry.inc(
                                "resil.retries_total",
                                help="Retried sends, by message type.",
                                msg_type=msg_type,
                            )
                            self.telemetry.event(
                                "resil.retry",
                                destination=str(destination),
                                endpoint=str(endpoint),
                                msg_type=msg_type,
                                attempt=attempt + 1,
                                reason=type(exc).__name__,
                            )
                        self._charge(policy.delay(attempt, self.rng))
                    continue
                breaker.record_success()
                span.set(attempts=attempt + 1)
                return response
            span.set(attempts=attempts, exhausted=True)
        self.stats.exhausted += 1
        if self.telemetry.enabled:
            self.telemetry.inc(
                "resil.exhausted_total",
                help="Sends that failed every permitted attempt.",
                msg_type=msg_type,
            )
        raise RetriesExhaustedError(
            f"{msg_type} to {destination} failed after {attempts} "
            f"attempt(s): {last_exc}",
            attempts=attempts,
        ) from last_exc
