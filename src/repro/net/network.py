"""The simulated network.

A deterministic message-passing fabric with two delivery modes:

* **Endpoints** register under their principal id and expose a single
  ``handle(message) -> payload`` callable (see
  :class:`~repro.services.base.Service`).
* **Delivery** is request/response RPC — the shape of every protocol in
  the paper.  This class delivers synchronously on the caller's thread
  (the seeded, fully deterministic mode every parity harness runs on);
  :class:`~repro.net.aio.AioNetwork` subclasses it to deliver through
  per-endpoint asyncio inbox queues so many client threads can have
  requests in flight at once (see ``docs/scaling.md``).  Each hop
  advances the injected simulated clock by a sampled latency, so
  protocol latency is a measured consequence of message count; under a
  wall clock, ``time_dilation`` optionally converts those sampled
  latencies into real sleeps for load experiments.
* **Taps** observe every message (the eavesdropper attacker of §3.1 is a
  tap), seeing exactly the bytes a wire would carry.
* **Fault injection** can drop messages by destination (blackholes —
  permanent or timed partitions) or probability, independently on the
  request and response legs, for failure-path tests.  A response-leg drop
  happens *after* the handler ran, so server side effects are committed —
  the case that forces retries to be replay-safe.  Drops are attributed
  per (source, destination) pair and per message type.
* **Telemetry** (optional): every ``send`` opens a ``net.send`` span and
  feeds the ``network_messages_total`` / ``network_bytes_total`` counters.
  The span records both legs' metered sizes (``request_bytes``,
  ``response_bytes``), which is what the usage meter bills.
  The default is the no-op telemetry, which changes nothing.

All randomness (latency jitter, drops) comes from the injected
:class:`~repro.crypto.rng.Rng`, so a seeded run is fully reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.clock import Clock, SimulatedClock
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    MessageDroppedError,
    ResponseDroppedError,
    UnknownEndpointError,
)
from repro.net.message import Message
from repro.net.metrics import NetworkMetrics
from repro.obs.telemetry import NO_TELEMETRY, Telemetry

Handler = Callable[[Message], dict]
Tap = Callable[[Message], None]


@dataclass(frozen=True)
class LatencyModel:
    """Per-hop latency: ``base`` seconds plus uniform jitter up to ``jitter``."""

    base: float = 0.001
    jitter: float = 0.0005

    def sample(self, rng: Rng) -> float:
        if self.jitter <= 0:
            return self.base
        return self.base + (rng.int_below(10_000) / 10_000.0) * self.jitter


class Network:
    """Synchronous simulated network with metering, taps, and fault injection."""

    def __init__(
        self,
        clock: Clock,
        latency: Optional[LatencyModel] = None,
        rng: Optional[Rng] = None,
        telemetry: Optional[Telemetry] = None,
        time_dilation: float = 0.0,
    ) -> None:
        """``time_dilation`` scales sampled per-hop latencies into *real*
        sleeps when the network runs on a wall clock (it is ignored under a
        :class:`~repro.clock.SimulatedClock`, whose time is logical).  The
        default of ``0.0`` keeps seeded runs byte-identical; load
        experiments set it to make latency hiding measurable — see
        ``docs/scaling.md``."""
        self.clock = clock
        self.latency = latency or LatencyModel()
        self.rng = rng or DEFAULT_RNG
        self.time_dilation = float(time_dilation)
        self.metrics = NetworkMetrics()
        self.telemetry = telemetry if telemetry is not None else NO_TELEMETRY
        self._endpoints: Dict[PrincipalId, Handler] = {}
        self._taps: List[Tap] = []
        self._drop_probability = 0.0
        self._response_drop_probability = 0.0
        #: Partitioned principals -> (start, end) of the outage window
        #: (``end = inf`` means until healed).
        self._blackholes: Dict[PrincipalId, tuple] = {}

    # -- topology -----------------------------------------------------------

    def register(self, principal: PrincipalId, handler: Handler) -> None:
        """Attach an endpoint; replaces any previous registration."""
        self._endpoints[principal] = handler

    def unregister(self, principal: PrincipalId) -> None:
        self._endpoints.pop(principal, None)

    def knows(self, principal: PrincipalId) -> bool:
        return principal in self._endpoints

    # -- attacker / fault hooks ----------------------------------------------

    def add_tap(self, tap: Tap) -> None:
        """Attach a passive observer of all traffic (e.g. an eavesdropper)."""
        self._taps.append(tap)

    def remove_tap(self, tap: Tap) -> None:
        self._taps.remove(tap)

    def set_drop_probability(
        self, probability: float, leg: str = "request"
    ) -> None:
        """Drop each message on ``leg`` with this probability.

        ``leg`` is ``"request"`` (default, the historical behavior),
        ``"response"`` (the reply is lost *after* the handler ran and its
        side effects committed — raised as :class:`ResponseDroppedError`),
        or ``"both"``.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if leg not in ("request", "response", "both"):
            raise ValueError("leg must be 'request', 'response', or 'both'")
        if leg in ("request", "both"):
            self._drop_probability = probability
        if leg in ("response", "both"):
            self._response_drop_probability = probability

    def blackhole(
        self,
        principal: PrincipalId,
        until: Optional[float] = None,
        since: Optional[float] = None,
    ) -> None:
        """Drop everything sent to ``principal`` (partition).

        ``until`` bounds the outage on the network clock; ``None`` means
        the partition lasts until :meth:`heal`.  ``since`` schedules the
        window's start (default: effective immediately) — a window opening
        between a request and its reply loses the reply only.
        """
        self._blackholes[principal] = (
            float("-inf") if since is None else float(since),
            float("inf") if until is None else float(until),
        )

    def heal(self, principal: PrincipalId) -> None:
        self._blackholes.pop(principal, None)

    def _partitioned(self, principal: PrincipalId) -> bool:
        """True when ``principal`` is inside an active blackhole window."""
        window = self._blackholes.get(principal)
        if window is None:
            return False
        since, until = window
        now = self.clock.now()
        if until <= now:
            del self._blackholes[principal]
            return False
        return since <= now

    # -- delivery ------------------------------------------------------------

    def _advance(self) -> None:
        if isinstance(self.clock, SimulatedClock):
            self.clock.advance(self.latency.sample(self.rng))
        elif self.time_dilation > 0.0:
            # Wall-clock mode: the hop's sampled latency becomes a real
            # sleep, serialized on the caller's thread.  The async runtime
            # overrides this to await transit instead of blocking.
            time.sleep(self.latency.sample(self.rng) * self.time_dilation)

    def _observe(self, message: Message) -> int:
        """Meter one wire message; returns its wire size."""
        size = message.wire_size()
        self.metrics.record(
            str(message.source),
            str(message.destination),
            message.msg_type,
            size,
        )
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.inc(
                "network_messages_total",
                help="Wire messages carried, by message type.",
                msg_type=message.msg_type,
            )
            telemetry.inc(
                "network_bytes_total",
                size,
                help="Wire bytes carried, by message type.",
                msg_type=message.msg_type,
            )
        for tap in self._taps:
            tap(message)
        return size

    def _drop(
        self,
        message: Message,
        reason: str,
        span,
        detail: str,
        error=MessageDroppedError,
    ) -> None:
        """Record an attributed drop (metrics + telemetry), then raise."""
        self.metrics.record_drop(
            str(message.source), str(message.destination), message.msg_type
        )
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.inc(
                "network_dropped_total",
                help="Messages eaten by fault injection, by reason and type.",
                reason=reason,
                msg_type=message.msg_type,
            )
        span.set(dropped=True, drop_reason=reason)
        raise error(detail)

    def send(
        self,
        source: PrincipalId,
        destination: PrincipalId,
        msg_type: str,
        payload: dict,
    ) -> dict:
        """Send a request and return the response payload.

        Raises:
            UnknownEndpointError: nothing registered at ``destination``.
            MessageDroppedError: the fault injector ate the request.
        """
        with self.telemetry.span(
            "net.send",
            source=str(source),
            destination=str(destination),
            msg_type=msg_type,
        ) as span:
            # The message is built inside the span so the stamped context
            # names the net.send span itself: the receiver's rpc.handle
            # span joins this send as its causal parent.
            message = Message(
                source=source,
                destination=destination,
                msg_type=msg_type,
                payload=payload,
                traceparent=self.telemetry.wire_context(),
            )
            request_size = self._observe(message)
            span.set(request_bytes=request_size)
            if self._partitioned(destination):
                self._drop(
                    message,
                    "blackhole",
                    span,
                    f"{destination} is partitioned away",
                )
            if self._drop_probability > 0.0:
                draw = self.rng.int_below(1_000_000) / 1_000_000.0
                if draw < self._drop_probability:
                    self._drop(
                        message,
                        "random",
                        span,
                        "message dropped by fault injector",
                    )
            handler = self._endpoints.get(destination)
            if handler is None:
                raise UnknownEndpointError(f"no endpoint for {destination}")
            self._advance()
            response_payload = handler(message)
            response = message.reply(response_payload)
            response_size = self._observe(response)
            self._advance()
            span.set(response_bytes=response_size, messages=2)
            # Response-leg faults fire after the handler: its side effects
            # are committed, only the reply is lost.
            if self._partitioned(destination) or self._partitioned(
                response.destination
            ):
                self._drop(
                    response,
                    "blackhole",
                    span,
                    f"reply from {destination} lost to a partition",
                    error=ResponseDroppedError,
                )
            if self._response_drop_probability > 0.0:
                draw = self.rng.int_below(1_000_000) / 1_000_000.0
                if draw < self._response_drop_probability:
                    self._drop(
                        response,
                        "random-response",
                        span,
                        "response dropped by fault injector",
                        error=ResponseDroppedError,
                    )
            return response.payload
