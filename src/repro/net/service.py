"""Base class for network services.

A :class:`Service` registers a principal on the network and dispatches
incoming messages to ``op_<msg_type>`` methods (hyphens become underscores:
``"deposit-check"`` → ``op_deposit_check``).  Library exceptions raised by a
handler are converted to error payloads and re-raised client-side by
:func:`repro.net.message.raise_if_error`, so services and clients share the
exception vocabulary of :mod:`repro.errors`.
"""

from __future__ import annotations

from typing import Optional

from repro.clock import Clock
from repro.encoding.identifiers import PrincipalId
from repro.errors import ReproError, ServiceError
from repro.net.message import Message, encode_error
from repro.net.network import Network
from repro.obs.telemetry import Telemetry


class Service:
    """A principal with a message handler on the simulated network.

    ``telemetry`` defaults to the network's, so wiring a
    :class:`~repro.obs.telemetry.Telemetry` into the fabric instruments
    every service built on it; pass one explicitly to override.
    """

    def __init__(
        self,
        principal: PrincipalId,
        network: Network,
        clock: Clock,
        telemetry: Optional[Telemetry] = None,
        dedupe=None,
        endpoint: Optional[PrincipalId] = None,
    ) -> None:
        """``endpoint`` is the name registered on the network (defaults to
        ``principal``) — replicas of a logical service register under their
        own endpoint names while serving in the logical principal's name.
        ``dedupe`` (a :class:`~repro.resil.dedupe.ResponseCache`) makes
        retried requests exactly-once: a byte-identical resend of a request
        the service already answered returns the cached reply instead of
        re-running the handler."""
        self.principal = principal
        self.network = network
        self.clock = clock
        self.telemetry = (
            telemetry if telemetry is not None else network.telemetry
        )
        self.dedupe = dedupe
        self.endpoint = endpoint if endpoint is not None else principal
        network.register(self.endpoint, self.handle)

    def handle(self, message: Message) -> dict:
        """Dispatch to ``op_<msg_type>``; map library errors to payloads."""
        # ``remote_context`` only matters when this service's tracer is not
        # the sender's (e.g. another realm in a federation): with no local
        # parent on the stack, the handler span adopts the wire trace id.
        with self.telemetry.span(
            "rpc.handle",
            remote_context=message.traceparent,
            service=str(self.principal),
            msg_type=message.msg_type,
        ) as span:
            dedupe_key = None
            if self.dedupe is not None:
                dedupe_key = self.dedupe.key_of(message)
            if dedupe_key is not None:
                cached = self.dedupe.get(dedupe_key)
                if cached is not None:
                    # A resend of a request whose reply was lost: the
                    # handler's side effects are already committed, so we
                    # return the original reply (error payloads included).
                    span.set(deduped=True)
                    if self.telemetry.enabled:
                        self.telemetry.inc(
                            "resil.deduped_total",
                            help="Resent requests answered from the "
                            "response cache.",
                            service=str(self.principal),
                            msg_type=message.msg_type,
                        )
                    return cached
            usage = self.telemetry.usage
            if usage is not None:
                # Bill the dispatch's *self* CPU time to the principal
                # whose request opened this trace (nested hops subtract).
                with usage.handler_timing(
                    span.trace_id, str(self.principal), message.msg_type
                ):
                    response = self._dispatch(message, span)
            else:
                response = self._dispatch(message, span)
            if dedupe_key is not None:
                self.dedupe.put(dedupe_key, response)
            return response

    def _dispatch(self, message: Message, span) -> dict:
        method_name = "op_" + message.msg_type.replace("-", "_")
        method = getattr(self, method_name, None)
        if method is None:
            return encode_error(
                ServiceError(
                    f"{self.principal} does not handle {message.msg_type!r}"
                )
            )
        try:
            return method(message)
        except ReproError as exc:
            # Transported to the client as an error payload; mark the span
            # so error replies are visible in traces without parsing bodies.
            span.set(error_reply=f"{type(exc).__name__}: {exc}")
            return encode_error(exc)
        except (
            LookupError,
            ArithmeticError,
            TypeError,
            ValueError,
            AttributeError,
        ) as exc:
            # Malformed payloads must produce an error reply, not crash
            # the dispatch loop: everything that arrives is untrusted.
            # Every declared message refuses its own bad values (a
            # ``WireSchemaError``, above); what still lands here is a
            # field of the one undeclared message, the ``request``
            # envelope (a missing ``operation``, a ``group_proxies``
            # item that is not a dict), or a handler bug.
            span.set(error_reply=f"malformed: {type(exc).__name__}: {exc}")
            return encode_error(
                ServiceError(
                    f"malformed {message.msg_type!r} request: "
                    f"{type(exc).__name__}: {exc}"
                )
            )
