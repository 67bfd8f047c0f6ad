"""Messages on the simulated network.

A :class:`Message` is the unit of communication: a typed request or response
whose payload is a dict of canonical-encodable values (the same value space
as :mod:`repro.encoding.canonical`, so anything that travels can also be
byte-serialized, measured, and tapped).

Errors cross the network as ``{"__error__": {"kind": ..., "detail": ...}}``
payloads; :func:`encode_error` / :func:`raise_if_error` map them to and from
the library's exception hierarchy so a client sees the same exception type
the server raised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Type

from repro import errors as _errors
from repro.encoding.canonical import encoded_size
from repro.encoding.identifiers import PrincipalId

_msg_counter = itertools.count(1)

#: Payload keys that are *envelope* metadata riding inside the payload
#: dict for convenience (the resilience layer's retry id).  Like
#: ``traceparent``, they exist so the infrastructure can correlate and
#: dedupe — a real wire protocol would carry them in a header — so they
#: are excluded from the canonical encoding whose length ``wire_size`` is:
#: byte counts are identical with resilience on or off.
ENVELOPE_KEYS = ("_rid",)


@dataclass(frozen=True)
class Message:
    """One message in flight.

    Attributes:
        source: sending principal.
        destination: receiving principal.
        msg_type: operation discriminator, e.g. ``"authorize"`` or
            ``"deposit-check"``.
        payload: dict of canonical-encodable values.
        msg_id: unique id for tracing; responses carry ``in_reply_to``.
        traceparent: W3C-style trace context stamped by the sending
            network's telemetry.  Envelope metadata like ``msg_id`` — it
            does not enter the canonical wire encoding, so byte counts
            are identical with telemetry on or off, and dedupe keys
            (which hash the payload) are unaffected by resends carrying
            fresh span ids.
    """

    source: PrincipalId
    destination: PrincipalId
    msg_type: str
    payload: dict
    msg_id: int = field(default_factory=lambda: next(_msg_counter))
    in_reply_to: Optional[int] = None
    traceparent: Optional[str] = None

    def wire_size(self) -> int:
        """Bytes this message would occupy on a real wire: the length of
        the canonical encoding of ``[source, destination, msg_type,
        fields]``.

        Sized by :func:`~repro.encoding.canonical.encoded_size`, which
        adds up the encoding's lengths without building it, and memoized
        (messages are frozen), so a message observed by several network
        taps is sized once.
        """
        cached = self.__dict__.get("_wire_size")
        if cached is not None:
            return cached
        size = encoded_size(
            [
                self.source.to_wire(),
                self.destination.to_wire(),
                self.msg_type,
                self.fields,
            ]
        )
        object.__setattr__(self, "_wire_size", size)
        return size

    @property
    def fields(self) -> dict:
        """The payload without its :data:`ENVELOPE_KEYS`: what goes on the
        wire, and what a declared message type decodes."""
        payload = self.payload
        if any(key in payload for key in ENVELOPE_KEYS):
            return {k: v for k, v in payload.items() if k not in ENVELOPE_KEYS}
        return payload

    def reply(self, payload: dict, msg_type: Optional[str] = None) -> "Message":
        """Build the response message for this request."""
        return Message(
            source=self.destination,
            destination=self.source,
            msg_type=msg_type or f"{self.msg_type}-reply",
            payload=payload,
            in_reply_to=self.msg_id,
            traceparent=self.traceparent,
        )


# ---------------------------------------------------------------------------
# Error transport
# ---------------------------------------------------------------------------

_ERROR_KEY = "__error__"

#: Exceptions that may cross the wire, by stable kind tag.
_WIRE_ERRORS: Dict[str, Type[Exception]] = {
    "authorization-denied": _errors.AuthorizationDenied,
    "unknown-session": _errors.UnknownSessionError,
    "overloaded": _errors.OverloadedError,
    "proxy-verification": _errors.ProxyVerificationError,
    "proxy-expired": _errors.ProxyExpiredError,
    "restriction-violation": _errors.RestrictionViolation,
    "replay": _errors.ReplayError,
    "unknown-account": _errors.UnknownAccountError,
    "insufficient-funds": _errors.InsufficientFundsError,
    "duplicate-check": _errors.DuplicateCheckError,
    "check-error": _errors.CheckError,
    "accounting": _errors.AccountingError,
    "ticket": _errors.TicketError,
    "authenticator": _errors.AuthenticatorError,
    "unknown-principal": _errors.UnknownPrincipalError,
    "kerberos": _errors.KerberosError,
    "service": _errors.ServiceError,
    "delegation": _errors.DelegationError,
    "malformed": _errors.WireSchemaError,
}
_KIND_BY_TYPE = {cls: kind for kind, cls in _WIRE_ERRORS.items()}


def encode_error(exc: Exception) -> dict:
    """Encode an exception as an error payload."""
    kind = None
    for cls in type(exc).__mro__:
        if cls in _KIND_BY_TYPE:
            kind = _KIND_BY_TYPE[cls]
            break
    if kind is None:
        kind = "service"
    if isinstance(exc, _errors.RestrictionViolation):
        detail = {
            "restriction_type": exc.restriction_type,
            "detail": exc.detail,
        }
    else:
        detail = {"detail": str(exc)}
    return {_ERROR_KEY: {"kind": kind, **detail}}


def is_error(payload: dict) -> bool:
    return _ERROR_KEY in payload


def raise_if_error(payload: dict) -> dict:
    """Re-raise a transported error, or return the payload unchanged."""
    if not is_error(payload):
        return payload
    info = payload[_ERROR_KEY]
    kind = info.get("kind", "service")
    cls = _WIRE_ERRORS.get(kind, _errors.ServiceError)
    if cls is _errors.RestrictionViolation:
        raise _errors.RestrictionViolation(
            info.get("restriction_type", "unknown"), info.get("detail", "")
        )
    raise cls(info.get("detail", "remote error"))
