"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause.  The hierarchy
mirrors the subsystems: encoding, cryptography, the proxy core, the Kerberos
substrate, services, and the network simulator.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

class EncodingError(ReproError):
    """Failure to canonically encode or decode a value."""


class DecodingError(EncodingError):
    """The byte string is not a valid canonical encoding."""


class WireSchemaError(DecodingError):
    """A wire value does not fit its declared schema
    (:mod:`repro.encoding.schema`): the message names the type, the field
    and what was wrong.  Refused, never coerced."""


# ---------------------------------------------------------------------------
# Cryptography
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class SignatureError(CryptoError):
    """A signature failed to verify."""


class IntegrityError(CryptoError):
    """Authenticated decryption failed (ciphertext or tag tampered)."""


class KeyError_(CryptoError):
    """A key is malformed or of the wrong type for the operation.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`KeyError`.
    """


# ---------------------------------------------------------------------------
# Proxy core
# ---------------------------------------------------------------------------

class ProxyError(ReproError):
    """Base class for proxy-related failures."""


class RestrictionError(ProxyError):
    """A restriction is malformed or violates additivity."""


class RestrictionViolation(ProxyError):
    """A request violates one of the restrictions carried by a proxy.

    Attributes:
        restriction_type: the type tag of the violated restriction.
        detail: human-readable explanation.
    """

    def __init__(self, restriction_type: str, detail: str = "") -> None:
        self.restriction_type = restriction_type
        self.detail = detail
        message = f"restriction violated: {restriction_type}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class ProxyVerificationError(ProxyError):
    """A proxy (or proxy chain) failed verification at the end-server."""


class ProxyExpiredError(ProxyVerificationError):
    """The proxy's expiration time has passed."""


class ReplayError(ProxyError):
    """An accept-once identifier or authenticator was presented twice."""


class DelegationError(ProxyError):
    """An attempt to cascade or delegate a proxy was invalid."""


# ---------------------------------------------------------------------------
# Kerberos substrate
# ---------------------------------------------------------------------------

class KerberosError(ReproError):
    """Base class for Kerberos substrate failures."""


class TicketError(KerberosError):
    """A ticket is invalid, expired, or not decryptable by this server."""


class AuthenticatorError(KerberosError):
    """An authenticator failed validation (skew, replay, or key mismatch)."""


class UnknownPrincipalError(KerberosError):
    """The KDC has no entry for the named principal."""


# ---------------------------------------------------------------------------
# Services
# ---------------------------------------------------------------------------

class ServiceError(ReproError):
    """Base class for service-level failures."""


class AuthorizationDenied(ServiceError):
    """The end-server's policy denied the request."""


class UnknownSessionError(ServiceError):
    """The request names a session the end-server does not hold: its
    ticket expired, or the server restarted.  Nothing was consumed, so
    the client re-establishes the session and resends (§6.2)."""


class OverloadedError(ServiceError):
    """A bounded table that must not forget what it holds is full, so the
    request that would add to it is refused; nothing was consumed, and it
    may be retried once entries expire."""


class AccountingError(ServiceError):
    """Base class for accounting failures."""


class UnknownAccountError(AccountingError):
    """No account with the given name exists on the accounting server."""


class InsufficientFundsError(AccountingError):
    """The account balance does not cover the requested transfer or hold."""


class DuplicateCheckError(AccountingError):
    """A check with a previously-seen number was presented again (§4)."""


class LedgerError(AccountingError):
    """A posting is malformed or cannot be applied to the ledger."""


class ConservationError(LedgerError):
    """A posting would create or destroy funds (debits != credits)."""


class CheckError(AccountingError):
    """A check is malformed, misdrawn, or improperly endorsed."""


# ---------------------------------------------------------------------------
# Network simulator
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class UnknownEndpointError(NetworkError):
    """No endpoint is registered under the destination name."""


class MessageDroppedError(NetworkError):
    """The fault injector dropped the message."""


class ResponseDroppedError(MessageDroppedError):
    """The fault injector dropped the *response* leg.

    The request was delivered and the handler ran — server side effects
    (ticket issuance, replay-cache registration, account mutation) have
    already happened.  Retrying after this error is the interesting case:
    a verbatim resend must be deduplicated server-side, not re-executed.
    """


class RequestTimeoutError(NetworkError):
    """The caller gave up waiting for a reply (async runtime only).

    Like :class:`ResponseDroppedError`, this is raised client-side with
    the server's fate unknown: the handler may still run (or may already
    have run) after the caller stopped waiting, so side effects must be
    presumed committed.  A verbatim resend of the same request (same
    ``_rid``) is answered from the service's response cache rather than
    re-executed — the accept-once contract of §4 survives timeouts.
    """


class NetworkClosedError(NetworkError):
    """The async runtime is shutting down and refused (or abandoned) a send.

    Raised for requests submitted after shutdown began and for requests
    still in transit (dilated-latency sleeps) when the runtime stopped.
    Requests already admitted to an inbox are delivered before workers
    exit, so this error never hides a committed server-side effect the
    caller was told about.
    """


# ---------------------------------------------------------------------------
# Resilience layer
# ---------------------------------------------------------------------------

class ResilienceError(ReproError):
    """Base class for resilience-layer failures."""


class RetriesExhaustedError(ResilienceError):
    """Every attempt permitted by the retry policy failed."""

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class CircuitOpenError(ResilienceError):
    """All candidate endpoints have open circuit breakers."""
