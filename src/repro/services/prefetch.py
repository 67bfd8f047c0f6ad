"""Cross-request signature prefetching for the async runtime.

When :class:`~repro.net.aio.AioNetwork` drains several queued requests
from one service's inbox, it offers the batch to the endpoint's
*prefetcher* before delivering them one at a time.  The prefetcher built
here decodes every queued proxy presentation (and, for the public-key
server, every signed envelope), collects the signature checks each
handler is about to perform via
:meth:`~repro.core.verification.ProxyVerifier.collect_signature_checks`,
and runs them all through one
:func:`repro.crypto.signature.verify_batch` call.  That is the same
per-signature work, done before the handlers run instead of inside
them: positive results land in the process-wide signature cache, so each
handler's own ``verify`` walk hits the cache instead of re-doing the
math.

It is strictly an optimization — failed checks are never cached,
malformed payloads are skipped, and every handler still runs the full
authoritative verification — so a hostile payload can waste a little
prefetch work but can never skip a check.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.presentation import PresentedProxy
from repro.core.verification import ProxyVerifier
from repro.crypto import signature as _signature
from repro.errors import ReproError

#: Extra per-payload collector (e.g. envelope signatures); returns triples.
ExtraChecks = Callable[[dict], List[tuple]]


def proxy_request_prefetcher(
    verifier: ProxyVerifier,
    extra_checks: Optional[ExtraChecks] = None,
) -> Callable[[Sequence[Tuple[str, dict]]], int]:
    """Build an :class:`AioNetwork` prefetcher over ``verifier``.

    The returned callable takes the queued batch as ``(msg_type,
    payload)`` pairs, collects signature checks from every ``"request"``
    payload's proxy bundle (both the Kerberos shape,
    ``payload["proxy"]["presented"]``, and the public-key shape where
    ``payload["proxy"]`` *is* the presentation wire), verifies them
    to warm the signature cache, and returns how many
    checks it warmed.  ``extra_checks`` may contribute additional
    triples per payload (the public-key server adds signed envelopes).
    """
    def prefetch(batch: Sequence[Tuple[str, dict]]) -> int:
        checks: List[tuple] = []
        for msg_type, payload in batch:
            if msg_type != "request" or not isinstance(payload, dict):
                continue
            if extra_checks is not None:
                try:
                    checks.extend(extra_checks(payload))
                except (ReproError, KeyError, TypeError, ValueError):
                    pass
            bundle = payload.get("proxy")
            if not isinstance(bundle, dict):
                continue
            wire = bundle.get("presented", bundle)
            if not isinstance(wire, dict):
                continue
            try:
                presented = PresentedProxy.from_wire(wire)
            except (ReproError, KeyError, TypeError, ValueError):
                continue
            checks.extend(verifier.collect_signature_checks(presented))
        _signature.verify_batch(checks)
        return len(checks)

    return prefetch
