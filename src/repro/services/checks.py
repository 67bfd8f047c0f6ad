"""Checks: numbered delegate proxies that move resources (§4, Fig. 5).

"A principal authorized to debit an account (the payor) issues a numbered
delegate proxy (a check) authorizing the payee to transfer funds from the
payor's account to that of the payee."

A check's proxy restrictions encode exactly the paper's fields:

* ``accept-once(check number)`` — §7.7: "a real life example of such an
  identifier is a check number";
* ``quota(currency, amount)`` — "this check limits the resources that can be
  transferred, and the payee transfers up to that limit";
* ``grantee(payee)`` — made payable to the payee (a *delegate* proxy);
* ``authorized(debit payor-account)`` — what the proxy permits.

Endorsement (:func:`repro.kerberos.proxy_support.endorse`) is the delegate
cascade of §3.4: "the payee grants its own accounting server a cascaded
proxy (endorsement) for the check allowing the accounting server to collect
the resources on its behalf" — each endorsement adds an identity-signed link
and thus an audit trail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.restrictions import (
    AcceptOnce,
    Authorized,
    AuthorizedEntry,
    Grantee,
    Quota,
)
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.encoding.identifiers import AccountId, PrincipalId
from repro.encoding.schema import wire
from repro.errors import CheckError
from repro.kerberos.proxy_support import KerberosProxy, grant_via_credentials
from repro.kerberos.ticket import Credentials

#: Operation a check authorizes and the target-name prefix for accounts.
DEBIT_OPERATION = "debit"
ACCOUNT_TARGET_PREFIX = "account:"


def account_target(account: AccountId) -> str:
    """The end-server object name for an account (§7.5: server-interpreted)."""
    return f"{ACCOUNT_TARGET_PREFIX}{account.account}"


@wire
@dataclass(frozen=True)
class Check:
    """A drawn check: metadata plus the underlying restricted proxy.

    The proxy is rooted at the payor and drawn on (i.e. its end-server is)
    the payor's accounting server.
    """

    number: str
    payor: PrincipalId
    payor_account: AccountId
    payee: PrincipalId
    currency: str
    amount: int
    expires_at: float
    bundle: KerberosProxy

    @property
    def drawn_on(self) -> PrincipalId:
        """The accounting server holding the payor's account."""
        return self.payor_account.server


def draw_check(
    payor_credentials: Credentials,
    payor_account: AccountId,
    payee: PrincipalId,
    currency: str,
    amount: int,
    issued_at: float,
    expires_at: float,
    number: Optional[str] = None,
    rng: Optional[Rng] = None,
) -> Check:
    """Draw a check on the payor's accounting server (Fig. 5 message 1).

    ``payor_credentials`` must be for the account's server — the check
    certificate is signed under that session key, so only that server can
    validate it (exactly the paper's conventional-crypto single-end-server
    property, §6.3).
    """
    if amount <= 0:
        raise CheckError("check amount must be positive")
    if payor_credentials.server != payor_account.server:
        raise CheckError(
            f"credentials are for {payor_credentials.server}, but the "
            f"account lives on {payor_account.server}"
        )
    rng = rng or DEFAULT_RNG
    if number is None:
        number = rng.bytes(8).hex()
    restrictions = (
        AcceptOnce(identifier=number),
        Quota(currency=currency, limit=amount),
        Grantee(principals=(payee,)),
        Authorized(
            entries=(
                AuthorizedEntry(
                    target=account_target(payor_account),
                    operations=(DEBIT_OPERATION,),
                ),
            )
        ),
    )
    bundle = grant_via_credentials(
        payor_credentials,
        restrictions,
        issued_at=issued_at,
        expires_at=expires_at,
        rng=rng,
    )
    return Check(
        number=number,
        payor=payor_credentials.client,
        payor_account=payor_account,
        payee=payee,
        currency=currency,
        amount=amount,
        expires_at=min(expires_at, payor_credentials.expires_at),
        bundle=bundle,
    )
