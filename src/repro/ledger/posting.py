"""Postings: the only way funds move (§4, hardened).

The paper's accounting server "transfers funds from the account of the
payor to the account of the payee" — one logical action that touches two
balance records.  The seed implementation expressed that as two separate
``Account.credit``/``Account.debit`` calls, so a failure between them
destroyed or duplicated funds.  A :class:`Posting` expresses the whole
movement as one value: a set of :class:`Leg`\\ s, each a debit or credit
against one account's *available* balance or one of its certified-check
*holds*, applied all-or-nothing by the :class:`~repro.ledger.ledger.Ledger`.

Conservation is machine-checked per posting: for a ``transfer`` posting,
the debits and credits of every currency must balance exactly.  Two
posting kinds are exempt, each for a stated reason:

* ``mint`` — fixture/central-bank creation of funds out of thin air
  (account seeding); the imbalance *is* the point.
* ``inbound`` — value received from a *peer* accounting server during
  cross-server clearing (Fig. 5): the matching debit was booked on the
  payor's server, inside that server's own balanced posting, so the local
  books legitimately show only the credit side.  Fig5's global
  invariant (sum over non-settlement accounts across all banks) closes
  the loop that per-server conservation cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire
from repro.errors import ConservationError, LedgerError

#: Leg sides.
DEBIT = "debit"
CREDIT = "credit"

#: Leg buckets: the spendable balance, or a named certified-check hold.
AVAILABLE = "available"
HOLD = "hold"

#: Posting kinds (see module docstring for the exemption rationale).
TRANSFER = "transfer"
MINT = "mint"
INBOUND = "inbound"

_KINDS = frozenset({TRANSFER, MINT, INBOUND})


@wire
@dataclass(frozen=True)
class Leg:
    """One side of a posting: move ``amount`` of ``currency`` at ``account``.

    ``bucket`` selects what is touched: the available balance, or — for
    certified checks — a hold.  A *credit* to the hold bucket places the
    hold (and must carry ``hold_payee``/``hold_expires_at``); a *debit*
    from it removes the hold entirely (the amount must equal the hold's
    full value — partial clears credit the remainder back explicitly, so
    the remainder is visible to the conservation check).
    """

    account: str
    side: str
    currency: str
    amount: int
    bucket: str = AVAILABLE
    hold_id: Optional[str] = None
    hold_payee: Optional[PrincipalId] = None
    hold_expires_at: Optional[float] = None

    def validate(self) -> None:
        if self.side not in (DEBIT, CREDIT):
            raise LedgerError(f"leg side must be debit/credit, got {self.side!r}")
        if self.bucket not in (AVAILABLE, HOLD):
            raise LedgerError(f"unknown leg bucket {self.bucket!r}")
        if not isinstance(self.amount, int) or isinstance(self.amount, bool):
            raise LedgerError(
                f"leg amount must be an integer, got {type(self.amount).__name__}"
            )
        if self.amount <= 0:
            raise LedgerError(
                f"leg amount must be positive, got {self.amount}"
            )
        if self.bucket == HOLD:
            if not self.hold_id:
                raise LedgerError("hold legs need a hold_id (check number)")
            if self.side == CREDIT and (
                self.hold_payee is None or self.hold_expires_at is None
            ):
                raise LedgerError(
                    "placing a hold needs hold_payee and hold_expires_at"
                )


def debit(account: str, currency: str, amount: int) -> Leg:
    """Debit ``amount`` from ``account``'s available balance."""
    return Leg(account=account, side=DEBIT, currency=currency, amount=amount)


def credit(account: str, currency: str, amount: int) -> Leg:
    """Credit ``amount`` to ``account``'s available balance."""
    return Leg(account=account, side=CREDIT, currency=currency, amount=amount)


def usage_charge(
    account: str,
    revenue_account: str,
    currency: str,
    amount: int,
    description: str = "",
) -> Posting:
    """A conserved transfer charging ``account`` for metered usage (§4).

    Usage charges are deliberately *ordinary* postings — debit the
    responsible principal, credit the server's revenue account — so the
    conservation machinery (per-posting balance, derived totals,
    :meth:`~repro.ledger.ledger.Ledger.audit_discrepancies`) checks
    billing exactly as it checks check clearing.
    """
    return Posting(
        legs=(
            debit(account, currency, amount),
            credit(revenue_account, currency, amount),
        ),
        kind=TRANSFER,
        description=description or f"usage charge {account}",
    )


def place_hold(
    account: str,
    currency: str,
    amount: int,
    check_number: str,
    payee: PrincipalId,
    expires_at: float,
) -> Leg:
    """Reserve ``amount`` under ``check_number`` (certified check, §4)."""
    return Leg(
        account=account,
        side=CREDIT,
        currency=currency,
        amount=amount,
        bucket=HOLD,
        hold_id=check_number,
        hold_payee=payee,
        hold_expires_at=expires_at,
    )


def release_hold(
    account: str, currency: str, amount: int, check_number: str
) -> Leg:
    """Remove the hold ``check_number`` (consume on clear, or cancel)."""
    return Leg(
        account=account,
        side=DEBIT,
        currency=currency,
        amount=amount,
        bucket=HOLD,
        hold_id=check_number,
    )


@wire
@dataclass(frozen=True)
class Posting:
    """An atomic multi-leg balance change, conservation-checked.

    Build with the leg helpers, then hand to
    :meth:`~repro.ledger.ledger.Ledger.post` — never mutate accounts
    directly.  ``description`` names the business operation for the
    WAL and the audit trail.
    """

    legs: Tuple[Leg, ...]
    kind: str = TRANSFER
    description: str = ""

    def validate(self) -> None:
        """Raise unless the posting is well-formed and conserves funds."""
        if self.kind not in _KINDS:
            raise LedgerError(f"unknown posting kind {self.kind!r}")
        if not self.legs:
            raise LedgerError("a posting needs at least one leg")
        for leg in self.legs:
            leg.validate()
        if self.kind == TRANSFER:
            net: Dict[str, int] = {}
            for leg in self.legs:
                delta = leg.amount if leg.side == CREDIT else -leg.amount
                net[leg.currency] = net.get(leg.currency, 0) + delta
            unbalanced = {c: d for c, d in net.items() if d != 0}
            if unbalanced:
                raise ConservationError(
                    f"posting {self.description or '<unnamed>'!r} does not "
                    f"conserve funds: net {unbalanced}"
                )
