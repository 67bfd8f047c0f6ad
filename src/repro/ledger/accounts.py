"""Account state the ledger posts against (§4).

"At a minimum, each account contains a unique name, an
access-control-list, and a collection of records, each record specifying
a currency and a balance."  :class:`Account` and :class:`Hold` are the
in-memory records; every *mutation* of them is owned by
:class:`~repro.ledger.ledger.Ledger` — service code builds postings
instead of calling :meth:`Account.credit`/:meth:`Account.debit` directly,
so the ledger can undo any partial operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.acl import AccessControlList, AclEntry, SinglePrincipal
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire
from repro.errors import AccountingError, InsufficientFundsError


@wire
@dataclass
class Hold:
    """Funds reserved for an outstanding certified check (§4)."""

    check_number: str
    currency: str
    amount: int
    payee: PrincipalId
    expires_at: float


@dataclass
class Account:
    """One account: name, ACL, balances, and holds (§4)."""

    name: str
    owner: PrincipalId
    acl: AccessControlList = field(default_factory=AccessControlList)
    balances: Dict[str, int] = field(default_factory=dict)
    holds: Dict[str, Hold] = field(default_factory=dict)

    @classmethod
    def open(cls, name: str, owner: PrincipalId) -> "Account":
        """A new, empty account whose ACL names its owner alone."""
        acl = AccessControlList(
            entries=[AclEntry(subject=SinglePrincipal(owner))]
        )
        return cls(name=name, owner=owner, acl=acl)

    def balance(self, currency: str) -> int:
        return self.balances.get(currency, 0)

    def credit(self, currency: str, amount: int) -> None:
        if amount < 0:
            raise AccountingError("credit amount must be non-negative")
        self.balances[currency] = self.balance(currency) + amount

    def debit(self, currency: str, amount: int) -> None:
        if amount < 0:
            raise AccountingError("debit amount must be non-negative")
        available = self.balance(currency)
        if available < amount:
            raise InsufficientFundsError(
                f"account {self.name}: {available} {currency} available, "
                f"{amount} required"
            )
        self.balances[currency] = available - amount

    def held_total(self, currency: str) -> int:
        return sum(
            h.amount for h in self.holds.values() if h.currency == currency
        )
