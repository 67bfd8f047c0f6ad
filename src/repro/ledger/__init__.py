"""Transactional ledger core for the accounting service (§4, hardened).

Every balance change on an accounting server is a multi-leg
:class:`~repro.ledger.posting.Posting` applied through a
:class:`~repro.ledger.ledger.Ledger`: all-or-nothing,
conservation-checked per posting, and idempotent under the resilience
layer's retry ids.  ``python -m repro chaos fig5-mix`` drives the whole
accounting surface with seeded op variants — including malformed
arguments, network fault injection and crash-restarts — and checks the
global conservation invariant after every unit.
"""

from repro.ledger.accounts import Account, Hold
from repro.ledger.ledger import Ledger, PostingRecord
from repro.ledger.posting import (
    AVAILABLE,
    CREDIT,
    DEBIT,
    HOLD,
    INBOUND,
    MINT,
    TRANSFER,
    Leg,
    Posting,
    credit,
    debit,
    place_hold,
    release_hold,
    usage_charge,
)

__all__ = [
    "Account",
    "Hold",
    "Ledger",
    "PostingRecord",
    "Leg",
    "Posting",
    "credit",
    "debit",
    "place_hold",
    "release_hold",
    "usage_charge",
    "AVAILABLE",
    "HOLD",
    "DEBIT",
    "CREDIT",
    "TRANSFER",
    "MINT",
    "INBOUND",
]
