"""Accounting servers: multi-currency accounts, checks, and clearing (§4).

"Accounts are maintained on accounting servers.  At a minimum, each account
contains a unique name, an access-control-list, and a collection of records,
each record specifying a currency and a balance.  Accounting servers support
multiple currencies, either monetary (dollars, pounds, or yen) or resource
specific (disk blocks, cpu cycles, or printer pages)."

Implemented flows:

* **Direct clearing** — a check drawn on *this* server is presented by the
  payee (claimant satisfies the grantee restriction) and funds move
  immediately.
* **Cross-server clearing (Fig. 5)** — the payee deposits with its own
  server (message E1 carries the payee's endorsement); that server marks the
  credit *uncollected*, adds its own endorsement, and forwards the check
  toward the payor's server (message E2); each hop is one more delegate link
  in the cascade, and the payor's server verifies the whole chain offline.
  The presenting server is paid into a settlement account; each hop pays its
  predecessor; finally the payee's uncollected mark becomes real funds.
* **Duplicate rejection** — "once a check is paid, the accounting server
  keeps track of the check number until the expiration time on the check";
  the ``accept-once`` machinery enforces this, transactionally so bounced
  checks stay cashable.
* **Certified checks** — the payor's server places a hold and issues an
  authorization proxy "certifying that the client has sufficient resources
  to cover the check"; when the check clears, payment comes from the hold.
* **Quota transfers** — "quotas are implemented by transferring funds ...
  out of an account when the resource is allocated and transferring the
  funds back when the resource is released": ``transfer`` moves funds
  between accounts under the account ACL.

Every balance change goes through the server's
:class:`~repro.ledger.ledger.Ledger` as a multi-leg posting: all-or-nothing
with journal rollback, conservation-checked per posting, and idempotent
under the resilience layer's retry ids.  Each RPC runs inside one ledger
transaction that also encloses the accept-once registry transaction, so
check-number consumption, hold lifecycle, and settlement credits commit or
abort together — a failure mid-operation can no longer destroy or
duplicate funds (see ``docs/accounting.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.acl import AccessControlList
from repro.bounded import BoundedStore
from repro.clock import Clock
from repro.core.restrictions import (
    AcceptOnce,
    Authorized,
    AuthorizedEntry,
    IssuedFor,
)
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.encoding.identifiers import AccountId, PrincipalId
from repro.encoding.schema import wire
from repro.errors import (
    AccountingError,
    AuthorizationDenied,
    CheckError,
    DecodingError,
    ServiceError,
    UnknownAccountError,
)
from repro.kerberos.client import KerberosClient
from repro.kerberos.proxy_support import (
    KerberosProxy,
    endorse,
    grant_via_credentials,
)
from repro.ledger import (
    INBOUND,
    MINT,
    Account,
    Hold,
    Ledger,
    Posting,
    place_hold,
    release_hold,
)
from repro.ledger import credit as credit_leg
from repro.ledger import debit as debit_leg
from repro.net.message import Message
from repro.net.network import Network
from repro.services.authorization import (
    open_proxy_delivery,
    seal_proxy_delivery,
)
from repro.services.checks import (
    ACCOUNT_TARGET_PREFIX,
    DEBIT_OPERATION,
    Check,
    account_target,
    draw_check,
)
from repro.services.client import ServiceClient
from repro.services.endserver import AuthorizedRequest, EndServer

#: Prefix for auto-created inter-server settlement accounts.
SETTLEMENT_PREFIX = "settlement:"

#: How many peer banks keep an open session here (see
#: ``AccountingServer.peer``): a deposit names its payor's server, so the
#: table is capped, and an evicted peer just re-establishes.
MAX_PEERS = 64

#: The server-owned account that backs cashier's checks (§4: "cashier's
#: checks are also easily supported by this accounting model" — the paper
#: leaves the details as an exercise; this is our answer).
CASHIER_ACCOUNT = "cashier"

__all__ = [
    "Account",
    "AccountingClient",
    "AccountingServer",
    "CASHIER_ACCOUNT",
    "Hold",
    "SETTLEMENT_PREFIX",
    "non_settlement_totals",
]


def non_settlement_totals(
    servers: Iterable["AccountingServer"],
) -> Dict[str, int]:
    """Available + held funds over every non-settlement account.

    Settlement accounts are excluded because they are local mirrors of
    claims whose matching entry lives on a *peer* server; the cashier
    account is included — funds backing outstanding cashier's checks are
    still funds.
    """
    totals: Dict[str, int] = {}
    for server in servers:
        for name, account in server.accounts.items():
            if name.startswith(SETTLEMENT_PREFIX):
                continue
            for currency, amount in account.balances.items():
                totals[currency] = totals.get(currency, 0) + amount
            for hold in account.holds.values():
                totals[hold.currency] = (
                    totals.get(hold.currency, 0) + hold.amount
                )
    return {c: v for c, v in totals.items() if v}


# ---------------------------------------------------------------------------
# Declared operation arguments, decoded before any ledger work
# ---------------------------------------------------------------------------

#: Amounts are positive integers.  Negative amounts used to slip through
#: to the certified-hold path, which deleted the hold and over-credited the
#: remainder before the final credit raised (partial-state corruption).
_POSITIVE = {"min": 1}


@wire
@dataclass(frozen=True)
class _NoArgs:
    """The target names the account."""


@wire
@dataclass(frozen=True)
class _Payment:
    currency: str = field(metadata={"min_len": 1})
    amount: int = field(metadata=_POSITIVE)


@wire
@dataclass(frozen=True)
class _TransferArgs(_Payment):
    to: str


@wire
@dataclass(frozen=True)
class _DebitArgs(_Payment):
    credit_account: str


@wire
@dataclass(frozen=True)
class _CollectArgs(_Payment):
    """A chain endorsed to us: we present it as its named grantee, so the
    endorsement's key stays with the endorser."""

    bundle: KerberosProxy
    payor_server: PrincipalId
    payor_account: str
    expires_at: float


@wire
@dataclass(frozen=True)
class _DepositArgs(_CollectArgs):
    payee_account: str


@wire
@dataclass(frozen=True)
class _HeldArgs:
    account: str
    check_number: str


@wire
@dataclass(frozen=True)
class _CashiersArgs(_Payment):
    account: str
    payee: PrincipalId
    expires_at: float


@wire
@dataclass(frozen=True)
class _CertifyArgs(_CashiersArgs):
    check_number: str
    end_server: PrincipalId  # where the certification will be shown


class AccountingServer(EndServer):
    """A bank for money-like and resource currencies (§4)."""

    def __init__(
        self,
        principal: PrincipalId,
        secret_key: SymmetricKey,
        network: Network,
        clock: Clock,
        kerberos: KerberosClient,
        default_lifetime: float = 3600.0,
        max_hold_lifetime: float = 7 * 86400.0,
        rng: Optional[Rng] = None,
        cache_config=None,
        **kwargs,
    ) -> None:
        # The server-level ACL is open: authorization is per-account
        # ("each account contains ... an access-control-list", §4).
        kwargs.setdefault("acl", AccessControlList.open_to_all())
        self.accounts: Dict[str, Account] = {}
        #: All balance mutations flow through here (see module docstring);
        #: built first, because recovery at the end of
        #: ``super().__init__`` replays into it.
        telemetry = kwargs.get("telemetry")
        self.ledger = Ledger(
            self.accounts,
            clock,
            telemetry=telemetry if telemetry is not None else network.telemetry,
            server=str(principal),
        )
        # Check clearing re-presents the same endorsement chains on every
        # hop (Fig. 5), so the verification fast path matters here most;
        # cache_config is explicit to keep the knob discoverable.
        super().__init__(
            principal,
            secret_key,
            network,
            clock,
            rng=rng,
            cache_config=cache_config,
            **kwargs,
        )
        if kerberos.principal != principal:
            raise ServiceError(
                "accounting server needs its own Kerberos identity"
            )
        self.kerberos = kerberos
        self.default_lifetime = default_lifetime
        #: Upper bound on how far in the future a client-supplied
        #: ``expires_at`` may place a certified-check hold (or date a
        #: cashier's check): without it, funds could be locked arbitrarily
        #: far past any check's useful life.
        self.max_hold_lifetime = max_hold_lifetime
        #: Routing for multi-hop clearing: payor server -> next hop.
        #: Absent entries mean "contact directly".
        self.routes: Dict[PrincipalId, PrincipalId] = {}
        #: peer bank -> the :class:`ServiceClient` holding our session
        #: there, kept only once the session is up.
        self._peers = BoundedStore(max_entries=MAX_PEERS)
        self._rng_local = rng or DEFAULT_RNG
        for name, handler, args in (
            ("open-account", self._op_open_account, _NoArgs),
            ("balance", self._op_balance, _NoArgs),
            ("transfer", self._op_transfer, _TransferArgs),
            (DEBIT_OPERATION, self._op_debit, _DebitArgs),
            ("deposit-check", self._op_deposit_check, _DepositArgs),
            ("collect-check", self._op_collect_check, _CollectArgs),
            ("certify-check", self._op_certify_check, _CertifyArgs),
            ("cancel-certified-check", self._op_cancel_certified_check,
             _HeldArgs),
            ("purchase-cashiers-check", self._op_purchase_cashiers_check,
             _CashiersArgs),
        ):
            self.register_operation(name, handler, args)
        # Funds backing outstanding cashier's checks live here; the server
        # itself owns the account and is the payor of such checks.  A
        # recovered server already has it (with whatever balance backs the
        # cashier's checks it sold before the crash).
        if CASHIER_ACCOUNT not in self.accounts:
            self.create_account(CASHIER_ACCOUNT, self.principal)

    def _durable(self) -> list:
        return [*super()._durable(), self.ledger]

    # ------------------------------------------------------------------
    # Transaction scope
    # ------------------------------------------------------------------

    def op_request(self, message: Message) -> dict:
        """One unified transaction per RPC: the ledger scope encloses the
        accept-once registry scope (opened by the superclass), so a failure
        anywhere — verification, authorization, or mid-posting — unwinds
        check-number registrations *and* balance changes together."""
        with self.ledger.transaction():
            return super().op_request(message)

    # ------------------------------------------------------------------
    # Account plumbing
    # ------------------------------------------------------------------

    def account_id(self, name: str) -> AccountId:
        return AccountId(server=self.principal, account=name)

    def create_account(
        self,
        name: str,
        owner: PrincipalId,
        initial: Optional[Dict[str, int]] = None,
    ) -> Account:
        """Server-side account creation (also used by ``open-account``)."""
        if name in self.accounts:
            raise AccountingError(f"account {name} already exists")
        account = Account.open(name, owner)
        seed = Posting(
            legs=tuple(
                credit_leg(name, currency, int(amount))
                for currency, amount in (initial or {}).items()
                if int(amount) != 0
            ),
            kind=MINT,
            description=f"open {name}",
        )
        if seed.legs:
            seed.validate()  # reject malformed initial balances pre-insert
        self.ledger.open_account(account)
        if seed.legs:
            self.ledger.post(seed)
        return account

    def mint(self, name: str, currency: str, amount: int) -> None:
        """Create funds out of thin air (fixture/central-bank use only)."""
        account = self._account(name)
        if amount == 0:
            return
        self.ledger.post(
            Posting(
                legs=(credit_leg(account.name, currency, int(amount)),),
                kind=MINT,
                description=f"mint {currency} into {name}",
            )
        )

    def _account(self, name: str) -> Account:
        try:
            return self.accounts[name]
        except KeyError:
            raise UnknownAccountError(
                f"no account {name!r} on {self.principal}"
            ) from None

    def charge_usage(self, meter, tariff=None, period: str = ""):
        """Post tariffed per-principal usage charges into this ledger (§4).

        Prices ``meter``'s per-principal usage with ``tariff``, provisions
        any missing accounts (minting exactly the amount owed — fixture
        behavior, as with :meth:`create_account` seeding), and posts each
        charge as a conserved transfer into the server-owned revenue
        account.  ``period`` keys the postings' dedupe ids, so charging
        the same period twice is idempotent.  Returns the list of
        :class:`~repro.obs.usage.Charge` records.
        """
        from repro.obs.usage import REVENUE_ACCOUNT, Tariff, post_usage_charges

        tariff = tariff or Tariff()
        if REVENUE_ACCOUNT not in self.accounts:
            self.create_account(REVENUE_ACCOUNT, self.principal)
        for principal, record in sorted(meter.by_principal().items()):
            cost = tariff.price(record)
            if cost <= 0:
                continue
            if principal not in self.accounts:
                try:
                    owner = PrincipalId.from_wire(principal)
                except (DecodingError, ValueError):
                    # Fallback attributions ("(unattributed)", service
                    # names) are not wire principal ids; the server owns
                    # their accrual account.
                    owner = self.principal
                self.create_account(
                    principal, owner, {tariff.currency: cost}
                )
            else:
                shortfall = cost - self.accounts[principal].balance(
                    tariff.currency
                )
                if shortfall > 0:
                    self.mint(principal, tariff.currency, shortfall)
        return post_usage_charges(
            self.ledger, meter, tariff, period=period
        )

    def _settlement_account(self, peer: PrincipalId) -> Account:
        """The local account holding ``peer``'s inter-server claims.

        A pre-existing account under the settlement name must actually be
        owned by the peer: otherwise a squatter who somehow created it
        first would become the silent beneficiary of every future
        cross-server settlement credit (Fig. 5 E2 hops).
        """
        name = f"{SETTLEMENT_PREFIX}{peer.name}"
        account = self.accounts.get(name)
        if account is None:
            return self.create_account(name, owner=peer)
        if account.owner != peer:
            raise AccountingError(
                f"settlement account {name!r} is owned by "
                f"{account.owner}, not the settling peer {peer}"
            )
        return account

    def _authorize_account(
        self,
        account: Account,
        request: AuthorizedRequest,
        operation: str,
    ) -> None:
        """Per-account ACL check (§4)."""
        principals = frozenset(
            p
            for p in (request.rights, request.claimant)
            if p is not None
        )
        entry = account.acl.match(
            principals, request.groups, operation, account.name
        )
        if entry is None:
            raise AuthorizationDenied(
                f"{request.rights} may not {operation} account "
                f"{account.name}"
            )

    @staticmethod
    def _target_account_name(request: AuthorizedRequest) -> str:
        target = request.target or ""
        if not target.startswith(ACCOUNT_TARGET_PREFIX):
            raise ServiceError(
                f"target must be {ACCOUNT_TARGET_PREFIX}<name>, got "
                f"{target!r}"
            )
        return target[len(ACCOUNT_TARGET_PREFIX):]

    # ------------------------------------------------------------------
    # Boundary validation (the rest is declared in the ``Args`` types)
    # ------------------------------------------------------------------

    def _validate_expiry(self, expires_at: float) -> float:
        """Client-supplied expiries must land in a sane, bounded window."""
        now = self.clock.now()
        if not (now < expires_at <= now + self.max_hold_lifetime):
            raise CheckError(
                f"expires_at {expires_at!r} must fall within "
                f"{self.max_hold_lifetime:g}s of now"
            )
        return expires_at

    # ------------------------------------------------------------------
    # Simple operations
    # ------------------------------------------------------------------

    def _op_open_account(self, request: AuthorizedRequest) -> dict:
        if request.claimant is None:
            raise AuthorizationDenied(
                "opening an account requires an authenticated session"
            )
        name = self._target_account_name(request)
        if name.startswith(SETTLEMENT_PREFIX) or name == CASHIER_ACCOUNT:
            # Reserved names: a principal who pre-created
            # ``settlement:<peer>`` would own its ACL and hijack future
            # inter-server settlement credits.
            raise AccountingError(
                f"account name {name!r} is reserved for the server"
            )
        self.create_account(name, owner=request.claimant)
        return {"account": self.account_id(name).to_wire()}

    def _op_balance(self, request: AuthorizedRequest) -> dict:
        account = self._account(self._target_account_name(request))
        self._authorize_account(account, request, "read")
        return {
            "balances": dict(account.balances),
            "held": {
                h.check_number: {
                    "currency": h.currency,
                    "amount": h.amount,
                }
                for h in account.holds.values()
            },
        }

    def _op_transfer(self, request: AuthorizedRequest) -> dict:
        """Intra-server transfer (quota allocate/release uses this, §4)."""
        args = request.args
        source = self._account(self._target_account_name(request))
        self._authorize_account(source, request, "transfer")
        destination = self._account(args.to)
        currency, amount = args.currency, args.amount
        self.ledger.post(
            Posting(
                legs=(
                    debit_leg(source.name, currency, amount),
                    credit_leg(destination.name, currency, amount),
                ),
                description=f"transfer {source.name} -> {destination.name}",
            ),
            dedupe_key=request.request_id,
        )
        return {
            "from_balance": source.balance(currency),
            "to_balance": destination.balance(currency),
        }

    # ------------------------------------------------------------------
    # Check clearing
    # ------------------------------------------------------------------

    @staticmethod
    def _check_number_from(request: AuthorizedRequest) -> str:
        numbers = [
            r.identifier
            for r in request.presented_restrictions
            if isinstance(r, AcceptOnce)
        ]
        if not numbers:
            raise CheckError("presented proxy carries no check number")
        return numbers[0]

    def _op_debit(self, request: AuthorizedRequest) -> dict:
        """Clear a presented check against the payor's account.

        The proxy framework has already verified the chain: signatures,
        endorsement grantees, the quota against the requested amount, and
        the accept-once check number (rolled back if we raise below).

        The credit destination is resolved *before* any funds move: the
        seed implementation debited the payor (or consumed the certified
        hold) first, so an unknown ``credit_account`` raised after the
        debit and destroyed the funds — the accept-once registry rolled
        back but the balance did not.  With the ledger the whole clearing
        is a single posting, atomic either way.
        """
        if request.verified is None:
            raise AuthorizationDenied(
                "debit requires a presented check (restricted proxy)"
            )
        account = self._account(self._target_account_name(request))
        self._authorize_account(account, request, DEBIT_OPERATION)
        currency, amount = request.args.currency, request.args.amount
        if request.amounts.get(currency, 0) != amount:
            raise CheckError(
                "declared amounts do not match the requested transfer"
            )
        credit_name = request.args.credit_account
        check_number = self._check_number_from(request)

        if credit_name.startswith(SETTLEMENT_PREFIX):
            # Settlement credits always resolve through the claimant so
            # ownership is verified — a squatter-created account under the
            # settlement name must not silently receive the funds.
            if request.claimant is None or credit_name != (
                f"{SETTLEMENT_PREFIX}{request.claimant.name}"
            ):
                raise CheckError(
                    f"only the settling peer may be credited at "
                    f"{credit_name!r}"
                )
            destination = self._settlement_account(request.claimant)
        elif credit_name in self.accounts:
            destination = self.accounts[credit_name]
        elif request.claimant is not None:
            # Presenting server collecting on another's behalf: pay into
            # its settlement account.
            destination = self._settlement_account(request.claimant)
        else:
            raise CheckError(f"no account {credit_name!r} to credit")

        hold = account.holds.get(check_number)
        if hold is not None:
            # Certified check: pay from the reserved funds (§4).
            if hold.currency != currency or amount > hold.amount:
                raise CheckError(
                    "cleared check does not match its certification"
                )
            legs = [
                release_hold(
                    account.name, currency, hold.amount, check_number
                ),
                credit_leg(destination.name, currency, amount),
            ]
            remainder = hold.amount - amount
            if remainder:
                legs.append(credit_leg(account.name, currency, remainder))
        else:
            legs = [
                debit_leg(account.name, currency, amount),
                credit_leg(destination.name, currency, amount),
            ]
        self.ledger.post(
            Posting(
                legs=tuple(legs),
                description=f"clear check {check_number}",
            ),
            dedupe_key=request.request_id,
        )
        self.telemetry.inc(
            "checks_cleared_total",
            help="Checks cleared at the payor's server, by funding path.",
            server=str(self.principal),
            funding="certified-hold" if hold is not None else "balance",
        )
        self.telemetry.inc(
            "check_amount_cleared_total",
            amount,
            help="Total value cleared, by currency.",
            currency=currency,
        )
        return {
            "paid": amount,
            "currency": currency,
            "check_number": check_number,
            "credited": destination.name,
        }

    # -- deposits (payee side server, Fig. 5 E1/E2) -----------------------

    def peer(self, server: PrincipalId) -> ServiceClient:
        """Our session-holding client at peer bank ``server``.

        A ticket and its session key serve until they expire (§6.2), so
        the first call for a peer — the first clearing there, or a
        deployment provisioning the pair ahead of time — pays the AP
        exchange and later ones reuse it; a session the peer lost (ticket
        expiry, restart) is re-established by :meth:`ServiceClient.request`.
        """
        client = self._peers.lookup(server)
        if client is None:
            client = ServiceClient(self.kerberos, server)
            client.establish_session()
            self._peers.put(server, client)
        return client

    def _clear_remotely(self, args: _CollectArgs) -> dict:
        """Forward an endorsed check toward the payor's server (E2...).

        If a route is configured, endorse to the next hop and let it
        collect; otherwise present the chain to the payor's server
        directly.  Either way we are a named grantee of the chain's final
        link, so we present over our session with that peer.
        """
        payor_server, currency, amount = (
            args.payor_server, args.currency, args.amount
        )
        target = f"{ACCOUNT_TARGET_PREFIX}{args.payor_account}"
        next_hop = self.routes.get(payor_server)
        if next_hop is None or next_hop == payor_server:
            if self.telemetry.enabled:
                self.telemetry.event(
                    "accounting.forward",
                    mode="direct",
                    server=str(self.principal),
                    payor_server=str(payor_server),
                    currency=currency,
                    amount=amount,
                )
            return self.peer(payor_server).request(
                DEBIT_OPERATION,
                target=target,
                args=_DebitArgs(
                    currency,
                    amount,
                    credit_account=f"{SETTLEMENT_PREFIX}{self.principal.name}",
                ).to_wire(),
                amounts={currency: amount},
                proxy=args.bundle,
            )
        # Multi-hop: add our own endorsement naming the next hop (the
        # paper's "subsequent accounting servers repeat the process").
        if self.telemetry.enabled:
            self.telemetry.event(
                "accounting.forward",
                mode="endorse-hop",
                server=str(self.principal),
                payor_server=str(payor_server),
                next_hop=str(next_hop),
                currency=currency,
                amount=amount,
            )
        credentials = self.kerberos.get_ticket(payor_server)
        endorsed = endorse(
            args.bundle,
            credentials,
            subordinate=next_hop,
            additional_restrictions=(),
            issued_at=self.clock.now(),
            expires_at=args.expires_at,
            rng=self._rng_local,
        )
        return self.peer(next_hop).request(
            "collect-check",
            target=target,
            args=_CollectArgs(
                currency,
                amount,
                # The next hop presents the chain as its named grantee
                # over its own session; the endorsement's key stays here.
                bundle=endorsed.handoff(endorsed.proxy.without_key()),
                payor_server=payor_server,
                payor_account=args.payor_account,
                expires_at=args.expires_at,
            ).to_wire(),
        )

    def _op_deposit_check(self, request: AuthorizedRequest) -> dict:
        """E1: the payee deposits an endorsed check with us (its server)."""
        if request.claimant is None:
            raise AuthorizationDenied(
                "deposits require an authenticated session"
            )
        args = request.args
        payee_account = self._account(args.payee_account)
        self._authorize_account(payee_account, request, "transfer")
        payor_server, currency = args.payor_server, args.currency

        if payor_server == self.principal:
            raise CheckError(
                "checks drawn on this server clear via the debit operation"
            )
        # "the resources added to S's account [are marked] as uncollected"
        # until the payor's server pays; in this synchronous implementation
        # the collection happens before we return, so the uncollected state
        # is visible only through the metrics/audit trail.
        result = self._clear_remotely(args)
        paid = int(result["paid"])
        # The matching debit was booked on the payor's server (inside its
        # own balanced posting), so locally this is inbound value.
        self.ledger.post(
            Posting(
                legs=(credit_leg(payee_account.name, currency, paid),),
                kind=INBOUND,
                description=f"deposit collected from {payor_server}",
            ),
            dedupe_key=request.request_id,
        )
        self.telemetry.inc(
            "checks_deposited_total",
            help="Cross-server deposits accepted for collection (Fig. 5 E1).",
            server=str(self.principal),
        )
        return {
            "cleared": True,
            "paid": result["paid"],
            "currency": currency,
            "balance": payee_account.balance(currency),
        }

    def _op_collect_check(self, request: AuthorizedRequest) -> dict:
        """Intermediate hop: endorse onward, then credit our predecessor."""
        if request.claimant is None:
            raise AuthorizationDenied(
                "collection requires an authenticated session"
            )
        args = request.args
        result = self._clear_remotely(args)
        predecessor = self._settlement_account(request.claimant)
        self.ledger.post(
            Posting(
                legs=(
                    credit_leg(
                        predecessor.name, args.currency, int(result["paid"])
                    ),
                ),
                kind=INBOUND,
                description=f"collection hop toward {args.payor_server}",
            ),
            dedupe_key=request.request_id,
        )
        return result

    # ------------------------------------------------------------------
    # Certified checks (§4)
    # ------------------------------------------------------------------

    def _op_certify_check(self, request: AuthorizedRequest) -> dict:
        """Place a hold and issue the certification proxy."""
        if request.session_key is None or request.claimant is None:
            raise AuthorizationDenied(
                "certification requires an authenticated session"
            )
        args = request.args
        account = self._account(args.account)
        self._authorize_account(account, request, DEBIT_OPERATION)
        check_number = args.check_number
        if check_number in account.holds:
            raise CheckError(
                f"check {check_number} is already certified"
            )
        currency, amount = args.currency, args.amount
        expires_at = self._validate_expiry(args.expires_at)
        payee, end_server = args.payee, args.end_server

        # The hold (§4): one posting moves the funds from the available
        # balance into the named hold.  It stays inside this request's
        # ledger transaction, so a failure issuing the certification proxy
        # below releases the hold instead of leaking it.
        self.ledger.post(
            Posting(
                legs=(
                    debit_leg(account.name, currency, amount),
                    place_hold(
                        account.name,
                        currency,
                        amount,
                        check_number,
                        payee,
                        expires_at,
                    ),
                ),
                description=f"certify check {check_number}",
            ),
            dedupe_key=request.request_id,
        )
        restrictions = (
            Authorized(
                entries=(
                    AuthorizedEntry(
                        target=f"check:{check_number}",
                        operations=("verify-certification",),
                    ),
                )
            ),
            IssuedFor(servers=(end_server,)),
        )
        credentials = self.kerberos.get_ticket(end_server)
        kproxy = grant_via_credentials(
            credentials,
            restrictions,
            issued_at=self.clock.now(),
            expires_at=expires_at,
        )
        return {
            "sealed_proxy": seal_proxy_delivery(
                kproxy, request.session_key
            )
        }

    def _op_purchase_cashiers_check(self, request: AuthorizedRequest) -> dict:
        """Sell a cashier's check: the *server* becomes the payor (§4).

        The purchaser's funds move into the server-owned cashier account at
        once, and the server draws a check on itself, payable to the named
        payee.  The payee can verify the payor is the accounting server
        itself — the strongest guarantee the model offers, stronger than a
        certified check because no purchaser account is involved at
        clearing time.  ``account`` is the purchaser's.
        """
        if request.session_key is None or request.claimant is None:
            raise AuthorizationDenied(
                "cashier's checks are sold only over authenticated sessions"
            )
        args = request.args
        account = self._account(args.account)
        self._authorize_account(account, request, DEBIT_OPERATION)
        currency, amount, payee = args.currency, args.amount, args.payee
        expires_at = self._validate_expiry(args.expires_at)

        cashier = self._account(CASHIER_ACCOUNT)
        self.ledger.post(
            Posting(
                legs=(
                    debit_leg(account.name, currency, amount),
                    credit_leg(cashier.name, currency, amount),
                ),
                description=f"cashier's check for {payee}",
            ),
            dedupe_key=request.request_id,
        )

        # The server draws on itself: its own credentials for itself root
        # the check, so the payor *is* this accounting server.
        credentials = self.kerberos.get_ticket(self.principal)
        check = draw_check(
            payor_credentials=credentials,
            payor_account=self.account_id(CASHIER_ACCOUNT),
            payee=payee,
            currency=currency,
            amount=amount,
            issued_at=self.clock.now(),
            expires_at=expires_at,
            rng=self._rng_local,
        )
        # The check's terms travel as they are; its root proxy key only as
        # Fig. 3's {Kproxy}Ksession, like a certification proxy above.
        wire = check.to_wire()
        wire["bundle"] = seal_proxy_delivery(check.bundle, request.session_key)
        return {"check": wire}

    def _op_cancel_certified_check(self, request: AuthorizedRequest) -> dict:
        """Return expired-hold funds to the account owner."""
        account = self._account(request.args.account)
        self._authorize_account(account, request, DEBIT_OPERATION)
        check_number = request.args.check_number
        hold = account.holds.get(check_number)
        if hold is None:
            raise CheckError(f"no hold for check {check_number}")
        if hold.expires_at > self.clock.now():
            raise CheckError(
                "cannot cancel a certification before the check expires"
            )
        self.ledger.post(
            Posting(
                legs=(
                    release_hold(
                        account.name,
                        hold.currency,
                        hold.amount,
                        check_number,
                    ),
                    credit_leg(account.name, hold.currency, hold.amount),
                ),
                description=f"cancel certification {check_number}",
            ),
            dedupe_key=request.request_id,
        )
        return {"returned": hold.amount, "currency": hold.currency}


class AccountingClient:
    """A principal's interface to its accounting server (§4)."""

    def __init__(
        self,
        kerberos: KerberosClient,
        accounting_server: PrincipalId,
        rng: Optional[Rng] = None,
    ) -> None:
        self.service = ServiceClient(kerberos, accounting_server)
        # Default to the principal's own (testbed-seeded) source so check
        # numbers and endorsement proxy keys are reproducible — figure
        # replays are compared byte-for-byte by the cache parity suite.
        self._rng = rng if rng is not None else kerberos.rng

    @property
    def server(self) -> PrincipalId:
        return self.service.server

    @property
    def principal(self) -> PrincipalId:
        return self.service.principal

    def account_id(self, name: str) -> AccountId:
        return AccountId(server=self.server, account=name)

    # -- plain account operations -----------------------------------------

    def open_account(self, name: str) -> AccountId:
        reply = self.service.request(
            "open-account", target=f"{ACCOUNT_TARGET_PREFIX}{name}"
        )
        return AccountId.from_wire(reply["account"])

    def balance(self, name: str) -> Dict[str, int]:
        reply = self.service.request(
            "balance", target=f"{ACCOUNT_TARGET_PREFIX}{name}"
        )
        return {str(k): int(v) for k, v in reply["balances"].items()}

    def transfer(
        self, source: str, destination: str, currency: str, amount: int
    ) -> None:
        self.service.request(
            "transfer",
            target=f"{ACCOUNT_TARGET_PREFIX}{source}",
            args={"to": destination, "currency": currency, "amount": amount},
        )

    # -- checks ---------------------------------------------------------------

    def write_check(
        self,
        account: str,
        payee: PrincipalId,
        currency: str,
        amount: int,
        lifetime: float = 3600.0,
        number: Optional[str] = None,
    ) -> Check:
        """Draw a check on this client's account (Fig. 5 message 1)."""
        credentials = self.service.kerberos.get_ticket(self.server)
        now = self.service.kerberos.clock.now()
        return draw_check(
            payor_credentials=credentials,
            payor_account=self.account_id(account),
            payee=payee,
            currency=currency,
            amount=amount,
            issued_at=now,
            expires_at=now + lifetime,
            number=number,
            rng=self._rng,
        )

    def deposit_check(
        self, check: Check, payee_account: str, amount: Optional[int] = None
    ) -> dict:
        """Deposit a received check (Fig. 5 E1; the payee side).

        ``amount`` may be lower than the check's face value ("the payee
        transfers up to that limit").
        """
        amount = check.amount if amount is None else amount
        clock = self.service.kerberos.clock
        if check.drawn_on == self.server:
            # Same accounting server: clear directly with the debit op.
            return self.service.request(
                DEBIT_OPERATION,
                target=account_target(check.payor_account),
                args={
                    "currency": check.currency,
                    "amount": amount,
                    "credit_account": payee_account,
                },
                amounts={check.currency: amount},
                proxy=check.bundle,
            )
        # Cross-server: endorse to our own server ("the payee grants its
        # own accounting server a cascaded proxy (endorsement)"), then
        # deposit (E1).
        credentials = self.service.kerberos.get_ticket(check.drawn_on)
        endorsed = endorse(
            check.bundle,
            credentials,
            subordinate=self.server,
            additional_restrictions=(),
            issued_at=clock.now(),
            expires_at=check.expires_at,
            rng=self._rng,
        )
        return self.service.request(
            "deposit-check",
            target=f"{ACCOUNT_TARGET_PREFIX}{payee_account}",
            args={
                # Our server presents the chain as its named grantee over
                # its own session (§3.4); the endorsement's key stays here.
                "bundle": endorsed.handoff(
                    endorsed.proxy.without_key()
                ).transferable(),
                "payor_server": check.drawn_on.to_wire(),
                "payor_account": check.payor_account.account,
                "currency": check.currency,
                "amount": amount,
                "expires_at": check.expires_at,
                "payee_account": payee_account,
            },
        )

    # -- certified checks -------------------------------------------------------

    def certify_check(
        self, check: Check, end_server: PrincipalId
    ) -> KerberosProxy:
        """Have our server certify a drawn check (§4's second mechanism).

        Returns the authorization proxy to present (with the check) to the
        end-server.
        """
        reply = self.service.request(
            "certify-check",
            target=account_target(check.payor_account),
            args={
                "account": check.payor_account.account,
                "check_number": check.number,
                "payee": check.payee.to_wire(),
                "currency": check.currency,
                "amount": check.amount,
                "end_server": end_server.to_wire(),
                "expires_at": check.expires_at,
            },
        )
        session_key = self.service.kerberos.get_ticket(
            self.server
        ).session_key
        return open_proxy_delivery(reply["sealed_proxy"], session_key)

    def cancel_certified_check(self, account: str, check_number: str) -> dict:
        return self.service.request(
            "cancel-certified-check",
            target=f"{ACCOUNT_TARGET_PREFIX}{account}",
            args={"account": account, "check_number": check_number},
        )

    def purchase_cashiers_check(
        self,
        account: str,
        payee: PrincipalId,
        currency: str,
        amount: int,
        lifetime: float = 3600.0,
    ) -> Check:
        """Buy a cashier's check drawn by the accounting server itself (§4)."""
        reply = self.service.request(
            "purchase-cashiers-check",
            target=f"{ACCOUNT_TARGET_PREFIX}{account}",
            args={
                "account": account,
                "payee": payee.to_wire(),
                "currency": currency,
                "amount": amount,
                "expires_at": self.service.kerberos.clock.now() + lifetime,
            },
        )
        session_key = self.service.kerberos.get_ticket(
            self.server
        ).session_key
        wire = dict(reply["check"])
        wire["bundle"] = open_proxy_delivery(
            wire["bundle"], session_key
        ).transferable()
        return Check.from_wire(wire)
