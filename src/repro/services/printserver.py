"""A print server charging a resource-specific currency (§4).

Accounting servers "support multiple currencies, either monetary ... or
resource specific (disk blocks, cpu cycles, or printer pages)."  The print
server demonstrates the quota mechanism: before printing, the client's
``pages`` funds are transferred into the print server's account on the
accounting server; the job then draws them down.  Quota *restrictions*
(§7.4) on proxies cap what a delegated job may consume regardless of the
account balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.acl import AccessControlList
from repro.clock import Clock
from repro.crypto.keys import SymmetricKey
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire
from repro.errors import ServiceError
from repro.net.network import Network
from repro.services.accounting import AccountingClient
from repro.services.endserver import AuthorizedRequest, EndServer

#: The resource currency this server charges.
PAGES = "pages"


@wire
@dataclass(frozen=True)
class AllocateArgs:
    pages: int


@wire
@dataclass(frozen=True)
class ReleaseArgs(AllocateArgs):
    to_account: str  # the caller's, at the accounting server


class PrintServer(EndServer):
    """Prints jobs, charging pages against pre-allocated funds."""

    def __init__(
        self,
        principal: PrincipalId,
        secret_key: SymmetricKey,
        network: Network,
        clock: Clock,
        accounting: Optional[AccountingClient] = None,
        account_name: str = "printer",
        acl: Optional[AccessControlList] = None,
        **kwargs,
    ) -> None:
        kwargs.setdefault("rng", None)
        super().__init__(
            principal,
            secret_key,
            network,
            clock,
            acl=acl if acl is not None else AccessControlList.open_to_all(),
            **{k: v for k, v in kwargs.items() if v is not None},
        )
        self.accounting = accounting
        self.account_name = account_name
        #: Pages pre-paid per principal (quota allocations, §4).
        self.allocations: Dict[PrincipalId, int] = {}
        self.jobs: List[dict] = []
        self.register_operation("print", self._op_print)
        self.register_operation("allocate", self._op_allocate, AllocateArgs)
        self.register_operation("release", self._op_release, ReleaseArgs)
        self.register_operation("remaining", self._op_remaining)

    # ------------------------------------------------------------------

    def _op_allocate(self, request: AuthorizedRequest) -> dict:
        """Record a quota allocation for the requesting principal (§4).

        "Quotas are implemented by transferring funds of the appropriate
        currency out of an account when the resource is allocated": the
        caller must first transfer ``pages`` funds into this server's
        account at the accounting server.  When an accounting client is
        configured, the server verifies its bank balance covers every
        allocation, including this one; standalone mode (no accounting)
        trusts the declaration, for tests.
        """
        pages = request.args.pages
        if pages <= 0:
            raise ServiceError("allocation must be positive")
        who = request.rights
        if self.accounting is not None:
            balance = self.accounting.balance(self.account_name).get(PAGES, 0)
            committed = sum(self.allocations.values())
            if balance < committed + pages:
                raise ServiceError(
                    f"allocation not funded: account {self.account_name} "
                    f"holds {balance} {PAGES}, {committed} already "
                    f"committed, {pages} requested"
                )
        self.allocations[who] = self.allocations.get(who, 0) + pages
        return {"allocated": self.allocations[who]}

    def _op_release(self, request: AuthorizedRequest) -> dict:
        """Return an unused allocation (§4: "transferring the funds back
        when the resource is released").

        The funds go back to ``to_account`` when accounting is configured.
        """
        pages = request.args.pages
        who = request.rights
        held = self.allocations.get(who, 0)
        if pages <= 0 or pages > held:
            raise ServiceError(
                f"cannot release {pages} of {held} allocated pages"
            )
        self.allocations[who] = held - pages
        if self.accounting is not None:
            self.accounting.transfer(
                self.account_name, request.args.to_account, PAGES, pages
            )
        return {"allocated": self.allocations[who]}

    def _op_print(self, request: AuthorizedRequest) -> dict:
        """Print a job of ``pages`` pages under the rights principal's quota."""
        pages = request.amounts.get(PAGES, 0)
        if pages <= 0:
            raise ServiceError("print jobs must declare pages > 0")
        who = request.rights
        available = self.allocations.get(who, 0)
        if available < pages:
            raise ServiceError(
                f"{who} has {available} pages allocated, needs {pages}"
            )
        self.allocations[who] = available - pages
        job = {
            "owner": str(who),
            "submitted_by": (
                str(request.claimant) if request.claimant else "<bearer>"
            ),
            "document": request.target or "<untitled>",
            "pages": pages,
        }
        self.jobs.append(job)
        self.telemetry.inc(
            "pages_printed_total",
            pages,
            help="Pages drawn down against quota allocations (§4).",
            server=str(self.principal),
        )
        return {"job_id": len(self.jobs) - 1, "remaining": self.allocations[who]}

    def _op_remaining(self, request: AuthorizedRequest) -> dict:
        return {"remaining": self.allocations.get(request.rights, 0)}
