"""Services built on restricted proxies (§3–§4)."""

from repro.services.accounting import (
    Account,
    AccountingClient,
    AccountingServer,
    CASHIER_ACCOUNT,
    Hold,
    SETTLEMENT_PREFIX,
)
from repro.services.authorization import (
    AuthorizationClient,
    AuthorizationServer,
    ProxyDelivery,
    open_proxy_delivery,
    seal_proxy_delivery,
)
from repro.services.checks import Check, account_target, draw_check
from repro.services.client import ServiceClient
from repro.services.endserver import AuthorizedRequest, EndServer
from repro.services.fileserver import FileServer
from repro.services.groups import GroupClient, GroupServer
from repro.services.nameserver import NameServer, lookup
from repro.services.pk_endserver import (
    PkClient,
    PkEndServer,
    PublicKeyDirectory,
    SignedEnvelope,
)
from repro.services.printserver import PAGES, PrintServer

__all__ = [
    "EndServer",
    "AuthorizedRequest",
    "ServiceClient",
    "FileServer",
    "PrintServer",
    "PAGES",
    "NameServer",
    "lookup",
    "PkEndServer",
    "PkClient",
    "PublicKeyDirectory",
    "SignedEnvelope",
    "AuthorizationServer",
    "AuthorizationClient",
    "ProxyDelivery",
    "seal_proxy_delivery",
    "open_proxy_delivery",
    "GroupServer",
    "GroupClient",
    "AccountingServer",
    "AccountingClient",
    "Account",
    "Hold",
    "SETTLEMENT_PREFIX",
    "CASHIER_ACCOUNT",
    "Check",
    "draw_check",
    "account_target",
]
