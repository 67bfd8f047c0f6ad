"""The group server (§3.3).

"A group server implemented using restricted proxies grants proxies that
delegate the right to assert membership in a particular group.  The protocol
is the same as that for the authorization server; the authorized operation
is the assertion of group membership."

The issued proxy carries:

* ``group-membership`` limiting assertion to the one requested group (§7.6 —
  without it the grantee would count as a member of *every* group here);
* ``grantee`` pinning the proxy to the member (a delegate proxy, so a
  stolen certificate is useless without the member's own credentials);
* ``issued-for`` the end-server it was requested for.

A Grapevine-style online membership query is also exposed
(``query-membership``) — the paper's §5 contrast is that with proxies the
authorization *decision* is delegated, while Grapevine-style systems must
ask the registration server each time; benchmark C2 measures the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Set, Tuple

from repro.acl import AccessControlList
from repro.clock import Clock
from repro.core.restrictions import (
    Grantee,
    GroupMembership,
    IssuedFor,
)
from repro.crypto.keys import SymmetricKey
from repro.encoding.identifiers import GroupId, PrincipalId
from repro.encoding.schema import wire
from repro.errors import AuthorizationDenied, ServiceError
from repro.kerberos.client import KerberosClient
from repro.kerberos.proxy_support import KerberosProxy, grant_via_credentials
from repro.net.network import Network
from repro.services.authorization import (
    open_proxy_delivery,
    seal_proxy_delivery,
)
from repro.services.client import ServiceClient
from repro.services.endserver import AuthorizedRequest, EndServer


@wire
@dataclass(frozen=True)
class GroupProxyArgs:
    group: str  # the local name
    server: PrincipalId  # the end-server the proxy is for


@wire
@dataclass(frozen=True)
class MembershipArgs:
    group: str
    member: PrincipalId


class GroupServer(EndServer):
    """Maintains groups and issues membership-assertion proxies (§3.3)."""

    ISSUER_MODE = True

    def __init__(
        self,
        principal: PrincipalId,
        secret_key: SymmetricKey,
        network: Network,
        clock: Clock,
        kerberos: KerberosClient,
        default_lifetime: float = 3600.0,
        **kwargs,
    ) -> None:
        # Anyone may ask; membership is checked per group in the handler.
        kwargs.setdefault("acl", AccessControlList.open_to_all())
        super().__init__(principal, secret_key, network, clock, **kwargs)
        if kerberos.principal != principal:
            raise ServiceError("group server needs its own Kerberos identity")
        self.kerberos = kerberos
        self.default_lifetime = default_lifetime
        #: Members may be principals or *groups* — "it should be possible
        #: for the name of a group to appear in authorization databases
        #: anywhere that the name of any other principal might appear ...
        #: even on another group server" (§3.3).
        self._groups: Dict[str, Set[object]] = {}
        self.register_operation(
            "get-group-proxy", self._op_get_group_proxy, GroupProxyArgs
        )
        self.register_operation(
            "query-membership", self._op_query_membership, MembershipArgs
        )

    # -- administration -------------------------------------------------------

    def create_group(self, name: str, members: Tuple = ()) -> GroupId:
        """Create a group; members may be principals or (nested) GroupIds."""
        self._groups[name] = set(members)
        return self.group_id(name)

    def add_member(self, name: str, member) -> None:
        """Add a principal or a nested group to a group."""
        self._members(name).add(member)

    def remove_member(self, name: str, member) -> None:
        """Membership revocation: future proxy requests fail immediately;
        outstanding proxies die at their (short) expiry."""
        self._members(name).discard(member)

    def group_id(self, name: str) -> GroupId:
        """The global name of a local group (§3.3)."""
        return GroupId(server=self.principal, group=name)

    def _members(self, name: str) -> Set[object]:
        try:
            return self._groups[name]
        except KeyError:
            raise ServiceError(f"no such group: {name}") from None

    def _closure(self, name: str) -> Iterator[object]:
        """Every member of group ``name`` and of the local groups nested in
        it, expanded transitively."""
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for member in self._members(current):
                if (
                    isinstance(member, GroupId)
                    and member.server == self.principal
                    and member.group in self._groups
                ):
                    frontier.append(member.group)
                yield member

    def _is_member(self, name: str, request: AuthorizedRequest) -> bool:
        """Direct principal membership, local nested groups, or remote
        nested groups asserted via supporting group proxies presented with
        the request (a verified proxy from *their* group server)."""
        return any(
            member == request.claimant
            or (
                isinstance(member, GroupId)
                and member.server != self.principal
                and member in request.groups
            )
            for member in self._closure(name)
        )

    # -- operations -------------------------------------------------------------

    def _op_get_group_proxy(self, request: AuthorizedRequest) -> dict:
        """Issue a membership-assertion proxy to a member."""
        if request.session_key is None or request.claimant is None:
            raise AuthorizationDenied(
                "group proxies are issued only over authenticated sessions"
            )
        name, end_server = request.args.group, request.args.server
        if not self._is_member(name, request):
            raise AuthorizationDenied(
                f"{request.claimant} is not a member of {name}"
            )
        restrictions = (
            GroupMembership(groups=(self.group_id(name),)),
            Grantee(principals=(request.claimant,)),
            IssuedFor(servers=(end_server,)),
        )
        now = self.clock.now()
        credentials = self.kerberos.get_ticket(end_server)
        kproxy = grant_via_credentials(
            credentials,
            restrictions,
            issued_at=now,
            expires_at=now + self.default_lifetime,
        )
        self.telemetry.inc(
            "group_proxies_issued_total",
            help="Membership-assertion proxies issued (§3.3).",
            server=str(self.principal),
            group=name,
        )
        return {"proxy": seal_proxy_delivery(kproxy, request.session_key)}

    def _op_query_membership(self, request: AuthorizedRequest) -> dict:
        """Grapevine-style online check: is P a direct or (locally) nested
        member of G right now?"""
        args = request.args
        return {"member": args.member in self._closure(args.group)}


class GroupClient:
    """Client side of the group protocol (§3.3)."""

    def __init__(
        self, kerberos: KerberosClient, group_server: PrincipalId
    ) -> None:
        self.service = ServiceClient(kerberos, group_server)

    def get_group_proxy(
        self,
        group: str,
        end_server: PrincipalId,
        group_proxies=(),
    ) -> Tuple[GroupId, KerberosProxy]:
        """Obtain a proxy asserting membership of ``group`` at ``end_server``.

        ``group_proxies`` supports nested membership across group servers
        (§3.3): present a proxy from another group server to prove
        membership in a group that is itself a member here.
        """
        reply = self.service.request(
            "get-group-proxy",
            target=group,
            args=GroupProxyArgs(group, end_server).to_wire(),
            group_proxies=group_proxies,
        )
        session_key = self.service.kerberos.get_ticket(
            self.service.server
        ).session_key
        kproxy = open_proxy_delivery(reply["proxy"], session_key)
        return (
            GroupId(server=self.service.server, group=group),
            kproxy,
        )

    def query_membership(self, group: str, member: PrincipalId) -> bool:
        reply = self.service.request(
            "query-membership",
            target=group,
            args=MembershipArgs(group, member).to_wire(),
        )
        return bool(reply["member"])
