"""Access-control lists with compound principals and entry restrictions (§3.5)."""

from repro.acl.acl import AccessControlList, AclEntry
from repro.acl.compound import (
    Anyone,
    Compound,
    GroupSubject,
    SinglePrincipal,
    Subject,
)

__all__ = [
    "AccessControlList",
    "AclEntry",
    "Subject",
    "SinglePrincipal",
    "GroupSubject",
    "Anyone",
    "Compound",
]
