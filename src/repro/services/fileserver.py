"""An in-memory file server — the end-server of the paper's running example.

§3.1's capability walkthrough: "to create a read capability for a particular
file, a user authorized to read that file requests a restricted proxy for
use at the file server containing the file, but with the restriction that it
can only be used to read the named file."

Operations: ``read``, ``write``, ``delete``, ``list``, ``stat``.  Writes
account for the ``bytes`` currency, so quota restrictions (§7.4) bite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.acl import AccessControlList, AclEntry, SinglePrincipal
from repro.clock import Clock
from repro.crypto.keys import SymmetricKey
from repro.durable import Durable
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire
from repro.errors import ServiceError
from repro.net.network import Network
from repro.services.endserver import AuthorizedRequest, EndServer

#: Currency charged for writes.
BYTES = "bytes"


@wire
@dataclass(frozen=True)
class WriteArgs:
    data: bytes


class FileServer(EndServer, Durable):
    """Flat-namespace file store guarded by an ACL.

    Durable: file contents (``file_put``, ``file_del``) and owner grants
    (``acl_owner``) are logged as they change.
    """

    SNAPSHOT = "files"
    RECORDS = ("file_put", "file_del", "acl_owner")

    def __init__(
        self,
        principal: PrincipalId,
        secret_key: SymmetricKey,
        network: Network,
        clock: Clock,
        acl: Optional[AccessControlList] = None,
        **kwargs,
    ) -> None:
        # Built first: recovery at the end of ``super().__init__`` replays
        # into them.
        self.files: Dict[str, bytes] = {}
        #: (owner wire, prefix) pairs from :meth:`grant_owner`, kept so a
        #: snapshot can rebuild the granted entries after compaction.
        self._granted_owners = []
        super().__init__(
            principal, secret_key, network, clock, acl=acl, **kwargs
        )
        self.register_operation("read", self._op_read)
        self.register_operation("write", self._op_write, WriteArgs)
        self.register_operation("delete", self._op_delete)
        self.register_operation("list", self._op_list)
        self.register_operation("stat", self._op_stat)

    # -- durability -----------------------------------------------------------

    def _durable(self) -> list:
        return [*super()._durable(), self]

    def _add_owner(self, owner: str, prefix: str) -> None:
        self._granted_owners.append((owner, prefix))
        self.acl.add(
            AclEntry(
                subject=SinglePrincipal(PrincipalId.from_wire(owner)),
                targets=(prefix,),
            )
        )

    def replay(self, kind: str, data: dict) -> None:
        if kind == "file_put":
            self.files[data["path"]] = data["data"]
        elif kind == "file_del":
            self.files.pop(data["path"], None)
        else:
            self._add_owner(data["owner"], data["prefix"])

    def capture_state(self) -> dict:
        return {
            "files": dict(self.files),
            "granted_owners": [
                [owner, prefix] for owner, prefix in self._granted_owners
            ],
        }

    def restore_state(self, state: dict) -> None:
        self.files.update(state["files"])
        for owner, prefix in state["granted_owners"]:
            self._add_owner(owner, prefix)

    # -- convenience for tests/examples -------------------------------------

    def grant_owner(self, owner: PrincipalId, prefix: str = "*") -> None:
        """ACL entry giving ``owner`` everything under ``prefix``."""
        wire = owner.to_wire()
        self._add_owner(wire, prefix)
        self.wal.append("acl_owner", {"owner": wire, "prefix": prefix})

    def put(self, path: str, data: bytes) -> None:
        """Store one file and log it: what ``write`` does once authorized,
        and a server-side seed (bypassing authorization) for fixtures."""
        self.files[path] = data
        self.wal.append("file_put", {"path": path, "data": data})

    # -- operations ----------------------------------------------------------

    def _require_target(self, request: AuthorizedRequest) -> str:
        if request.target is None:
            raise ServiceError(f"{request.operation} requires a target path")
        return request.target

    def _op_read(self, request: AuthorizedRequest) -> dict:
        path = self._require_target(request)
        if path not in self.files:
            raise ServiceError(f"no such file: {path}")
        data = self.files[path]
        self.telemetry.inc(
            "fileserver_bytes_read_total",
            len(data),
            help="Bytes served by file-server reads.",
            server=str(self.principal),
        )
        return {"data": data}

    def _op_write(self, request: AuthorizedRequest) -> dict:
        path = self._require_target(request)
        data = request.args.data
        declared = request.amounts.get(BYTES, 0)
        if declared < len(data):
            raise ServiceError(
                f"declared {declared} {BYTES} but wrote {len(data)}"
            )
        self.put(path, data)
        self.telemetry.inc(
            "fileserver_bytes_written_total",
            len(data),
            help="Bytes accepted by file-server writes.",
            server=str(self.principal),
        )
        return {"written": len(data)}

    def _op_delete(self, request: AuthorizedRequest) -> dict:
        path = self._require_target(request)
        existed = self.files.pop(path, None) is not None
        if existed:
            self.wal.append("file_del", {"path": path})
        return {"deleted": existed}

    def _op_list(self, request: AuthorizedRequest) -> dict:
        prefix = request.target or ""
        return {
            "paths": sorted(
                p for p in self.files if p.startswith(prefix)
            )
        }

    def _op_stat(self, request: AuthorizedRequest) -> dict:
        path = self._require_target(request)
        if path not in self.files:
            return {"exists": False, "size": 0}
        return {"exists": True, "size": len(self.files[path])}
