"""The durability store: one directory of WAL + snapshot per server.

A :class:`DurabilityStore` is the seam between in-memory server state and
disk.  Each persisted component (the ledger with its accounts, the
accept-once registry, the response cache, the audit log, the file store)
is a :class:`~repro.durable.Durable`, and :meth:`DurabilityStore.attach`
binds it once: its record kinds replay through its ``replay``, its state
is one named part of every snapshot, and its ``wal`` becomes this store.

Components write through :meth:`append`, which no-ops while
:attr:`replaying` is set — so replay cannot re-log what it is
re-applying.  The store opens ``wal.log`` once, on its first append, and
every append is one write and one flush through that handle: after it
the record is in the OS, which is all the crash model (process state
lost, files kept) asks.  Every ``snapshot_every`` appends the store
compacts: capture all components, write the snapshot atomically (tmp +
rename), truncate the WAL through the handle.  Recovery is
snapshot-then-WAL, with a torn trailing record truncated rather than
replayed (a crash mid-append must not poison the log — see
``docs/durability.md``).

The exactly-once contract this enables: a server rebuilt from its store
remembers paid check numbers, consumed accept-once identifiers, and
``_rid``-keyed responses, so a resend that arrives after a crash-restart
is still answered from cache / rejected as a replay instead of
re-executing side effects (§4: the check number is kept "until the
expiration time on the check" — not until the process exits).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import BinaryIO, Dict, List, Optional

from repro.durable import Durable
from repro.ledger import wal

#: File names inside a store directory.
WAL_NAME = "wal.log"
SNAPSHOT_NAME = "snapshot.bin"


@dataclass
class RecoveryReport:
    """What one :meth:`DurabilityStore.recover` call rebuilt."""

    snapshot_restored: bool = False
    #: Records re-applied from the WAL, by kind.
    replayed: Dict[str, int] = field(default_factory=dict)
    #: Garbage bytes truncated off the WAL tail (a torn final append).
    torn_bytes: int = 0
    #: Anything that prevented a faithful rebuild (unknown record kinds,
    #: replays that raised, an unreadable snapshot with a non-empty
    #: compaction history).  Empty means the recovery is trustworthy.
    problems: List[str] = field(default_factory=list)

    @property
    def total_replayed(self) -> int:
        return sum(self.replayed.values())

    @property
    def ok(self) -> bool:
        return not self.problems


class DurabilityStore:
    """Append-only WAL + periodic snapshot for one server's state."""

    def __init__(
        self,
        directory: str,
        snapshot_every: int = 512,
        telemetry=None,
        server: str = "",
        sync: bool = False,
    ) -> None:
        """``snapshot_every`` appends trigger a compaction (0 disables
        automatic compaction; :meth:`compact` stays available).  ``sync``
        fsyncs every append — real durability at real cost; the default
        relies on OS buffering, which the simulated crash model (process
        state lost, files kept) matches exactly."""
        from repro.obs.telemetry import NO_TELEMETRY

        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.snapshot_every = snapshot_every
        self.telemetry = telemetry if telemetry is not None else NO_TELEMETRY
        self.server = server
        self.sync = sync
        #: Set while :meth:`recover` replays — appends are suppressed so
        #: replay cannot re-log what it is re-applying.
        self.replaying = False
        #: Snapshot name -> component, in attach order.
        self._components: Dict[str, Durable] = {}
        #: Record kind -> the component that replays it.
        self._replayers: Dict[str, Durable] = {}
        self.appends = 0
        self.compactions = 0
        self._since_snapshot = 0
        self.recovered: Optional[RecoveryReport] = None
        #: ``wal.log`` opened for appending, from the first append on.
        self._handle: Optional[BinaryIO] = None

    # ------------------------------------------------------------------

    @property
    def wal_path(self) -> str:
        return os.path.join(self.directory, WAL_NAME)

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.directory, SNAPSHOT_NAME)

    def attach(self, component: Durable) -> None:
        """Persist ``component``: replay its record kinds through it, keep
        its state in every snapshot, and make this store its ``wal``.

        A record kind or snapshot name another attached component already
        claims is refused: recovery could not tell the two apart.
        """
        claimed = [
            kind for kind in component.RECORDS if kind in self._replayers
        ]
        if component.SNAPSHOT in self._components:
            claimed.append(component.SNAPSHOT)
        if claimed:
            raise ValueError(
                f"{type(component).__name__} claims {claimed}, already "
                f"attached to the store in {self.directory}"
            )
        self._components[component.SNAPSHOT] = component
        for kind in component.RECORDS:
            self._replayers[kind] = component
        component.wal = self

    def reopen(self) -> "DurabilityStore":
        """The store a new process opens on this directory: the same
        settings, no component attached, nothing counted yet.  This store's
        log handle is closed; the new store opens its own."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        return DurabilityStore(
            self.directory, self.snapshot_every, self.telemetry,
            self.server, self.sync,
        )

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------

    def _log(self) -> BinaryIO:
        """The open log, opened on first use."""
        if self._handle is None:
            self._handle = open(self.wal_path, "ab")
        return self._handle

    def append(self, kind: str, data) -> None:
        """Log one committed transition (no-op during replay).  ``data`` is
        a declared wire value or a dict of encodable values; replay gets
        the decoded dict either way."""
        if self.replaying:
            return
        wal.append_record(self._log(), {"kind": kind, "data": data}, self.sync)
        self.appends += 1
        self._since_snapshot += 1
        self.telemetry.inc(
            "wal.appends_total",
            help="Committed state transitions appended to the WAL, by kind.",
            server=self.server,
            kind=kind,
        )
        if self.snapshot_every and self._since_snapshot >= self.snapshot_every:
            self.compact()

    def compact(self) -> None:
        """Fold the WAL into a fresh snapshot and truncate the log."""
        with self.telemetry.span(
            "wal.compact", server=self.server, appends=self._since_snapshot
        ):
            state = {
                name: component.capture_state()
                for name, component in self._components.items()
            }
            wal.write_snapshot(self.snapshot_path, {"components": state})
            # The snapshot now covers everything the WAL said; records
            # appended after the rename start a fresh log.
            self._log().truncate(0)
        self.compactions += 1
        self._since_snapshot = 0
        self.telemetry.inc(
            "wal.compactions_total",
            help="Snapshot+truncate compaction cycles.",
            server=self.server,
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Rebuild attached components: snapshot first, then the WAL.

        A torn trailing record (crash mid-append) is truncated, never
        replayed.  Returns the report; also kept as :attr:`recovered`.
        """
        report = RecoveryReport()
        with self.telemetry.span("wal.recover", server=self.server):
            self.replaying = True
            try:
                snapshot = wal.read_snapshot(self.snapshot_path)
                if snapshot is not None:
                    components = snapshot.get("components", {})
                    for name, component in self._components.items():
                        if name in components:
                            component.restore_state(components[name])
                    for name in components:
                        if name not in self._components:
                            report.problems.append(
                                f"snapshot component {name!r} has no "
                                "attached component"
                            )
                    report.snapshot_restored = True
                elif os.path.exists(self.snapshot_path):
                    report.problems.append(
                        "snapshot file exists but is unreadable; state "
                        "before the last compaction is lost"
                    )
                records, torn = wal.read_records(self.wal_path)
                if torn:
                    wal.truncate(self.wal_path, torn)
                    report.torn_bytes = torn
                    self.telemetry.inc(
                        "wal.torn_tail_bytes_total",
                        torn,
                        help="Garbage bytes truncated off torn WAL tails.",
                        server=self.server,
                    )
                for record in records:
                    kind = record.get("kind", "")
                    component = self._replayers.get(kind)
                    if component is None:
                        report.problems.append(
                            f"WAL record kind {kind!r} has no attached "
                            "component"
                        )
                        continue
                    try:
                        component.replay(kind, record.get("data", {}))
                    except Exception as exc:
                        report.problems.append(
                            f"replaying {kind!r} failed: "
                            f"{type(exc).__name__}: {exc}"
                        )
                        continue
                    report.replayed[kind] = report.replayed.get(kind, 0) + 1
                    self.telemetry.inc(
                        "wal.replayed_total",
                        help="WAL records re-applied during recovery, "
                        "by kind.",
                        server=self.server,
                        kind=kind,
                    )
            finally:
                self.replaying = False
        self._since_snapshot = report.total_replayed
        self.recovered = report
        if self.telemetry.enabled:
            self.telemetry.event(
                "wal.recovered",
                server=self.server,
                snapshot=report.snapshot_restored,
                replayed=report.total_replayed,
                torn_bytes=report.torn_bytes,
                problems=len(report.problems),
            )
        return report
