"""What a component persisted by a :class:`~repro.durability.DurabilityStore`
declares and supplies.

A :class:`Durable` component names its snapshot (:attr:`~Durable.SNAPSHOT`)
and the WAL record kinds it writes (:attr:`~Durable.RECORDS`), emits each
committed transition as ``self.wal.append(kind, data)``, and rebuilds
itself from a snapshot (:meth:`~Durable.restore_state`) and from single
records (:meth:`~Durable.replay`).  The record and snapshot wire forms are
the component's own; the store only frames, orders and routes them.
Until ``store.attach(component)`` binds it, ``wal`` is :data:`NULL_WAL`,
so the same component runs with or without a store and the write path
has no ``if``.

Only the standard library is imported: the ledger, the accept-once
registry, the response cache and the audit log all build on this module.
"""

from __future__ import annotations

from typing import Tuple


class _NullWal:
    """The store of a component nothing has attached: records go nowhere."""

    def append(self, kind: str, data: dict) -> None:
        pass


#: ``wal`` of every component until a store attaches it.
NULL_WAL = _NullWal()


class Durable:
    """A component whose committed state survives a crash-restart."""

    #: Name of this component's state in a snapshot.
    SNAPSHOT: str = ""
    #: The WAL record kinds this component writes and replays.
    RECORDS: Tuple[str, ...] = ()
    #: Where committed transitions go; the attaching store, once attached.
    wal = NULL_WAL

    def capture_state(self) -> dict:
        """Everything :meth:`restore_state` needs, canonically encodable."""
        raise NotImplementedError

    def restore_state(self, state: dict) -> None:
        """Rebuild from :meth:`capture_state` output (snapshot recovery)."""
        raise NotImplementedError

    def replay(self, kind: str, data: dict) -> None:
        """Re-apply one committed record of a kind in :attr:`RECORDS`."""
        raise NotImplementedError
