"""Write-ahead-log framing: length-prefixed, checksummed, torn-tail safe.

The durability layer (:mod:`repro.durability`) persists committed state
transitions — ledger postings, accept-once registrations, response-cache
entries, audit records — as a flat append-only log.  This module owns the
byte format and nothing else:

* **Record framing** — each record is ``[length:4][crc32:4][payload]``,
  both integers big-endian, the CRC taken over the payload bytes.  The
  payload is a canonically-encoded dict (see
  :mod:`repro.encoding.canonical`), so records are self-describing and
  byte-stable.  A declared wire type inside it encodes straight from its
  declaration, to the bytes of its ``to_wire()`` form.
* **Torn-tail tolerance** — a crash mid-append leaves a partial record at
  the end of the file: a short header, a payload shorter than its length
  prefix, or a CRC mismatch.  :func:`read_records` stops at the first
  such record and reports how many trailing bytes are garbage;
  :func:`truncate` cuts them off so the next append starts on a clean
  boundary.  Everything *before* the torn tail is intact — the framing
  guarantees a record boundary is never reused.
* **Snapshots** — a snapshot is a single framed record holding the whole
  captured state, written to a temporary file and atomically renamed
  into place, so a crash during compaction leaves either the old
  snapshot or the new one, never a half-written hybrid.

What a record or snapshot holds is each component's business: the
ledger's records are declared wire types (``docs/durability.md``).
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import BinaryIO, List, Optional, Tuple

from repro.encoding.canonical import decode, encode
from repro.errors import LedgerError

#: Bytes of framing before each record's payload: 4 length + 4 CRC32.
HEADER = struct.Struct(">II")

#: Refuse absurd length prefixes outright: a corrupt header could
#: otherwise ask us to buffer gigabytes before the CRC catches it.
MAX_RECORD = 16 * 1024 * 1024


class WalError(LedgerError):
    """A WAL record or snapshot could not be framed or parsed."""


# ---------------------------------------------------------------------------
# Record framing
# ---------------------------------------------------------------------------


def frame(payload: dict) -> bytes:
    """One framed record: header + canonical payload bytes."""
    body = encode(payload)
    if len(body) > MAX_RECORD:
        raise WalError(
            f"record of {len(body)} bytes exceeds the {MAX_RECORD}-byte cap"
        )
    return HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


def append_record(handle: BinaryIO, payload: dict, sync: bool = False) -> None:
    """Append one framed record through ``handle``, a log opened in append
    mode, and flush it to the OS; ``sync`` also fsyncs it to the disk."""
    handle.write(frame(payload))
    handle.flush()
    if sync:
        os.fsync(handle.fileno())


def scan(data: bytes) -> Tuple[List[dict], int]:
    """Parse framed records out of ``data``.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the
    offset of the first undecodable record — the torn tail starts there.
    A clean log returns ``valid_bytes == len(data)``.
    """
    records: List[dict] = []
    offset = 0
    total = len(data)
    while offset + HEADER.size <= total:
        length, crc = HEADER.unpack_from(data, offset)
        if length > MAX_RECORD:
            break  # corrupt header — treat the rest as torn
        start = offset + HEADER.size
        end = start + length
        if end > total:
            break  # partial payload: the append was interrupted
        body = data[start:end]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            break  # bit rot or a torn overwrite — stop before garbage
        try:
            payload = decode(body)
        except Exception:
            break
        if not isinstance(payload, dict):
            break
        records.append(payload)
        offset = end
    return records, offset


def read_records(path: str) -> Tuple[List[dict], int]:
    """All intact records in ``path`` plus the torn-tail byte count.

    A missing file is an empty log.  The file is *not* modified; callers
    decide whether to :func:`truncate` the torn tail.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0
    records, valid = scan(data)
    return records, len(data) - valid


def truncate(path: str, torn_bytes: int) -> None:
    """Cut ``torn_bytes`` of garbage off the end of the log."""
    if torn_bytes <= 0:
        return
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(0, size - torn_bytes))


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def write_snapshot(path: str, payload: dict) -> None:
    """Atomically replace the snapshot at ``path`` (tmp + rename)."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(frame(payload))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_snapshot(path: str) -> Optional[dict]:
    """The snapshot payload, or None when missing or unreadable.

    An unreadable snapshot is reported as None rather than raised: the
    atomic-rename write makes corruption here mean external damage, and
    recovery degrades to whatever the WAL alone can rebuild (the caller
    records the problem).
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    records, _ = scan(data)
    if len(records) != 1:
        return None
    return records[0]
