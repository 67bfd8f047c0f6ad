"""Shared benchmark scaffolding.

Every benchmark builds its own :class:`~repro.testbed.Realm` (seeded, so
runs are reproducible) and reports two kinds of results:

* **timing** via pytest-benchmark (the ``benchmark`` fixture);
* **protocol shape** — message counts from the network meter — printed as
  small tables through :func:`report`, because the paper's claims are about
  who talks to whom, not nanoseconds.

``EXPERIMENTS.md`` collects the printed tables.
"""

from __future__ import annotations

import pytest

from repro.obs import Telemetry
from repro.testbed import Realm


def report(title: str, rows, columns) -> None:
    """Print one experiment table.

    Rows shorter than the header are padded (and longer ones truncated) so
    a benchmark that filtered everything out — or emitted a partial row —
    still renders every column instead of crashing or silently dropping
    trailing columns in the zip below.
    """
    columns = [str(c) for c in columns]
    padded = [
        [str(v) for v in list(row)[: len(columns)]]
        + [""] * max(0, len(columns) - len(row))
        for row in rows
    ]
    widths = [
        max(len(column), *(len(row[i]) for row in padded))
        if padded
        else len(column)
        for i, column in enumerate(columns)
    ]
    lines = [
        "",
        f"--- {title} ---",
        "  " + " | ".join(c.ljust(w) for c, w in zip(columns, widths)),
        "  " + "-+-".join("-" * w for w in widths),
    ]
    for row in padded:
        lines.append(
            "  " + " | ".join(v.ljust(w) for v, w in zip(row, widths))
        )
    print("\n".join(lines))


@pytest.fixture
def telemetry():
    """A live Telemetry capturing crypto hot paths for one benchmark."""
    t = Telemetry(capture_crypto=True)
    try:
        yield t
    finally:
        t.release_crypto()


def fresh_realm(tag: bytes, telemetry=None) -> Realm:
    return Realm(seed=b"bench-" + tag, telemetry=telemetry)
