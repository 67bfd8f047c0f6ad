"""Rendering a cascaded proxy chain (Fig. 4, §3.4) for protocol traces.

The cryptographic walk of a chain, and everything it derives from one
(audit trail, expiry, quotas), lives in :mod:`repro.core.verification`;
this module only prints a chain in the paper's bracket notation, which
needs no keys.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.certificate import LINK_CASCADE, ProxyCertificate


def describe(certs: Tuple[ProxyCertificate, ...]) -> str:
    """Render a chain in the paper's Fig. 4 notation, one link per line::

        [restrictions1, Kproxy1]grantor
        [restrictions2, Kproxy2]Kproxy1
        ...
    """
    lines: List[str] = []
    for index, cert in enumerate(certs):
        names = ",".join(
            r.to_wire()["type"] for r in cert.restrictions
        ) or "no-restrictions"
        key = f"Kproxy{index + 1}"
        if index == 0:
            signer = str(cert.grantor)
        elif cert.link_kind == LINK_CASCADE:
            signer = f"Kproxy{index}"
        else:
            signer = f"{cert.grantor} (delegate)"
        lines.append(f"[{names}, {key}]{{{signer}}}")
    return "\n".join(lines)
