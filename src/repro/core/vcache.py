"""Verification fast-path caches and their configuration.

Repeat presentations of the same proxy chain dominate real workloads
(Fig. 3 authorization proxies, Fig. 4 cascades, Fig. 5 checks).  The
verification pipeline stays five stages, but two of them operate on
immutable inputs and can be legitimately amortized:

* stage 1 (root signature) and stage 2 (chain walk): certificates are
  frozen and canonically encoded, so a (chain prefix, key material)
  pair that verified once verifies forever — cached here by
  :class:`ChainPrefixCache` and by the signature memo in
  :mod:`repro.crypto.signature`.
* stages 3–5 (freshness, possession/identity, replay suppression,
  restriction evaluation) are *per-request* by construction and MUST
  never be cached; the verifier always re-runs them.

The chain cache key is a rolling hash over each link's content digest
plus an identity token derived from the *live* key material used to
check that link (the grantor's shared key fingerprint or directory
public key).  Rotating or revoking a key changes the token, so stale
entries become unreachable rather than dangerous.

:class:`VerificationCacheConfig` is the single knob: injectable
per-verifier, with a process default that ``--no-verify-cache`` and the
testbed flip.  Disabling it removes both the chain cache and the global
signature cache.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.bounded import BoundedStore
from repro.crypto.signature import SignatureCache, set_signature_cache


@dataclass(frozen=True)
class VerificationCacheConfig:
    """On/off switch for the verification fast path.

    Attributes:
        enabled: ``False`` turns off the chain-prefix cache *and* the
            global signature memo.
    """

    enabled: bool = True

    def build_chain_cache(self) -> Optional["ChainPrefixCache"]:
        if not self.enabled:
            return None
        return ChainPrefixCache()

    def build_signature_cache(self) -> Optional[SignatureCache]:
        if not self.enabled:
            return None
        return SignatureCache()


#: Everything on.
DEFAULT_CONFIG = VerificationCacheConfig()

#: Fast path fully off — what ``--no-verify-cache`` installs.
DISABLED_CONFIG = VerificationCacheConfig(enabled=False)

_default_config: VerificationCacheConfig = DEFAULT_CONFIG


def current_config() -> VerificationCacheConfig:
    """The process default picked up by verifiers built without one."""
    return _default_config


def set_default_config(
    config: VerificationCacheConfig,
) -> VerificationCacheConfig:
    """Install a new process default and swap the global signature cache.

    Returns the previous config so callers can restore it.
    """
    global _default_config
    previous = _default_config
    _default_config = config
    set_signature_cache(config.build_signature_cache())
    return previous


@contextmanager
def override(config: VerificationCacheConfig) -> Iterator[None]:
    """Temporarily install ``config`` as the process default.

    Verifiers constructed inside the block pick it up; the previous
    default (and its fresh signature cache) is restored on exit.
    """
    previous = set_default_config(config)
    try:
        yield
    finally:
        set_default_config(previous)


class ChainPrefixCache:
    """LRU memo of verified chain prefixes (stages 1–2 only).

    Keys are rolling hashes built link by link during the forward walk
    (see ``ProxyVerifier._verify_presentation``); values are the
    possession material the walk would have produced after that link.
    Only *successful* walks are stored — a chain that fails stages 1–2
    leaves no entry, so rejections are always recomputed.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = max_entries
        self._entries = BoundedStore(max_entries)

    def get(self, key: bytes) -> Optional[object]:
        return self._entries.lookup(key)

    def put(self, key: bytes, value: object) -> int:
        """Store a verified prefix; returns how many entries were evicted."""
        return self._entries.put(key, value)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        return self._entries.stats()

    def __len__(self) -> int:
        return len(self._entries)
