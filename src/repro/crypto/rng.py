"""Deterministic-capable random number generation.

All randomness used by the library (key generation, nonces, check numbers,
challenges) flows through a :class:`Rng` instance so that tests can be made
fully deterministic by seeding, while production use defaults to the
operating system's entropy via :mod:`secrets`.

The seeded generator is a simple counter-mode SHA-256 DRBG: output block
``i`` is ``SHA256(seed || counter)``.  This is not intended to be certified
crypto — it reproduces the *interface* the paper's mechanisms assume (an
unpredictable key/nonce source) while making every test replayable.
"""

from __future__ import annotations

import hashlib
import secrets
from typing import Optional


class Rng:
    """Random source; seeded (deterministic) or OS-backed (default).

    Args:
        seed: if given, all output is a deterministic function of the seed.
    """

    def __init__(self, seed: Optional[bytes] = None) -> None:
        self._seed = seed
        self._counter = 0

    def bytes(self, n: int) -> bytes:
        """Return ``n`` random bytes."""
        if n < 0:
            raise ValueError("cannot draw a negative number of bytes")
        if self._seed is None:
            return secrets.token_bytes(n)
        out = bytearray()
        while len(out) < n:
            block = hashlib.sha256(
                self._seed + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            out.extend(block)
        return bytes(out[:n])

    def int_below(self, bound: int) -> int:
        """Return a uniform integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbytes = (bound.bit_length() + 7) // 8
        # Rejection sampling keeps the distribution uniform.
        while True:
            candidate = int.from_bytes(self.bytes(nbytes + 1), "big")
            candidate %= 1 << (bound.bit_length() + 8)
            if candidate < bound * ((1 << (bound.bit_length() + 8)) // bound):
                return candidate % bound

    def int_bits(self, bits: int) -> int:
        """Return an integer with exactly ``bits`` bits (top bit set)."""
        if bits < 2:
            raise ValueError("need at least 2 bits")
        raw = int.from_bytes(self.bytes((bits + 7) // 8), "big")
        raw &= (1 << bits) - 1
        raw |= 1 << (bits - 1)
        return raw

    def odd_int_bits(self, bits: int) -> int:
        """Return an odd integer with exactly ``bits`` bits (prime candidate)."""
        return self.int_bits(bits) | 1

    def fork(self, label: bytes) -> "Rng":
        """Derive an independent child generator (deterministic iff seeded)."""
        if self._seed is None:
            return Rng()
        child_seed = hashlib.sha256(b"fork:" + self._seed + label).digest()
        return Rng(seed=child_seed)


#: Shared default instance backed by OS entropy.
DEFAULT_RNG = Rng()
