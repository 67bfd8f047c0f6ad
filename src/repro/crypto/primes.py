"""Prime generation and primality testing for RSA keys and Schnorr groups.

Implements deterministic trial division over small primes followed by
Miller–Rabin with enough rounds that the error probability is negligible for
the key sizes this library uses.  Pure Python; suitable for the 512–2048-bit
moduli used in the reproduction.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.crypto.rng import DEFAULT_RNG, Rng

#: Small primes for fast trial division before Miller–Rabin.
_SMALL_PRIMES = [2, 3]
for _candidate in range(5, 2000, 2):
    if all(_candidate % p for p in _SMALL_PRIMES):
        _SMALL_PRIMES.append(_candidate)

#: Deterministic Miller–Rabin witnesses valid for all n < 3.3e24; we add
#: random rounds on top for larger inputs.
_DETERMINISTIC_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """One Miller–Rabin round: True when ``n`` is still possibly prime."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rng: Optional[Rng] = None, rounds: int = 24) -> bool:
    """Return True when ``n`` is (almost certainly) prime.

    Uses trial division, deterministic witnesses, then ``rounds`` random
    Miller–Rabin rounds (error probability at most 4**-rounds).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    for a in _DETERMINISTIC_WITNESSES:
        if a >= n - 1:
            continue
        if not _miller_rabin_round(n, a, d, r):
            return False

    rng = rng or DEFAULT_RNG
    for _ in range(rounds):
        a = 2 + rng.int_below(n - 3)
        if not _miller_rabin_round(n, a, d, r):
            return False
    return True


def generate_prime(bits: int, rng: Optional[Rng] = None) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 16:
        raise ValueError("refusing to generate primes below 16 bits")
    rng = rng or DEFAULT_RNG
    while True:
        candidate = rng.odd_int_bits(bits)
        # Quick sieve: skip candidates with small factors without the cost
        # of a full Miller-Rabin run.
        if any(candidate % p == 0 for p in _SMALL_PRIMES[:64]):
            continue
        if is_probable_prime(candidate, rng=rng):
            return candidate


def generate_schnorr_group(
    pbits: int, qbits: int, rng: Optional[Rng] = None
) -> Tuple[int, int, int]:
    """Generate DSA-style group parameters ``(p, q, g)``.

    ``q`` is a ``qbits``-bit prime, ``p`` a ``pbits``-bit prime with
    ``q | p - 1`` (FIPS 186-style search over ``p = k*q + 1``), and ``g``
    the first ``h ** ((p - 1) / q)`` other than 1, which has order exactly
    ``q``.  Used once to produce the fixed groups in
    :mod:`repro.crypto.schnorr_groups`; library code never calls it at run time.
    """
    rng = rng or DEFAULT_RNG
    q = generate_prime(qbits, rng=rng)
    while True:
        candidate = rng.int_bits(pbits)
        p = candidate - candidate % (2 * q) + 1
        if p.bit_length() == pbits and is_probable_prime(p, rng=rng):
            break
    g = h = 1
    while g == 1:
        h += 1
        g = pow(h, (p - 1) // q, p)
    return p, q, g
