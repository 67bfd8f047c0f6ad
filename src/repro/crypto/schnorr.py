"""Schnorr signatures and integrated encryption in a short-order subgroup.

Public-key proxies (§6.1) need a fresh public/private keypair *per proxy*
("the proxy key embedded in the proxy certificate is a public key from a
public/private key pair").  RSA key generation costs two prime searches,
which is prohibitive per-grant in pure Python; Schnorr key generation is a
single modular exponentiation.  Schnorr is therefore the only public-key
scheme for proxy keys; RSA (:mod:`repro.crypto.rsa`) signs only where the
grantor's long-term identity key is RSA.

**The group.**  A group is the triple ``(p, q, g)``: ``q`` is a 256-bit
prime dividing ``p - 1`` and ``g`` has order exactly ``q`` modulo ``p``
(the DSA construction).  Every private key, nonce, challenge and response
lives modulo ``q``, so every exponent is 256 bits however wide ``p`` is —
the discrete-log problem is still posed in the ``p``-bit field, but a
generator exponentiation costs an eighth of what it does in the
order-``(p-1)/2`` subgroup of a safe prime, and a signature is ``2 * 32``
bytes instead of ``2 * plen``.  Groups are never derived from a modulus:
they come from the fixed table in :mod:`repro.crypto.schnorr_groups`, keyed
by ``p``.  A key's wire form carries only ``p`` and ``y``; a ``p`` that is
not in the table is rejected (:class:`CryptoError`, or
:class:`SignatureError` from the verification entry points), so a peer
cannot choose the modulus it is verified under.

**Membership checks.**  ``p - 1`` has a large cofactor ``(p - 1) / q``, so
unlike a safe-prime group there are small-subgroup elements to keep out:

* every public key is range-checked ``1 < y < p - 1`` when it is decoded
  (:meth:`SchnorrPublicKey.from_wire`) and again on use by :func:`verify`,
  :func:`verify_batch`, :func:`encrypt_to` and
  :func:`register_verification_key`;
* :func:`register_verification_key` checks ``y ** q == 1`` once per key
  before building its table, and remembers a refusal;
* :func:`decrypt` checks ``ephemeral ** q == 1`` *before* the long-term
  private exponent touches the ephemeral value, so a chosen ciphertext
  cannot leak ``x`` modulo a small factor of the cofactor.

Signatures are the standard Fiat–Shamir Schnorr scheme; the "integrated
encryption" functions implement a DH/ElGamal KEM with the library's
authenticated symmetric cipher, used to seal conventional proxy keys to an
end-server (§6.1 hybrid scheme).

Modular exponentiation dominates the uncached verification cost, so a
base that recurs gets a **precomputed table**, in the layout each kind of
base can afford.  The generator ``g`` of each group gets a windowed
:class:`FixedBaseTable` — one lookup and multiply per 6 bits of
exponent, no squarings, about 6x faster than ``pow()`` on a 256-bit
exponent, but 0.8 MB and 50 ms to build at 2048 bits: right for one
table per group.  A verification key gets a Lim–Lee :class:`CombTable`
— 37 squarings and at most 37 multiplies, about 4x faster than
``pow()``, for 38 KiB and about one native exponentiation of build
time: cheap enough for any key seen twice.  Verifiers register
(:func:`register_verification_key`) the grantor and delegate keys a
chain walk resolves on first sight — they sign every cold chain they
root — and two keys only when they recur: the *embedded proxy key* of a
chain once the chain cache reports it warm, and a claimant's §6.1
envelope key on its second request.  The possession proof and the
envelope are the signatures every request pays.
Tables refuse an exponent wider than they were built for, self-check
against ``pow()`` at build time, and verification re-checks any
*negative* result natively, so a corrupted table can slow verification
down but never change a verdict.  A table is arithmetic only: the
``y ** q == 1`` test is made before one is built.

There is no amortized batch verifier.  An ``(e, s)`` signature hides its
commitment: ``r' = g**s * y**-e`` has to be recomputed per signature to
be hashed into the challenge, so k signatures cost k commitment pairs
however they are grouped.  :func:`verify_batch` is :func:`verify` applied
to a list, reporting per item instead of raising.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bounded import BoundedStore
from repro.crypto import symmetric
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.crypto.schnorr_groups import (
    DEFAULT_GROUP,
    GROUPS,
    TEST_GROUP,
    SchnorrGroup,
)
from repro.errors import CryptoError, SignatureError

_HASH = hashlib.sha256


# ---------------------------------------------------------------------------
# Named-group parameters
# ---------------------------------------------------------------------------

def _params(p: int, error: type = CryptoError) -> SchnorrGroup:
    """Look a group up by modulus; a modulus outside the table is refused."""
    params = GROUPS.get(p)
    if params is None:
        raise error("unknown schnorr group")
    return params


def _key_params(
    key: "SchnorrPublicKey", error: type = CryptoError
) -> SchnorrGroup:
    """The group of a public key, once the key is known to fit in it."""
    params = _params(key.group_p, error)
    if not 1 < key.y < params.p - 1:
        raise error("schnorr public key out of range")
    return params


# ---------------------------------------------------------------------------
# Fixed-base precomputation: a window table per group, a comb per key
# ---------------------------------------------------------------------------

#: Window width in bits of a generator table.  Wider windows trade
#: precompute time and memory for fewer multiplies per exponentiation;
#: every exponent is 256 bits, so 6 gives 43 rows of 64 entries in either
#: group — 43 multiplies per power, and a 2048-bit table of ~0.8 MB that
#: builds in ~50 ms.  Worth it once per *group*.
_WINDOW = 6

#: Teeth of a per-key comb.  A 256-bit exponent becomes 7 interleaved
#: 37-bit sub-exponents read one column at a time: 37 squarings and at
#: most 37 multiplies per power against one table of 128 products.  At
#: 2048 bits that is 38 KiB built in about one native exponentiation
#: (4.5 ms) for a 1.0-1.1 ms power (native 4.1 ms); 6 or 8 teeth measure
#: 1.24 / 0.90 ms and are indistinguishable end to end.
_TEETH = 7


def _check_width(exponent: int, exponent_bits: int) -> None:
    """Refuse an exponent a table was not built for.

    Callers only ever pass values below ``q``; anything wider (or
    negative) would index past the table, so it is an error here rather
    than a wrong power there.
    """
    if exponent < 0 or exponent.bit_length() > exponent_bits:
        raise CryptoError(
            f"exponent outside the table's {exponent_bits}-bit width"
        )


def _self_check(table, witness: Optional[Tuple[int, int]] = None) -> None:
    """Validate a freshly built table against native ``pow()``.

    The reference is one full-width exponentiation: ``witness`` when the
    caller already holds a native ``(exponent, base**exponent)`` pair,
    else a deterministic pseudo-random probe.  A construction bug
    surfaces here rather than as wrong verification results.
    """
    if witness is None:
        exponent_bits = table.exponent_bits
        material = b"%d:%d" % (table.p, table.base)
        probe = int.from_bytes(
            _HASH(b"fixed-base-check:" + material).digest()
            * ((exponent_bits + 255) // 256),
            "big",
        ) % (1 << exponent_bits)
        witness = (probe, pow(table.base, probe, table.p))
    exponent, expected = witness
    if table.pow(exponent) != expected:
        raise CryptoError("fixed-base table failed its build self-check")


class FixedBaseTable:
    """Windowed precomputation table for a group generator.

    Row ``j`` holds ``base**(d * 2**(_WINDOW*j)) mod p`` for every window
    digit ``d``, so ``base**e`` is the product of one table entry per
    nonzero window of ``e`` — no squarings, and the whole loop is a few
    dozen big-int multiplies instead of square-and-multiply from scratch.
    The fastest layout measured for a base that lives as long as the
    process; far too big and slow to build per key (see
    :class:`CombTable`).
    """

    __slots__ = ("base", "p", "exponent_bits", "_rows")

    def __init__(self, base: int, p: int, exponent_bits: int) -> None:
        self.base = base
        self.p = p
        self.exponent_bits = exponent_bits
        rows = []
        level = base % p
        for _ in range((exponent_bits + _WINDOW - 1) // _WINDOW):
            row = [1] * (1 << _WINDOW)
            acc = 1
            for digit in range(1, 1 << _WINDOW):
                acc = acc * level % p
                row[digit] = acc
            rows.append(row)
            level = acc * level % p  # level ** (2 ** _WINDOW)
        self._rows = rows
        _self_check(self)

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod p`` via table lookups and multiplies."""
        _check_width(exponent, self.exponent_bits)
        acc = 1
        p = self.p
        mask = (1 << _WINDOW) - 1
        rows = self._rows
        index = 0
        while exponent:
            digit = exponent & mask
            if digit:
                acc = acc * rows[index][digit] % p
            exponent >>= _WINDOW
            index += 1
        return acc


class CombTable:
    """Lim–Lee comb for exponentiations of one verification key.

    The exponent is cut into ``_TEETH`` blocks of ``cols`` bits; entry
    ``m`` of the table is the product of ``base**(2**(cols*i))`` over the
    set bits ``i`` of ``m``.  Reading the blocks side by side, column
    ``c`` (most significant first) picks the entry whose bits are the
    ``c``-th bit of every block, so ``base**e`` takes ``cols`` squarings
    and at most ``cols`` multiplies.  The table costs about one native
    exponentiation to build and is 20x smaller than a window table, which
    is what makes it worth giving to a key that has only been seen twice.

    It computes exactly ``base**e mod p`` for *any* base — subgroup
    membership is the caller's question, not the table's.
    """

    __slots__ = ("base", "p", "exponent_bits", "_cols", "_format", "_table")

    def __init__(
        self,
        base: int,
        p: int,
        exponent_bits: int,
        witness: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.base = base
        self.p = p
        self.exponent_bits = exponent_bits
        cols = self._cols = (exponent_bits + _TEETH - 1) // _TEETH
        self._format = "0%db" % (cols * _TEETH)
        table = [1] * (1 << _TEETH)
        level = base % p
        for tooth in range(_TEETH):
            if tooth:
                level = pow(level, 1 << cols, p)  # base ** 2**(cols*tooth)
            bit = 1 << tooth
            for lower in range(bit):
                table[bit + lower] = table[lower] * level % p
        self._table = table
        _self_check(self, witness)

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod p`` via one squaring and lookup per column."""
        _check_width(exponent, self.exponent_bits)
        # Block i of the exponent occupies characters [i*cols, (i+1)*cols)
        # of the zero-padded bit string, most significant block first, so
        # the stride-``cols`` slice from ``c`` is column c's table index.
        bits = format(exponent, self._format)
        cols = self._cols
        p = self.p
        table = self._table
        acc = 1
        for column in range(cols):
            acc = acc * acc % p
            entry = int(bits[column::cols], 2)
            if entry:
                acc = acc * table[entry] % p
        return acc


#: Master switch for the table fast path.  Benchmarks flip it to measure
#: the plain square-and-multiply baseline; verdicts never depend on it.
_precompute_enabled = True


def set_precompute(enabled: bool) -> bool:
    """Enable/disable precomputed tables process-wide; returns the previous
    setting (tables are kept, just bypassed while disabled)."""
    global _precompute_enabled
    previous = _precompute_enabled
    _precompute_enabled = bool(enabled)
    return previous


_GENERATOR_TABLES: Dict[int, FixedBaseTable] = {}

#: LRU of combs for verification keys, keyed (p, y).  Every table in it
#: belongs to a key that passed ``y**q == 1``; a key that failed is kept
#: as ``None`` so it is refused again without another exponentiation.
#: Sized like the default chain-prefix cache that feeds it (a proxy key is
#: promoted on a warm chain hit; a verifier's marks of claimant keys seen
#: once share the bound): 1024 combs are 38 MiB at 2048 bits.
#: The generator tables are unbounded but there is one per *group*, of
#: which a process has a few.
_MAX_KEY_TABLES = 1024
_KEY_TABLES = BoundedStore(_MAX_KEY_TABLES)

_NOT_IN_SUBGROUP = "schnorr public key outside the order-q subgroup"


def _generator_table(params: SchnorrGroup) -> FixedBaseTable:
    table = _GENERATOR_TABLES.get(params.p)
    if table is None:
        table = _GENERATOR_TABLES[params.p] = FixedBaseTable(
            params.g, params.p, params.q.bit_length()
        )
    return table


def register_verification_key(key: "SchnorrPublicKey") -> bool:
    """Precompute a comb for a verification key that recurs.

    Called by verifiers for grantor and delegate keys on first sight, for
    an embedded proxy key once its chain is a warm cache hit, and for a
    claimant's envelope key on its second request (a key seen once is not
    worth a table).  Tables are keyed by ``(p, y)``, so a
    rotated key is a *different* key: the old table simply ages out of
    the LRU and can never answer for the new key.  Returns True when a
    table was newly built.

    Raises:
        CryptoError: when the key is not an element of its group's
            order-``q`` subgroup (tested once per key, before a table is
            built; the refusal is remembered while the key stays in the
            LRU).
    """
    table_key = (key.group_p, key.y)
    known = _KEY_TABLES.lookup(table_key, False)
    if known is not False:
        if known is None:
            raise CryptoError(_NOT_IN_SUBGROUP)
        return False
    params = _key_params(key)
    q = params.q
    table = None
    if pow(key.y, q, params.p) == 1:
        # The native y**q just computed doubles as the build witness.
        table = CombTable(key.y, params.p, q.bit_length(), witness=(q, 1))
    _KEY_TABLES.put(table_key, table)
    if table is None:
        raise CryptoError(_NOT_IN_SUBGROUP)
    return True


def registered_key_count() -> int:
    """How many verification keys currently hold precomputed tables."""
    return sum(table is not None for table in _KEY_TABLES.values())


def key_table_evictions() -> int:
    """How many entries the per-key LRU has evicted since import."""
    return _KEY_TABLES.evictions


def clear_key_tables() -> None:
    """Drop all per-key tables (tests / memory pressure)."""
    _KEY_TABLES.clear()


def _gen_pow(params: SchnorrGroup, exponent: int) -> int:
    """``g ** exponent mod p`` through the group table when enabled."""
    if _precompute_enabled:
        return _generator_table(params).pow(exponent)
    return pow(params.g, exponent, params.p)


def _key_pow(params: SchnorrGroup, key: "SchnorrPublicKey", exponent: int) -> int:
    """``y ** exponent mod p``, table-accelerated for registered keys."""
    if _precompute_enabled:
        table = _KEY_TABLES.lookup((key.group_p, key.y))
        if table is not None:
            return table.pow(exponent)
    return pow(key.y, exponent, params.p)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchnorrPublicKey:
    """Schnorr public key ``y = g**x mod p``."""

    group_p: int
    y: int

    @property
    def group(self) -> SchnorrGroup:
        return _params(self.group_p)

    def to_wire(self) -> dict:
        return {"p": self.group_p, "y": self.y}

    @classmethod
    def from_wire(cls, wire: dict) -> "SchnorrPublicKey":
        key = cls(group_p=int(wire["p"]), y=int(wire["y"]))
        _key_params(key)
        return key

    def fingerprint(self) -> bytes:
        material = b"%d:%d" % (self.group_p, self.y)
        return _HASH(b"schnorr-fp:" + material).digest()[:16]


@dataclass(frozen=True)
class SchnorrPrivateKey:
    """Schnorr private key ``x`` with its public half."""

    group_p: int
    x: int = field(repr=False)
    y: int

    @property
    def public(self) -> SchnorrPublicKey:
        return SchnorrPublicKey(group_p=self.group_p, y=self.y)


def generate_keypair(
    group: SchnorrGroup = DEFAULT_GROUP, rng: Optional[Rng] = None
) -> SchnorrPrivateKey:
    """Generate a Schnorr keypair (one modexp; cheap enough per proxy)."""
    rng = rng or DEFAULT_RNG
    params = _params(group.p)
    x = rng.int_below(params.q - 1) + 1
    y = _gen_pow(params, x)
    return SchnorrPrivateKey(group_p=group.p, x=x, y=y)


def _challenge(params: SchnorrGroup, r: int, y: int, message: bytes) -> int:
    plen = params.plen
    digest = _HASH(
        b"schnorr:" + r.to_bytes(plen, "big") + y.to_bytes(plen, "big") + message
    ).digest()
    return int.from_bytes(digest, "big") % params.q


def sign(
    key: SchnorrPrivateKey, message: bytes, rng: Optional[Rng] = None
) -> bytes:
    """Produce a Schnorr signature (e, s) over ``message``."""
    rng = rng or DEFAULT_RNG
    params = _params(key.group_p)
    q = params.q
    k = rng.int_below(q - 1) + 1
    r = _gen_pow(params, k)
    e = _challenge(params, r, key.y, message)
    s = (k + key.x * e) % q
    qlen = params.qlen
    return e.to_bytes(qlen, "big") + s.to_bytes(qlen, "big")


def _parse_signature(
    params: SchnorrGroup, signature: bytes
) -> Tuple[int, int]:
    """Split and range-check an (e, s) signature; raise SignatureError."""
    qlen = params.qlen
    if len(signature) != 2 * qlen:
        raise SignatureError("schnorr signature has wrong length")
    e = int.from_bytes(signature[:qlen], "big")
    s = int.from_bytes(signature[qlen:], "big")
    if not (0 <= e < params.q and 0 <= s < params.q):
        raise SignatureError("schnorr signature values out of range")
    return e, s


def _commitment(
    params: SchnorrGroup, key: SchnorrPublicKey, e: int, s: int
) -> int:
    """Recover the signer's commitment r' = g**s * y**(-e) mod p."""
    u = _gen_pow(params, s)
    v = _key_pow(params, key, params.q - e)
    return u * v % params.p


def _native_recheck(
    params: SchnorrGroup, key: SchnorrPublicKey, message: bytes, e: int, s: int
) -> bool:
    """Re-verify one signature with plain pow() (no tables).

    :func:`_check` calls this before reporting a *failure*, so a damaged
    precomputation table can never turn a valid signature into a
    rejection — the failure verdict always has a native witness.
    """
    r_prime = (
        pow(params.g, s, params.p)
        * pow(key.y, params.q - e, params.p)
    ) % params.p
    return _challenge(params, r_prime, key.y, message) == e


def _check(
    key: SchnorrPublicKey, message: bytes, signature: bytes
) -> Optional[SignatureError]:
    """Every check one signature gets; the error, or None when it verifies."""
    try:
        params = _key_params(key, SignatureError)
        e, s = _parse_signature(params, signature)
    except SignatureError as exc:
        return exc
    r_prime = _commitment(params, key, e, s)
    if _challenge(params, r_prime, key.y, message) != e:
        if not (_precompute_enabled and _native_recheck(
            params, key, message, e, s
        )):
            return SignatureError("schnorr signature verification failed")
    return None


def verify(key: SchnorrPublicKey, message: bytes, signature: bytes) -> None:
    """Verify a Schnorr signature.

    Raises:
        SignatureError: when the signature does not verify.
    """
    error = _check(key, message, signature)
    if error is not None:
        raise error


def verify_batch(
    items: Sequence[Tuple[SchnorrPublicKey, bytes, bytes]],
) -> List[Optional[SignatureError]]:
    """Verify many (key, message, signature) triples, one by one.

    ``errors[i]`` is None when item ``i`` verified, else exactly the
    :class:`SignatureError` that :func:`verify` would raise for it; a bad
    item never stops the ones after it.
    """
    return [_check(*item) for item in items]


# ---------------------------------------------------------------------------
# Integrated encryption (DH KEM + authenticated symmetric cipher)
# ---------------------------------------------------------------------------

def encrypt_to(
    key: SchnorrPublicKey, plaintext: bytes, rng: Optional[Rng] = None
) -> bytes:
    """Encrypt ``plaintext`` so only the private-key holder can read it.

    Ephemeral-static Diffie–Hellman against ``y``, then authenticated
    symmetric encryption under the derived key.  Wire form::

        ephemeral_public (plen bytes) || sealed box
    """
    rng = rng or DEFAULT_RNG
    params = _key_params(key)
    k = rng.int_below(params.q - 1) + 1
    ephemeral = _gen_pow(params, k)
    shared = pow(key.y, k, params.p)
    plen = params.plen
    sym = _HASH(b"ies-kdf:" + shared.to_bytes(plen, "big")).digest()[
        : symmetric.KEY_LEN
    ]
    box = symmetric.seal(sym, plaintext, associated_data=b"schnorr-ies", rng=rng)
    return ephemeral.to_bytes(plen, "big") + box


def decrypt(key: SchnorrPrivateKey, ciphertext: bytes) -> bytes:
    """Decrypt a box produced by :func:`encrypt_to`.

    Raises:
        CryptoError: on truncation, or an ephemeral value out of range
            or outside the order-``q`` subgroup.
        IntegrityError: when the authenticated box fails to open.
    """
    params = _params(key.group_p)
    plen = params.plen
    if len(ciphertext) < plen + symmetric.NONCE_LEN + symmetric.TAG_LEN:
        raise CryptoError("IES ciphertext too short")
    ephemeral = int.from_bytes(ciphertext[:plen], "big")
    if not 2 <= ephemeral <= params.p - 2:
        raise CryptoError("IES ephemeral value out of range")
    # Checked before x touches it: an element of small order would leak
    # x modulo that order through whether the box opens.
    if pow(ephemeral, params.q, params.p) != 1:
        raise CryptoError("IES ephemeral value outside the order-q subgroup")
    shared = pow(ephemeral, key.x, params.p)
    sym = _HASH(b"ies-kdf:" + shared.to_bytes(plen, "big")).digest()[
        : symmetric.KEY_LEN
    ]
    return symmetric.unseal(
        sym, ciphertext[plen:], associated_data=b"schnorr-ies"
    )


__all__ = [
    "SchnorrGroup",
    "SchnorrPublicKey",
    "SchnorrPrivateKey",
    "FixedBaseTable",
    "CombTable",
    "generate_keypair",
    "sign",
    "verify",
    "verify_batch",
    "register_verification_key",
    "registered_key_count",
    "key_table_evictions",
    "clear_key_tables",
    "set_precompute",
    "encrypt_to",
    "decrypt",
    "DEFAULT_GROUP",
    "TEST_GROUP",
]
