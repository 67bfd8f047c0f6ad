"""Random generation and primality testing."""

import pytest

from repro.crypto.primes import (
    generate_prime,
    is_probable_prime,
)
from repro.crypto.rng import Rng


class TestRng:
    def test_seeded_is_deterministic(self):
        a = Rng(seed=b"s").bytes(64)
        b = Rng(seed=b"s").bytes(64)
        assert a == b

    def test_different_seeds_differ(self):
        assert Rng(seed=b"x").bytes(32) != Rng(seed=b"y").bytes(32)

    def test_unseeded_differs_across_draws(self):
        rng = Rng()
        assert rng.bytes(32) != rng.bytes(32)

    def test_stream_position_advances(self):
        rng = Rng(seed=b"s")
        assert rng.bytes(16) != rng.bytes(16)

    def test_int_below_in_range(self):
        rng = Rng(seed=b"r")
        for bound in (1, 2, 7, 100, 2**40):
            for _ in range(50):
                assert 0 <= rng.int_below(bound) < bound

    def test_int_below_covers_values(self):
        rng = Rng(seed=b"cover")
        seen = {rng.int_below(4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_int_bits_has_top_bit(self):
        rng = Rng(seed=b"bits")
        for bits in (8, 16, 64, 200):
            value = rng.int_bits(bits)
            assert value.bit_length() == bits

    def test_odd_int_bits_odd(self):
        rng = Rng(seed=b"odd")
        assert all(rng.odd_int_bits(32) % 2 == 1 for _ in range(20))

    def test_fork_independent_and_deterministic(self):
        a = Rng(seed=b"s").fork(b"child").bytes(16)
        b = Rng(seed=b"s").fork(b"child").bytes(16)
        c = Rng(seed=b"s").fork(b"other").bytes(16)
        assert a == b
        assert a != c

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Rng().bytes(-1)

    def test_zero_bound_rejected(self):
        with pytest.raises(ValueError):
            Rng().int_below(0)


class TestPrimes:
    @pytest.mark.parametrize(
        "n", [2, 3, 5, 7, 11, 101, 7919, 104729, 2**61 - 1]
    )
    def test_known_primes(self, n):
        assert is_probable_prime(n)

    @pytest.mark.parametrize(
        "n", [0, 1, 4, 9, 15, 7917, 104730, 2**61 - 3, 561, 41041]
    )
    def test_known_composites_and_carmichael(self, n):
        # 561 and 41041 are Carmichael numbers (Fermat pseudoprimes).
        assert not is_probable_prime(n)

    def test_generate_prime_bits_and_primality(self):
        rng = Rng(seed=b"p")
        p = generate_prime(128, rng=rng)
        assert p.bit_length() == 128
        assert is_probable_prime(p)

    def test_generated_primes_distinct(self):
        rng = Rng(seed=b"pp")
        assert generate_prime(64, rng=rng) != generate_prime(64, rng=rng)

    def test_small_bits_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(8)
