import pytest

from charsumlab import (SquarefreeModulus, crt_combine, crt_split,
                        divisor_count, factor_squarefree, mod_inverse)
from charsumlab.errors import NotInvertible, NotSquarefree, OutOfRange
from charsumlab.modular import (ResidueVector, is_probable_prime, prime_factors,
                                primes_upto)


def naive_squarefree(q):
    p = 2
    while p * p <= q:
        if q % (p * p) == 0:
            return False
        p += 1
    return True


def test_factor_examples():
    assert factor_squarefree(30).primes == (2, 3, 5)
    assert factor_squarefree(7).primes == (7,)
    with pytest.raises(NotSquarefree):
        factor_squarefree(12)


def test_factor_range_errors():
    with pytest.raises(OutOfRange):
        factor_squarefree(1)
    with pytest.raises(OutOfRange):
        factor_squarefree((1 << 48) + 1)


def test_factor_rejects_exactly_square_divisible():
    for q in range(2, 10_001):
        if naive_squarefree(q):
            m = factor_squarefree(q)
            prod = 1
            for p in m.primes:
                prod *= p
            assert prod == q
        else:
            with pytest.raises(NotSquarefree):
                factor_squarefree(q)


def test_factor_large_cofactor():
    # 2 * 3 * big prime, forcing the Miller-Rabin path
    p = 1_000_003
    m = factor_squarefree(6 * p)
    assert m.primes == (2, 3, p)


def test_is_probable_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_probable_prime(n) == (n in primes)


def test_crt_examples():
    m = factor_squarefree(30)
    assert crt_split(23, m).residues == (1, 2, 3)
    assert crt_split(0, m).residues == (0, 0, 0)
    assert crt_combine(ResidueVector((1, 2, 3)), m) == 23


@pytest.mark.parametrize("q", [2, 6, 30, 105, 210, 1155, 2310, 9998])
def test_crt_round_trip_exhaustive(q):
    m = factor_squarefree(q)
    for n in range(q):
        assert crt_combine(crt_split(n, m), m) == n


def test_crt_round_trip_every_squarefree_modulus():
    # all squarefree q <= 1e4 with every residue: vectorize the exact
    # computation crt_combine performs (mod_inverse included), then seal
    # the scalar wrapper on a few residues per modulus
    import numpy as np

    for q in range(2, 10_001):
        if not naive_squarefree(q):
            continue
        m = factor_squarefree(q)
        n = np.arange(q, dtype=np.int64)
        x = np.zeros(q, dtype=np.int64)
        for p in m.primes:
            rest = q // p
            coeff = rest * mod_inverse(rest, p) % q
            x = (x + (n % p) * coeff) % q
        assert (x == n).all(), q
        for probe in {0, 1, q // 2, q - 1}:
            assert crt_combine(crt_split(probe, m), m) == probe


def test_mod_inverse_examples():
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(1, 10) == 1
    with pytest.raises(NotInvertible):
        mod_inverse(2, 4)


def test_mod_inverse_against_builtin_pow():
    import math

    for m in range(2, 1001):
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                assert mod_inverse(a, m) == pow(a, -1, m)


def test_divisor_count():
    assert divisor_count(factor_squarefree(30)) == 8
    assert divisor_count(factor_squarefree(7)) == 2
    assert divisor_count(factor_squarefree(210)) == 16


def test_modulus_validation():
    with pytest.raises(NotSquarefree):
        SquarefreeModulus(q=12, primes=(2, 2, 3))
    with pytest.raises(NotSquarefree):
        SquarefreeModulus(q=30, primes=(3, 2, 5))


def naive_is_prime(n):
    return n >= 2 and all(n % k for k in range(2, n))


def test_prime_helpers_match_trial_division():
    primes = [p for p in range(5001) if naive_is_prime(p)]
    for n in range(1, 5001):
        assert prime_factors(n) == [p for p in primes if n % p == 0], n
    for n in range(2001):
        assert primes_upto(n) == [p for p in primes if p <= n], n
