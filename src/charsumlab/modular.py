"""Exact integer arithmetic modulo squarefree q.

Factorization is trial division (cap 2^24 on the trial divisor) with a
deterministic Miller-Rabin check on the remaining cofactor; moduli above
2^48 are rejected outright.  Python integers are unbounded, so modular
products are exact at every size we allow.  The module is also the one
home of the package's prime helpers for general n: distinct prime factors
and the primes up to a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertible, NotSquarefree, OutOfRange

TRIAL_DIVISION_BOUND = 1 << 24
MODULUS_BOUND = 1 << 48

# Deterministic witness set, valid far beyond the 2^48 modulus cap.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class SquarefreeModulus:
    """A squarefree integer q >= 2 together with its prime factorization."""

    q: int
    primes: tuple[int, ...]

    def __post_init__(self):
        if self.q < 2 or not self.primes:
            raise OutOfRange(f"modulus {self.q} is below 2")
        prod = 1
        for p in self.primes:
            prod *= p
        if prod != self.q or len(set(self.primes)) != len(self.primes):
            raise NotSquarefree(f"{self.primes} is not a squarefree factorization of {self.q}")
        if list(self.primes) != sorted(self.primes):
            raise NotSquarefree("prime factors must be listed in increasing order")

    @property
    def num_prime_factors(self) -> int:
        return len(self.primes)


@dataclass(frozen=True)
class ResidueVector:
    """Residues of one integer modulo each prime factor, in factor order."""

    residues: tuple[int, ...]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set; deterministic below ~3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of any n >= 1, increasing, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primes_upto(n: int) -> list[int]:
    """All primes p <= n, increasing, by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(i) for i in np.flatnonzero(sieve)]


def factor_squarefree(q: int) -> SquarefreeModulus:
    """Factor a squarefree q >= 2.

    Raises NotSquarefree if some p^2 divides q, and OutOfRange if q is
    outside [2, 2^48].
    """
    if q < 2 or q > MODULUS_BOUND:
        raise OutOfRange(f"modulus {q} outside [2, {MODULUS_BOUND}]")
    primes = []
    n = q

    def strip(p):
        nonlocal n
        if n % p == 0:
            n //= p
            if n % p == 0:
                raise NotSquarefree(f"{p}^2 divides {q}")
            primes.append(p)

    strip(2)
    strip(3)
    d = 5
    while d <= TRIAL_DIVISION_BOUND and d * d <= n:
        strip(d)
        strip(d + 2)
        d += 6
    if n > 1:
        # Under the 2^48 cap the cofactor is prime whenever trial division
        # exhausted all divisors up to sqrt(n); Miller-Rabin double-checks.
        if not is_probable_prime(n):
            raise OutOfRange(f"cofactor {n} of {q} resists the trial bound")
        primes.append(n)
    return SquarefreeModulus(q=q, primes=tuple(primes))


def crt_split(n: int, m: SquarefreeModulus) -> ResidueVector:
    """Residues of n modulo each prime factor of q."""
    return ResidueVector(tuple(n % p for p in m.primes))


def crt_combine(rv: ResidueVector, m: SquarefreeModulus) -> int:
    """The unique x in [0, q) with x = rv[j] mod p_j for every j."""
    if len(rv.residues) != len(m.primes):
        raise ValueError("residue vector length disagrees with factor count")
    x = 0
    for r, p in zip(rv.residues, m.primes):
        rest = m.q // p
        x = (x + r * rest * mod_inverse(rest, p)) % m.q
    return x


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a mod m in [1, m); raises NotInvertible when gcd(a, m) > 1."""
    if m < 2:
        raise OutOfRange(f"modulus {m} is below 2")
    a %= m
    g, x = _ext_gcd(a, m)
    if g != 1:
        raise NotInvertible(f"gcd({a}, {m}) = {g}")
    return x % m


def _ext_gcd(a: int, b: int) -> tuple[int, int]:
    # Returns (g, x) with a*x = g mod b.
    old_r, r = a, b
    old_s, s = 1, 0
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
    return old_r, old_s


def divisor_count(m: SquarefreeModulus) -> int:
    """Number of divisors of a squarefree q, which is 2^k."""
    return 1 << m.num_prime_factors
