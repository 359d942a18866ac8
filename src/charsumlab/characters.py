"""Multiplicative characters modulo primes and squarefree composites.

A character mod a prime p is stored as a discrete-log table for the
smallest primitive root together with an index t in [0, p-1); its value
at a unit n is exp(2*pi*i * t * dlog(n) / (p-1)).  A character mod a
squarefree q is the product of one prime character per factor, which is
exactly how such characters decompose under the Chinese remainder
theorem.  Tables are built eagerly, so evaluation is O(1) per point, and
shared through a cache bounded by bytes (DLOG_CACHE_BYTES).

Values are double-precision complex; "exact" statements downstream are
phrased with 1e-12 style tolerances.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NotPrime, OutOfRange, TooLarge
from .modular import SquarefreeModulus, is_probable_prime, prime_factors

PRIME_TABLE_BOUND = 1 << 24
ENUMERATION_BOUND = 10**5
DLOG_CACHE_BYTES = 1 << 28  # three dlog tables at p ~ 1e7


def find_primitive_root(p: int) -> int:
    """Smallest primitive root mod a prime p <= 2^24."""
    if not is_probable_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p > PRIME_TABLE_BOUND:
        raise OutOfRange(f"prime {p} exceeds the table bound {PRIME_TABLE_BOUND}")
    if p == 2:
        return 1
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise NotPrime(f"no generator found; {p} is not prime")  # pragma: no cover


def _build_root_and_dlog(p: int) -> tuple[int, np.ndarray]:
    """(smallest root g, dlog table) with dlog[g^k mod p] = k; dlog[0] = -1."""
    g = find_primitive_root(p)
    # g^0 .. g^(width-1) by doubling, g^(pos + j) = g^j * g^pos; then each
    # further block of width powers is the previous block times g^width.
    # Blocks bound the scratch memory; residues stay below 2^24, so every
    # product fits int64.
    n = max(p - 1, 1)
    width = min(n, 1 << 20)
    block = np.empty(width, dtype=np.int64)
    block[0] = 1
    pos = 1
    while pos < width:
        count = min(pos, width - pos)
        block[pos:pos + count] = block[:count] * (int(block[pos - 1]) * g % p) % p
        pos += count
    dlog = np.full(p, -1, dtype=np.int64)
    dlog[block] = np.arange(width, dtype=np.int64)
    step = pow(g, width, p)
    for start in range(width, n, width):
        block = block * step % p
        count = min(width, n - start)
        dlog[block[:count]] = np.arange(start, start + count, dtype=np.int64)
    dlog.setflags(write=False)  # shared across every character mod p
    return g, dlog


class _TableCache:
    """Least-recently-used map p -> (root, dlog table), bounded by table bytes.

    A table takes 8 bytes per residue (80 MB at p ~ 1e7), so the budget
    counts bytes, not entries.  The newest table
    always stays, even alone above the budget.  One lock covers lookups and
    builds, so concurrent callers never build the same table twice.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._tables: OrderedDict[int, tuple[int, np.ndarray]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, p: int) -> tuple[int, np.ndarray]:
        with self._lock:
            entry = self._tables.get(p)
            if entry is not None:
                self._tables.move_to_end(p)
                return entry
            entry = self._tables[p] = _build_root_and_dlog(p)
            self.nbytes += entry[1].nbytes
            while self.nbytes > self.budget and len(self._tables) > 1:
                _, (_, old) = self._tables.popitem(last=False)
                self.nbytes -= old.nbytes
            return entry


_DLOG_TABLES = _TableCache(DLOG_CACHE_BYTES)


def _root_and_dlog(p: int) -> tuple[int, np.ndarray]:
    """(smallest root g, dlog table) mod p, from the shared table cache."""
    return _DLOG_TABLES.get(p)


@dataclass(frozen=True, eq=False)
class PrimeCharacter:
    """Character mod a prime p with index t relative to the smallest root."""

    p: int
    g: int
    t: int
    dlog: np.ndarray

    @property
    def is_principal(self) -> bool:
        return self.t == 0

    @property
    def order(self) -> int:
        return (self.p - 1) // math.gcd(self.t, self.p - 1) if self.p > 2 else 1

    def angle_and_mask(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Angle in turns of chi(values) plus the unit mask (False where 0)."""
        res = np.asarray(values, dtype=np.int64) % self.p
        k = self.dlog[res]
        mask = k >= 0
        if self.p == 2:
            return np.zeros(res.shape, dtype=np.float64), mask
        ang = (self.t * np.where(mask, k, 0)) % (self.p - 1)
        return ang / float(self.p - 1), mask


def build_prime_character(p: int, t: int) -> PrimeCharacter:
    """Character mod prime p with index t in [0, p-1); t = 0 is principal."""
    g, dlog = _root_and_dlog(p)
    top = max(p - 1, 1)
    if not 0 <= t < top:
        raise IndexOutOfRange(f"index {t} outside [0, {top}) for p = {p}")
    return PrimeCharacter(p=p, g=g, t=t, dlog=dlog)


@dataclass(frozen=True, eq=False)
class DirichletCharacter:
    """Product of prime characters, one per factor of a squarefree modulus."""

    modulus: SquarefreeModulus
    components: tuple[PrimeCharacter, ...]

    def __post_init__(self):
        if tuple(c.p for c in self.components) != self.modulus.primes:
            raise ValueError("components must match the modulus factorization")

    @property
    def q(self) -> int:
        return self.modulus.q

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(c.t for c in self.components)

    @property
    def is_primitive(self) -> bool:
        return all(c.t != 0 for c in self.components)

    @property
    def is_principal(self) -> bool:
        return all(c.t == 0 for c in self.components)

    @property
    def order(self) -> int:
        return math.lcm(*(c.order for c in self.components))

    def angle_and_mask(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Summed component angles (turns) and the joint unit mask."""
        values = np.asarray(values, dtype=np.int64)
        ang = np.zeros(values.shape, dtype=np.float64)
        mask = np.ones(values.shape, dtype=bool)
        for comp in self.components:
            a, m = comp.angle_and_mask(values)
            ang += a
            mask &= m
        return ang, mask

    def value_many(self, values) -> np.ndarray:
        ang, mask = self.angle_and_mask(values)
        return np.exp(2j * np.pi * ang) * mask

    def value(self, n: int) -> complex:
        return complex(self.value_many(np.asarray([n]))[0])


def crt_character(m: SquarefreeModulus, indices) -> DirichletCharacter:
    """Assemble the character with the given per-prime indices."""
    indices = tuple(int(t) for t in indices)
    if len(indices) != len(m.primes):
        raise IndexOutOfRange("one index per prime factor is required")
    comps = tuple(build_prime_character(p, t) for p, t in zip(m.primes, indices))
    return DirichletCharacter(modulus=m, components=comps)


def principal_character(m: SquarefreeModulus) -> DirichletCharacter:
    return crt_character(m, (0,) * len(m.primes))


def sample_primitive_characters(m: SquarefreeModulus, rng, k: int) -> list[DirichletCharacter]:
    """rng.sample_without_replacement(enumerate_primitive_characters(m), k),
    drawing the same values, without listing the characters.

    The sample is taken over indices into that list; index i is read in
    mixed radix (p_j - 2), last prime fastest, and digit j is t_j - 1.
    """
    radices = [p - 2 for p in m.primes]
    out = []
    for index in rng.sample_without_replacement(range(math.prod(radices)), k):
        digits = []
        for radix in reversed(radices):
            index, t = divmod(index, radix)
            digits.append(1 + t)
        out.append(crt_character(m, reversed(digits)))
    return out


def enumerate_primitive_characters(m: SquarefreeModulus) -> list[DirichletCharacter]:
    """All primitive characters mod q, ordered by index tuple.

    There are prod_j (p_j - 2) of them; the list is empty whenever 2 | q,
    because mod 2 only the principal component exists.  Listing them all
    is capped at ENUMERATION_BOUND; campaigns never list them, they sample
    lazily through sample_primitive_characters, at any q.
    """
    if m.q > ENUMERATION_BOUND:
        raise TooLarge(f"q = {m.q} exceeds the enumeration bound {ENUMERATION_BOUND}")
    ranges = [range(1, p - 1) for p in m.primes]
    return [crt_character(m, idx) for idx in itertools.product(*ranges)]
