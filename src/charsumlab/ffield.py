"""GF(q^n) with an explicit polynomial basis.

Elements are coefficient vectors over F_q modulo a fixed monic
irreducible polynomial; the canonical integer encoding of an element is
its base-q digit string, which indexes the exp/dlog tables.  The
construction is deterministic: the modulus polynomial is the first monic
irreducible in encoding order and the generator is the smallest element
(again in encoding order) of multiplicative order q^n - 1.

The working basis for boxes defaults to the power basis 1, x, ...,
x^(n-1); a different basis may be supplied as an invertible matrix whose
rows are power-basis coordinates.  Table sizes cap the field at 2^26
elements.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoxTooLarge, NotPrime, TooLarge
from .modular import is_probable_prime, mod_inverse, prime_factors

FIELD_SIZE_BOUND = 1 << 26


# ----------------------------------------------------------------------
# dense polynomial helpers over F_q (coefficient lists, low degree first)

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, q):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % q
    return _poly_trim(out)


def _poly_rem(a, mod, q):
    a = [x % q for x in a]
    _poly_trim(a)
    dm = len(mod) - 1
    inv_lead = 1 if mod[-1] == 1 else mod_inverse(mod[-1], q)
    while a and len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        factor = a[-1] * inv_lead % q
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * c) % q
        _poly_trim(a)
    return a


def _poly_powmod(base, e, mod, q):
    result = [1]
    base = _poly_rem(list(base), mod, q)
    while e > 0:
        if e & 1:
            result = _poly_rem(_poly_mul(result, base, q), mod, q)
        base = _poly_rem(_poly_mul(base, base, q), mod, q)
        e >>= 1
    return result


def _poly_gcd(a, b, q):
    a, b = list(a), list(b)
    while _poly_trim(b):
        a, b = b, _poly_rem(a, b, q)
        _poly_trim(a)
    return _poly_trim(a)


def _is_irreducible(f, q):
    """Standard test: x^(q^n) = x mod f and gcd(x^(q^(n/l)) - x, f) = 1."""
    n = len(f) - 1
    if n == 1:
        return True
    x = [0, 1]
    frob = list(x)
    powers = {}
    for i in range(1, n + 1):
        frob = _poly_powmod(frob, q, f, q)
        powers[i] = list(frob)
    if _poly_trim([(a - b) % q for a, b in itertools.zip_longest(powers[n], x, fillvalue=0)]):
        return False
    for ell in prime_factors(n):
        diff = [(a - b) % q for a, b in itertools.zip_longest(powers[n // ell], x, fillvalue=0)]
        g = _poly_gcd(list(f), diff, q)
        if len(g) - 1 != 0:
            return False
    return True


# ----------------------------------------------------------------------
# integer matrices mod q

def _check_invertible_mod(rows, q):
    """Raise ValueError unless the square matrix is invertible over F_q
    (Gaussian elimination to row echelon form)."""
    n = len(rows)
    a = [[x % q for x in row] for row in rows]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("basis matrix is singular mod q")
        a[col], a[piv] = a[piv], a[col]
        inv = mod_inverse(a[col][col], q)
        for r in range(col + 1, n):
            f = a[r][col] * inv % q
            a[r] = [(x - f * y) % q for x, y in zip(a[r], a[col])]


@dataclass(frozen=True, eq=False)
class FieldElement:
    """Element of GF(q^n) as power-basis coefficients, low degree first."""

    spec: "FieldSpec"
    coeffs: tuple[int, ...]

    @property
    def encoding(self) -> int:
        return self.spec.encode(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        return fadd(self, other)

    def __sub__(self, other):
        q = self.spec.q
        return FieldElement(self.spec, tuple((a - b) % q for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        return fmul(self, other)

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.spec.key == other.spec.key
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec.key, self.coeffs))


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """Concrete model of GF(q^n) with exp/dlog tables and a working basis."""

    q: int
    n: int
    modpoly: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    generator_encoding: int
    exp: np.ndarray
    dlog: np.ndarray

    @property
    def size(self) -> int:
        return self.q**self.n

    @property
    def key(self) -> tuple:
        return (self.q, self.n, self.modpoly, self.basis)

    # -- encoding helpers ------------------------------------------------
    def encode(self, coeffs) -> int:
        e = 0
        for c in reversed(tuple(coeffs)):
            e = e * self.q + (c % self.q)
        return e

    def decode(self, enc: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            out.append(enc % self.q)
            enc //= self.q
        return tuple(out)

    def element(self, coeffs) -> FieldElement:
        coeffs = tuple(int(c) % self.q for c in coeffs)
        if len(coeffs) != self.n:
            raise ValueError(f"need {self.n} coordinates, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def from_encoding(self, enc: int) -> FieldElement:
        return FieldElement(self, self.decode(int(enc)))

    def zero(self) -> FieldElement:
        return self.element((0,) * self.n)

    def one(self) -> FieldElement:
        return self.element((1,) + (0,) * (self.n - 1))

    def scalar(self, c: int) -> FieldElement:
        return self.element((c % self.q,) + (0,) * (self.n - 1))

    @property
    def generator(self) -> FieldElement:
        return self.from_encoding(self.generator_encoding)

    # -- scalar arithmetic ----------------------------------------------
    def mul_coeffs(self, a, b) -> tuple[int, ...]:
        prod = _poly_rem(_poly_mul(list(a), list(b), self.q), list(self.modpoly), self.q)
        prod = prod + [0] * (self.n - len(prod))
        return tuple(prod[: self.n])

    def pow_element(self, a: FieldElement, e: int) -> FieldElement:
        result = self.one()
        base = a
        while e > 0:
            if e & 1:
                result = fmul(result, base)
            base = fmul(base, base)
            e >>= 1
        return result

    # -- vectorized arithmetic on encodings ------------------------------
    def digits_of(self, encs: np.ndarray) -> np.ndarray:
        """(len, n) digit matrix of the given encodings."""
        encs = np.asarray(encs, dtype=np.int64)
        out = np.empty(encs.shape + (self.n,), dtype=np.int64)
        rem = encs.copy()
        for i in range(self.n):
            out[..., i] = rem % self.q
            rem //= self.q
        return out

    def encode_digits(self, digits: np.ndarray) -> np.ndarray:
        encs = np.zeros(digits.shape[:-1], dtype=np.int64)
        for i in range(self.n - 1, -1, -1):
            encs = encs * self.q + digits[..., i] % self.q
        return encs

    def add_scalar_many(self, encs: np.ndarray, c: int) -> np.ndarray:
        """enc + c*1: only the constant digit moves."""
        encs = np.asarray(encs, dtype=np.int64)
        c0 = encs % self.q
        return encs - c0 + (c0 + c) % self.q

    def mul_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        da = self.digits_of(a)
        db = self.digits_of(b)
        conv = np.zeros(da.shape[:-1] + (2 * self.n - 1,), dtype=np.int64)
        for i in range(self.n):
            for j in range(self.n):
                conv[..., i + j] += da[..., i] * db[..., j]
        red = (conv % self.q) @ self._reduction_rows % self.q
        return self.encode_digits(red)

    @functools.cached_property
    def _reduction_rows(self) -> np.ndarray:
        """Row k is x^k mod modpoly, for k = 0 .. 2n-2."""
        rows = np.zeros((2 * self.n - 1, self.n), dtype=np.int64)
        for k in range(2 * self.n - 1):
            red = _poly_rem([0] * k + [1], list(self.modpoly), self.q)
            red = red + [0] * (self.n - len(red))
            rows[k] = red[: self.n]
        return rows

    # -- traces ----------------------------------------------------------
    @functools.cached_property
    def _basis_traces(self) -> np.ndarray:
        """Traces of the power-basis elements x^0 .. x^(n-1)."""
        out = np.zeros(self.n, dtype=np.int64)
        for i in range(self.n):
            e = self.element((0,) * i + (1,) + (0,) * (self.n - 1 - i))
            out[i] = _trace_by_frobenius(self, e)
        return out

    def trace_many(self, encs: np.ndarray) -> np.ndarray:
        digits = self.digits_of(encs)
        return (digits @ self._basis_traces) % self.q

    # -- working-basis coordinates ---------------------------------------
    def from_coords(self, h) -> FieldElement:
        c = [0] * self.n
        for hi, row in zip(h, self.basis):
            for j in range(self.n):
                c[j] = (c[j] + hi * row[j]) % self.q
        return self.element(c)


def _trace_by_frobenius(spec: FieldSpec, x: FieldElement) -> int:
    """Tr(x) = x + x^q + ... + x^(q^(n-1)), summed in the field."""
    acc = spec.zero()
    y = x
    for _ in range(spec.n):
        acc = fadd(acc, y)
        y = spec.pow_element(y, spec.q)
    if any(c != 0 for c in acc.coeffs[1:]):
        raise ArithmeticError("trace left the prime subfield")  # pragma: no cover
    return acc.coeffs[0]


def fadd(a: FieldElement, b: FieldElement) -> FieldElement:
    q = a.spec.q
    return FieldElement(a.spec, tuple((x + y) % q for x, y in zip(a.coeffs, b.coeffs)))


def fmul(a: FieldElement, b: FieldElement) -> FieldElement:
    return FieldElement(a.spec, a.spec.mul_coeffs(a.coeffs, b.coeffs))


def trace(spec: FieldSpec, x: FieldElement) -> int:
    """Trace down to F_q, as an integer in [0, q)."""
    return int(spec.trace_many(np.asarray([x.encoding]))[0])


def additive_char(spec: FieldSpec, a: FieldElement, x: FieldElement) -> complex:
    """exp(2*pi*i * Tr(a*x) / q); the trivial character when a = 0."""
    t = trace(spec, fmul(a, x))
    return complex(np.exp(2j * np.pi * t / spec.q))


def build_field(q: int, n: int, basis=None) -> FieldSpec:
    """Deterministic model of GF(q^n); q prime, q^n <= 2^26.

    `basis` optionally gives the working basis as an invertible n x n
    matrix over F_q whose rows are power-basis coordinates.
    """
    if not is_probable_prime(q):
        raise NotPrime(f"{q} is not prime")
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    size = q**n
    if size > FIELD_SIZE_BOUND:
        raise TooLarge(f"q^n = {size} exceeds the table bound {FIELD_SIZE_BOUND}")

    modpoly = None
    for k in range(size):
        low = []
        e = k
        for _ in range(n):
            low.append(e % q)
            e //= q
        cand = low + [1]
        if _is_irreducible(cand, q):
            modpoly = tuple(cand)
            break
    if modpoly is None:  # pragma: no cover
        raise ArithmeticError(f"no irreducible polynomial of degree {n} over F_{q}")

    if basis is None:
        basis_rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    else:
        basis_rows = tuple(tuple(int(x) % q for x in row) for row in basis)
        if len(basis_rows) != n or any(len(r) != n for r in basis_rows):
            raise ValueError("basis must be an n x n matrix")
        _check_invertible_mod(basis_rows, q)

    spec = FieldSpec(q=q, n=n, modpoly=modpoly, basis=basis_rows, generator_encoding=0,
                     exp=np.zeros(max(size - 1, 1), dtype=np.int64),
                     dlog=np.full(size, -1, dtype=np.int64))

    gen_enc = _find_generator(spec)
    object.__setattr__(spec, "generator_encoding", gen_enc)
    _fill_tables(spec)
    return spec


def _find_generator(spec: FieldSpec) -> int:
    size = spec.size
    if size == 2:
        return 1
    factors = prime_factors(size - 1)
    one = spec.one()
    for enc in range(2, size):
        e = spec.from_encoding(enc)
        if all(spec.pow_element(e, (size - 1) // f) != one for f in factors):
            return enc
    raise ArithmeticError("no generator found")  # pragma: no cover


def _fill_tables(spec: FieldSpec):
    size = spec.size
    g = spec.decode(spec.generator_encoding)
    exp = spec.exp
    dlog = spec.dlog

    # doubling, then whole blocks: g^(pos + j) = g^j * g^pos for j < count,
    # with count = min(pos, 4096) so no vectorized call exceeds 4096 products
    exp[0] = spec.one().encoding
    pos = 1
    while pos < size - 1:
        count = min(pos, 4096, size - 1 - pos)
        gp = spec.mul_coeffs(spec.decode(int(exp[pos - 1])), g)
        exp[pos:pos + count] = spec.mul_many(
            exp[:count], np.full(count, spec.encode(gp), dtype=np.int64))
        pos += count

    dlog[exp] = np.arange(size - 1, dtype=np.int64)
    if dlog[1] != 0 or int((dlog < 0).sum()) != 1:  # pragma: no cover
        raise ArithmeticError("generator order check failed")
    exp.setflags(write=False)
    dlog.setflags(write=False)


def box_elements(spec: FieldSpec, H: int) -> list[FieldElement]:
    """The H^n box: all sums h_1 w_1 + ... + h_n w_n with 1 <= h_i <= H.

    Coordinates refer to the working basis; lexicographic order in h.
    """
    if H >= spec.q:
        raise BoxTooLarge(f"H = {H} must be smaller than the characteristic {spec.q}")
    if H < 1:
        raise ValueError("H must be >= 1")
    return [spec.from_coords(h) for h in itertools.product(range(1, H + 1), repeat=spec.n)]


def box_encodings(spec: FieldSpec, H: int) -> np.ndarray:
    """Encodings of box_elements(spec, H), in the same order."""
    if H >= spec.q:
        raise BoxTooLarge(f"H = {H} must be smaller than the characteristic {spec.q}")
    grids = np.meshgrid(*([np.arange(1, H + 1)] * spec.n), indexing="ij")
    hs = np.stack([g.ravel() for g in grids], axis=-1)
    basis = np.asarray(spec.basis, dtype=np.int64)
    digits = (hs @ basis) % spec.q
    return spec.encode_digits(digits)


@dataclass(frozen=True, eq=False)
class FieldCharacter:
    """Multiplicative character of GF(q^n) with index t in [0, q^n - 1)."""

    spec: FieldSpec
    t: int

    def __post_init__(self):
        if not 0 <= self.t < self.spec.size - 1:
            from .errors import IndexOutOfRange

            raise IndexOutOfRange(f"index {self.t} outside [0, {self.spec.size - 1})")

    @property
    def order(self) -> int:
        m = self.spec.size - 1
        return m // math.gcd(self.t, m)

    def angle_and_mask(self, encs) -> tuple[np.ndarray, np.ndarray]:
        encs = np.asarray(encs, dtype=np.int64)
        k = self.spec.dlog[encs]
        mask = k >= 0
        m = self.spec.size - 1
        ang = (self.t * np.where(mask, k, 0)) % m
        return ang / float(m), mask

    def value_many(self, encs) -> np.ndarray:
        ang, mask = self.angle_and_mask(encs)
        return np.exp(2j * np.pi * ang) * mask

    def value(self, x: FieldElement) -> complex:
        return complex(self.value_many(np.asarray([x.encoding]))[0])
