"""Every sum shape used by the verification campaigns.

Phase evaluation is exact: a float coefficient c is num / 2^k, so the
fractional part of c * x^e is ((num mod 2^k) * (x^e mod 2^k) mod 2^k) / 2^k
and carries no roundoff at all.  Sums evaluate it for every point at once
in wrapping uint64 arithmetic (`_phase_array`, valid while k <= 63).  The
scalar `eval_fraction` computes the same value with Python integers; it is
the kernel's oracle, and the kernel falls back to it point by point when
some coefficient has k > 63 or a monomial could pass 2^52 on the points,
where it raises the same PrecisionOverflow.  Per-term fractions are
combined with the same compensated sum in both, so they agree bit for bit.
Complex accumulation always uses the same ascending-index pairwise tree,
which makes every sum bit-reproducible regardless of how work is scheduled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characters import DirichletCharacter
from .errors import (ArityMismatch, BoxTooLarge, HypothesisViolated,
                     PrecisionOverflow, SingularSystem)
from .ffield import FieldCharacter, box_encodings

MONOMIAL_MAGNITUDE_BOUND = 1 << 52

_PAIRWISE_BLOCK = 64


def pairwise_sum(values: np.ndarray) -> complex:
    """Deterministic pairwise-tree sum in ascending index order."""
    values = np.asarray(values, dtype=np.complex128)
    n = values.shape[0]
    if n == 0:
        return 0j
    if n <= _PAIRWISE_BLOCK:
        total = 0j
        for v in values:
            total += v
        return complex(total)
    half = n // 2
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


@dataclass(frozen=True)
class RealPolynomial:
    """Real-coefficient polynomial used as a phase, F(x) in e^(2 pi i F).

    Terms map exponent multi-indexes to coefficients; zero coefficients
    are dropped at construction.
    """

    nvars: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("nvars must be >= 1")
        seen = set()
        for exps, coeff in self.terms:
            if len(exps) != self.nvars:
                raise ArityMismatch(f"exponent {exps} has wrong arity")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            if exps in seen:
                raise ValueError(f"duplicate exponent {exps}")
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite")
            seen.add(exps)

    @classmethod
    def from_terms(cls, nvars: int, terms: dict) -> "RealPolynomial":
        cleaned = tuple(sorted((tuple(e), float(c)) for e, c in terms.items() if c != 0.0))
        return cls(nvars=nvars, terms=cleaned)

    @classmethod
    def univariate(cls, coeffs: Sequence[float]) -> "RealPolynomial":
        """coeffs[k] multiplies x^k."""
        return cls.from_terms(1, {(k,): c for k, c in enumerate(coeffs)})

    @classmethod
    def zero(cls, nvars: int = 1) -> "RealPolynomial":
        return cls(nvars=nvars, terms=())

    @property
    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def coefficient(self, exps) -> float:
        for e, c in self.terms:
            if e == tuple(exps):
                return c
        return 0.0

    def plus(self, other: "RealPolynomial") -> "RealPolynomial":
        if other.nvars != self.nvars:
            raise ArityMismatch("variable counts differ")
        acc = {e: c for e, c in self.terms}
        for e, c in other.terms:
            acc[e] = acc.get(e, 0.0) + c
        return RealPolynomial.from_terms(self.nvars, acc)


def eval_fraction(F: RealPolynomial, point) -> float:
    """F(point) mod 1, with each monomial reduced mod 1 exactly.

    `point` must be integers.  The fractional part of c * prod(x^e) is
    computed from the exact dyadic representation of c, then the per-term
    fractions are combined with compensated summation.  This is the scalar
    oracle of the array kernel `_phase_array`, and its fallback.
    """
    point = tuple(int(x) for x in point)
    if len(point) != F.nvars:
        raise ArityMismatch(f"point has {len(point)} coordinates, need {F.nvars}")
    s = 0.0
    comp = 0.0
    for exps, coeff in F.terms:
        mono = 1
        for x, e in zip(point, exps):
            if e:
                mono *= x**e
        num, den = coeff.as_integer_ratio()
        if abs(num * mono) > MONOMIAL_MAGNITUDE_BOUND * den:
            raise PrecisionOverflow(
                f"|{coeff} * point^{exps}| exceeds 2^52; rescale the phase")
        frac = ((num * mono) % den) / den
        y = frac - comp
        t = s + y
        comp = (t - s) - y
        s = t
    return s % 1.0


def eval_phase(F: RealPolynomial, point) -> complex:
    """e^(2 pi i F(point)) with exact per-term reduction mod 1."""
    return complex(np.exp(2j * np.pi * eval_fraction(F, point)))


def _fraction_array(F: RealPolynomial, points: np.ndarray) -> np.ndarray:
    """eval_fraction at every row of an int64 (npoints, nvars) array."""
    points = np.asarray(points, dtype=np.int64)
    if points.ndim != 2 or points.shape[1] != F.nvars:
        raise ArityMismatch(f"points must have shape (npoints, {F.nvars})")
    if len(points) == 0:
        return np.zeros(0, dtype=np.float64)
    reach = [max(-int(col.min()), int(col.max())) for col in points.T]
    ratios = [coeff.as_integer_ratio() for _, coeff in F.terms]
    for (exps, _), (num, den) in zip(F.terms, ratios):
        mono_reach = math.prod(r**e for r, e in zip(reach, exps))
        if den > 1 << 63 or abs(num) * mono_reach > MONOMIAL_MAGNITUDE_BOUND * den:
            return np.asarray([eval_fraction(F, p) for p in points.tolist()],
                              dtype=np.float64)
    cols = points.T.astype(np.uint64)  # x mod 2^64, two's complement
    s = np.zeros(len(points), dtype=np.float64)
    comp = np.zeros(len(points), dtype=np.float64)
    for (exps, _), (num, den) in zip(F.terms, ratios):
        # (num mod 2^k) * x^e wraps mod 2^64; the low k bits are exact
        mono = np.full(len(points), num % den, dtype=np.uint64)
        for col, e in zip(cols, exps):
            for _ in range(e):
                mono *= col
        frac = (mono & np.uint64(den - 1)).astype(np.float64) / float(den)
        y = frac - comp
        t = s + y
        comp = (t - s) - y
        s = t
    return np.remainder(s, 1.0)


def _phase_array(F: RealPolynomial, points: np.ndarray) -> np.ndarray:
    """e^(2 pi i F(x)) at every row of an int64 (npoints, nvars) array."""
    return np.exp(2j * np.pi * _fraction_array(F, points))


def _grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Every point of the product of the int64 axes, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


# ----------------------------------------------------------------------
# sum evaluators

def mixed_sum(chi: DirichletCharacter, F: RealPolynomial, M: int, N: int) -> complex:
    """Sum of chi(n) e^(2 pi i F(n)) over M < n <= M + N."""
    if F.nvars != 1:
        raise ArityMismatch("mixed_sum needs a univariate phase")
    if N < 0:
        raise ValueError("N must be >= 0")
    if N == 0:
        return 0j
    ns = np.arange(M + 1, M + N + 1, dtype=np.int64)
    values = chi.value_many(ns)
    phases = _phase_array(F, ns[:, None])
    return pairwise_sum(values * phases)


def box_mixed_sum(chi: FieldCharacter, F: RealPolynomial, H: int) -> complex:
    """Sum of chi(x) e^(2 pi i F(h)) over the H^n coordinate box."""
    spec = chi.spec
    if F.nvars != spec.n:
        raise ArityMismatch(f"phase has {F.nvars} variables, field degree is {spec.n}")
    if H >= spec.q:
        raise BoxTooLarge(f"H = {H} must stay below the characteristic {spec.q}")
    encs = box_encodings(spec, H)
    values = chi.value_many(encs)
    phases = _phase_array(F, _grid([np.arange(1, H + 1, dtype=np.int64)] * spec.n))
    return pairwise_sum(values * phases)


def multi_char_mixed_sum(chi_list: Sequence[DirichletCharacter], F: RealPolynomial,
                         M_list: Sequence[int], H_list: Sequence[int]) -> complex:
    """Sum over the box M_i < h_i <= M_i + H_i of prod chi_i(h_i) e^(2 pi i F(h))."""
    n = len(chi_list)
    if not (len(M_list) == len(H_list) == n and F.nvars == n):
        raise ArityMismatch("chi_list, M_list, H_list and F must agree on dimension")
    axes = [np.arange(M + 1, M + H + 1, dtype=np.int64) for M, H in zip(M_list, H_list)]
    char_axes = [chi.value_many(ax) for chi, ax in zip(chi_list, axes)]
    phases = _phase_array(F, _grid(axes))
    terms = []
    # the character factors multiply as scalars, one point at a time:
    # numpy's array multiply may round the products differently
    for j, idx in enumerate(itertools.product(*(range(len(a)) for a in axes))):
        val = 1.0 + 0j
        for i in range(n):
            val *= char_axes[i][idx[i]]
        terms.append(val * phases[j])
    return pairwise_sum(np.asarray(terms, dtype=np.complex128))


@dataclass(frozen=True)
class LinearSystem:
    """n integer linear forms in n variables, as rows of a matrix."""

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.matrix)
        if n < 1 or any(len(row) != n for row in self.matrix):
            raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.matrix)

    def determinant(self) -> int:
        """Exact integer determinant (fraction-free elimination)."""
        a = [list(map(int, row)) for row in self.matrix]
        n = len(a)
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
                if piv is None:
                    return 0
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def check_invertible_mod(self, q: int):
        if math.gcd(self.determinant() % q, q) != 1:
            raise SingularSystem(f"det = {self.determinant()} shares a factor with {q}")


def linear_forms_mixed_sum(chi: DirichletCharacter, L: LinearSystem,
                           F: RealPolynomial, H: int) -> complex:
    """Sum over [1, H]^n of chi(prod_j L_j(h)) e^(2 pi i F(h))."""
    n = L.n
    if F.nvars != n:
        raise ArityMismatch("phase arity must match the number of forms")
    q = chi.q
    L.check_invertible_mod(q)
    if H > q:
        raise HypothesisViolated(f"H = {H} exceeds q = {q}")
    pts = _grid([np.arange(1, H + 1, dtype=np.int64)] * n)
    # residue products reach q^2 and forms reach n*H*q: past int64, use exact ints
    exact = q * q >= 1 << 63 or n * H * q >= 1 << 63
    dtype = object if exact else np.int64
    mat = np.asarray([[c % q for c in row] for row in L.matrix], dtype=dtype)
    forms = (pts.astype(dtype) @ mat.T) % q
    prods = np.ones(len(pts), dtype=dtype)
    for i in range(n):
        prods = (prods * forms[:, i]) % q
    values = chi.value_many(prods.astype(np.int64))
    phases = _phase_array(F, pts)
    return pairwise_sum(values * phases)
