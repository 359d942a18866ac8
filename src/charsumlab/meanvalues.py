"""Vinogradov system counts and exact double mean values.

J(r, d, V) counts 2r-tuples in [1, V] whose halves share all power sums
up to degree d.  One table of the r-multisets of [1, V], grouped by
power-sum key, serves both J and W: J is the sum over keys of the
squared number of ordered r-tuples behind the key.  The double mean
value W (an integral over the phase coefficients of the 2r-th moment of
a short character sum) is never integrated numerically on the main
path.  The r-th power of the short sum is a trigonometric polynomial
whose frequencies are the power-sum keys of r-multisets of [1, V];
orthogonality of e^(2 pi i alpha k) turns the integral into its Gram
form, one squared modulus per (lambda, key), so W is an exact,
nonnegative finite sum.  The full 2r-fold count of J, a Riemann-sum
reference for W at d = 1 and the expansion of W over the solution set
into complete character sums are test oracles outside the package
(tests/oracles.py).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characters import DirichletCharacter
from .errors import BudgetExceeded, MissingCount, RangeViolation
from .ffield import FieldCharacter
from .sums import pairwise_sum

DEFAULT_TUPLE_BUDGET = 10**9
DEFAULT_SOLUTION_BUDGET = 10**7


@dataclass(frozen=True)
class VinogradovParams:
    """Parameters (r, d, V) of a Vinogradov system."""

    r: int
    d: int
    V: int

    def __post_init__(self):
        if self.r < 1 or self.d < 1 or self.V < 1:
            raise ValueError("r, d, V must all be >= 1")


def _check_power_sum_range(p: VinogradovParams):
    # the largest key component is r * V^d; keep it inside int64
    if p.r * p.V**p.d >= 1 << 62:
        raise BudgetExceeded(
            f"power sums up to {p.r} * {p.V}^{p.d} leave the 64-bit range")


def _multisets(V: int, r: int) -> np.ndarray:
    """Size-r multisets of [1, V] as sorted rows, in lexicographic order
    (the order of itertools.combinations_with_replacement)."""
    ms = np.arange(1, V + 1, dtype=np.int64)[:, None]
    for _ in range(1, r):
        # each row extends by every value from its last entry up to V
        last = ms[:, -1]
        reps = V + 1 - last
        first = np.repeat(np.cumsum(reps) - reps, reps)
        nxt = np.repeat(last, reps) + np.arange(len(first)) - first
        ms = np.column_stack([np.repeat(ms, reps, axis=0), nxt])
    return ms


@functools.lru_cache(maxsize=32)
def _multiset_table(p: VinogradovParams):
    """Size-r multisets of [1, V] sorted by power-sum key: the one place
    where r-tuples are grouped by key, shared by J and by the Gram-form W.

    Returns (cols, mult, starts, J): 0-based entries (one row per
    multiset), the number r!/prod(count!) of ordered tuples behind each
    multiset, the first row of every key group, and
    J(r, d, V) = sum over keys of (ordered tuples with that key)^2.
    """
    _check_power_sum_range(p)
    ms = _multisets(p.V, p.r)
    keys = np.stack([(ms**i).sum(axis=1) for i in range(1, p.d + 1)], axis=-1)
    order = np.lexsort(keys.T[::-1])
    ms, keys = ms[order], keys[order]
    # prod(count!) of a sorted row is the product of its running repeat counts
    runs = np.ones_like(ms)
    for j in range(1, p.r):
        runs[:, j] = np.where(ms[:, j] == ms[:, j - 1], runs[:, j - 1] + 1, 1)
    mult = math.factorial(p.r) // runs.prod(axis=1)
    starts = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])
    per_key = np.add.reduceat(mult, starts).astype(object)
    j_count = int((per_key**2).sum())
    cols, mult = ms - 1, mult.astype(np.float64)
    for arr in (cols, mult, starts):
        arr.setflags(write=False)  # shared by every call with this (r, d, V)
    return cols, mult, starts, j_count


def vinogradov_count_mitm(p: VinogradovParams, budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """J(r, d, V) as the sum over power-sum keys of the squared number of
    ordered r-tuples with that key, read off the r-multiset table."""
    r, V = p.r, p.V
    if r * V**r > budget:
        raise BudgetExceeded(f"r * V^r = {r * V ** r} exceeds budget {budget}")
    return _multiset_table(p)[3]


# ----------------------------------------------------------------------
# exact double mean values

_GRAM_BLOCK = 1 << 18  # lambda rows x multisets per chunk


def _check_weights(beta, V: int, allow_large: bool) -> np.ndarray:
    if beta is None:
        return np.ones(V, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    if beta.shape != (V,):
        raise ValueError(f"need one weight per v in [1, {V}]")
    if not allow_large and np.any(np.abs(beta) > 1 + 1e-9):
        raise ValueError("weights must satisfy |beta_v| <= 1 (or pass allow_large_weights)")
    return beta


def _value_matrix(chi, V: int) -> np.ndarray:
    """T[lambda, v] = chi(lambda + v) over the full lambda range."""
    if isinstance(chi, FieldCharacter):
        spec = chi.spec
        encs = np.arange(spec.size, dtype=np.int64)
        cols = [chi.value_many(spec.add_scalar_many(encs, v % spec.q))
                for v in range(1, V + 1)]
        return np.stack(cols, axis=-1)
    if isinstance(chi, DirichletCharacter):
        lam = np.arange(1, chi.q + 1, dtype=np.int64)
        return np.stack([chi.value_many(lam + v) for v in range(1, V + 1)], axis=-1)
    mats = [_value_matrix(c, V) for c in chi]
    T = mats[0]
    for m in mats[1:]:
        T = (T[:, None, :] * m[None, :, :]).reshape(-1, V)
    return T


def _gram_W(chi, beta, p: VinogradovParams, budget: int,
            allow_large_weights: bool) -> float:
    """W as a sum of squares over (lambda, power-sum key).

    Orthogonality of e(alpha . k) leaves, for each lambda and key, the
    squared modulus of sum over the key's multisets m of
    mult(m) * prod_{v in m} beta_v chi(lambda + v).
    """
    beta = _check_weights(beta, p.V, allow_large_weights)
    cols, mult, starts, j_count = _multiset_table(p)
    if j_count > budget:
        raise BudgetExceeded(f"J = {j_count} solutions exceed budget {budget}")
    T = _value_matrix(chi, p.V) * beta[None, :]
    rows = max(1, _GRAM_BLOCK // len(mult))
    partials = []
    for lo in range(0, T.shape[0], rows):
        block = T[lo:lo + rows]
        prod = block[:, cols[:, 0]] * mult
        for j in range(1, p.r):
            prod *= block[:, cols[:, j]]
        S = np.add.reduceat(prod, starts, axis=1)
        partials.append((S.real**2 + S.imag**2).sum())
    return float(pairwise_sum(np.asarray(partials)).real)


def exact_W_squarefree(chi: DirichletCharacter, beta, p: VinogradovParams,
                       budget: int = DEFAULT_SOLUTION_BUDGET,
                       allow_large_weights: bool = False) -> float:
    """The double mean value W, exactly, in Gram form."""
    return _gram_W(chi, beta, p, budget, allow_large_weights)


def exact_W_multichar(chi_list: Sequence[DirichletCharacter], beta,
                      p: VinogradovParams,
                      budget: int = DEFAULT_SOLUTION_BUDGET,
                      allow_large_weights: bool = False) -> float:
    """Multidimensional W: lambda ranges over the product of the prime
    moduli and the character value is the product over them."""
    for chi in chi_list:
        if chi.modulus.num_prime_factors != 1:
            raise ValueError("each character must have a prime modulus")
        if p.V > chi.q:
            raise RangeViolation(f"V = {p.V} exceeds q_i = {chi.q}")
    return _gram_W(list(chi_list), beta, p, budget, allow_large_weights)


def exact_W_field(chi: FieldCharacter, beta, p: VinogradovParams,
                  budget: int = DEFAULT_SOLUTION_BUDGET,
                  allow_large_weights: bool = False) -> float:
    """Field version of W, with lambda ranging over GF(q^n)."""
    return _gram_W(chi, beta, p, budget, allow_large_weights)


def lemma_rhs(kind: str, *, q: float, V: int, r: int, d: int | None = None,
              s: int | None = None, j_count: int | None = None) -> float:
    """Main term of the mean-value bound, without any q^o(1) factor.

    kind L3: q V^r + sqrt(q) sqrt(J(r,d,V)) V^r
    kind L4: q V^r + sqrt(q) J(r-s-1,d,V) V^(2s+2)
    kind L5: q V^r + sqrt(q) J(r,d,V)           (q = product of the primes)
    kind L6: Q V^r + sqrt(Q) J(r,d,V)           (q = field size Q = p^n)
    """
    if j_count is None:
        raise MissingCount(f"{kind} needs its Vinogradov count")
    if kind == "L3":
        return q * V**r + math.sqrt(q) * math.sqrt(j_count) * V**r
    if kind == "L4":
        if s is None:
            raise MissingCount("L4 needs the prime-factor cap s")
        return q * V**r + math.sqrt(q) * j_count * V ** (2 * s + 2)
    if kind in ("L5", "L6"):
        return q * V**r + math.sqrt(q) * j_count
    raise ValueError(f"unknown bound kind {kind!r}")
