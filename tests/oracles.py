"""Slow, independent paths that the tests compare the package against.

None of this runs inside charsumlab.  The complete rational character
sums, one tuple and one character at a time, are what the Gram-form W and
the weil campaign's histogram + FFT kernel replaced; the solution-set
expansion of W is built on them.  J by full 2r-fold enumeration and a
Riemann sum of the defining integral of W check the multiset table, and
the energies counted from their definitions, over Python integers and
polynomial field products, check the hashed energies.  The scalar
character and field helpers, and the dlog table stepped one power at a
time, check the vectorized ones.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from charsumlab.characters import (DirichletCharacter, PrimeCharacter,
                                   find_primitive_root)
from charsumlab.errors import BudgetExceeded
from charsumlab.ffield import (FieldCharacter, FieldElement, FieldSpec,
                               box_elements, fmul)
from charsumlab.meanvalues import (DEFAULT_SOLUTION_BUDGET, DEFAULT_TUPLE_BUDGET,
                                   VinogradovParams, _check_power_sum_range,
                                   _check_weights, _value_matrix)
from charsumlab.sums import LinearSystem, pairwise_sum

# ----------------------------------------------------------------------
# scalar characters and field arithmetic

def prime_character_value(chi: PrimeCharacter, n: int) -> complex:
    """chi(n) from cos/sin of the angle 2 pi t dlog(n) / (p - 1)."""
    k = int(chi.dlog[n % chi.p])
    if k < 0:
        return 0j
    span = max(chi.p - 1, 1)
    theta = 2.0 * math.pi * ((chi.t * k) % span) / span
    return complex(math.cos(theta), math.sin(theta))


def root_and_dlog_reference(p: int) -> tuple[int, np.ndarray]:
    """(smallest root g, dlog table) by stepping x -> g x mod p once per k."""
    g = find_primitive_root(p)
    dlog = np.full(p, -1, dtype=np.int64)
    x = 1
    dlog[1] = 0
    for k in range(1, p - 1):
        x = x * g % p
        dlog[x] = k
    return g, dlog


def finv(a: FieldElement) -> FieldElement:
    """a^(-1) read off the exp/dlog tables."""
    if a.is_zero():
        raise ZeroDivisionError("inverse of 0")
    spec = a.spec
    k = int(spec.dlog[a.encoding])
    if k == 0:
        return spec.one()
    return spec.from_encoding(int(spec.exp[spec.size - 1 - k]))


def add_many(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Encodings of a + b, digit by digit mod q."""
    return spec.encode_digits((spec.digits_of(a) + spec.digits_of(b)) % spec.q)


# ----------------------------------------------------------------------
# complete sums over shifted tuples

@dataclass(frozen=True)
class TupleSpec:
    """A 2r-tuple of shifts (v_1, ..., v_2r), halves of length r each."""

    r: int
    v: tuple[int, ...]

    def __post_init__(self):
        if self.r < 1 or len(self.v) != 2 * self.r:
            raise ValueError("need exactly 2r entries")
        if any(x < 1 for x in self.v):
            raise ValueError("entries must be >= 1")


def difference_product(spec: TupleSpec, i: int) -> int:
    """prod over j != i of (v_i - v_j); zero iff v_i repeats (i is 1-based)."""
    if not 1 <= i <= 2 * spec.r:
        raise IndexError(f"i = {i} outside [1, {2 * spec.r}]")
    vi = spec.v[i - 1]
    out = 1
    for j, vj in enumerate(spec.v, start=1):
        if j != i:
            out *= vi - vj
    return out


def complete_rational_char_sum(chi: DirichletCharacter, tspec: TupleSpec) -> complex:
    """Sum over lambda in [1, q] of chi at the shifted-product ratio.

    chi of a ratio means chi(numerator) * conj(chi(denominator)); any
    lambda at which some factor shares a divisor with q contributes 0.
    For squarefree q this makes the sum factor exactly through the prime
    components.
    """
    q = chi.q
    lam = np.arange(1, q + 1, dtype=np.int64)
    ang = np.zeros(q, dtype=np.float64)
    mask = np.ones(q, dtype=bool)
    for pos, v in enumerate(tspec.v):
        a, m = chi.angle_and_mask(lam + v)
        mask &= m
        if pos < tspec.r:
            ang += a
        else:
            ang -= a
    return pairwise_sum(np.exp(2j * np.pi * ang) * mask)


def complete_rational_char_sum_field(chi: FieldCharacter, tspec: TupleSpec) -> complex:
    """Field version: lambda ranges over GF(q^n), shifts embed as v mod q."""
    spec = chi.spec
    encs = np.arange(spec.size, dtype=np.int64)
    ang = np.zeros(spec.size, dtype=np.float64)
    mask = np.ones(spec.size, dtype=bool)
    for pos, v in enumerate(tspec.v):
        shifted = spec.add_scalar_many(encs, v % spec.q)
        a, m = chi.angle_and_mask(shifted)
        mask &= m
        if pos < tspec.r:
            ang += a
        else:
            ang -= a
    return pairwise_sum(np.exp(2j * np.pi * ang) * mask)


# ----------------------------------------------------------------------
# W by the solution-set expansion

def _solution_groups(p: VinogradovParams) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every ordered r-tuple of [1, V], grouped by its power sums of
    degrees 1..d; J(r, d, V) is the sum of the squared group sizes."""
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for half in itertools.product(range(1, p.V + 1), repeat=p.r):
        key = tuple(sum(x**i for x in half) for i in range(1, p.d + 1))
        groups.setdefault(key, []).append(half)
    return groups


def expansion_W_reference(chi, beta, p: VinogradovParams,
                          budget: int = DEFAULT_SOLUTION_BUDGET,
                          allow_large_weights: bool = False) -> float:
    """W by the solution-set expansion: one complete sum per pair of
    canonical (sorted) halves with equal power-sum keys, weighted by the
    pair's multiplicity.  `chi` is a Dirichlet character, a list of
    prime-modulus characters, or a field character."""
    if isinstance(chi, FieldCharacter):
        def complete_sum(t):
            return complete_rational_char_sum_field(chi, t)
    elif isinstance(chi, DirichletCharacter):
        def complete_sum(t):
            return complete_rational_char_sum(chi, t)
    else:
        def complete_sum(t):
            return math.prod(complete_rational_char_sum(c, t) for c in chi)
    beta = _check_weights(beta, p.V, allow_large_weights)
    groups = _solution_groups(p)
    total_solutions = sum(len(halves) ** 2 for halves in groups.values())
    if total_solutions > budget:
        raise BudgetExceeded(f"J = {total_solutions} solutions exceed budget {budget}")
    terms = []
    for key in sorted(groups):
        tally: dict[tuple[int, ...], int] = {}
        for half in groups[key]:
            canon = tuple(sorted(half))
            tally[canon] = tally.get(canon, 0) + 1
        items = sorted(tally.items())
        weights = [count * math.prod(beta[v - 1] for v in canon)
                   for canon, count in items]
        for (left, _), wl in zip(items, weights):
            for (right, _), wr in zip(items, weights):
                csum = complete_sum(TupleSpec(r=p.r, v=left + right))
                terms.append(wl * np.conjugate(wr) * csum)
    return float(pairwise_sum(np.asarray(terms, dtype=np.complex128)).real)


# ----------------------------------------------------------------------
# J by full enumeration and W by quadrature

def vinogradov_count_naive(p: VinogradovParams, budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Exact J(r, d, V) by full 2r-fold enumeration.

    The 2r-dimensional grid is swept in slices along the first coordinate
    to bound memory; the work is still V^(2r) tuple checks.
    """
    r, d, V = p.r, p.d, p.V
    if V ** (2 * r) > budget:
        raise BudgetExceeded(f"V^(2r) = {V ** (2 * r)} exceeds budget {budget}")
    _check_power_sum_range(p)
    vals = np.arange(1, V + 1, dtype=np.int64)
    powers = [vals**i for i in range(1, d + 1)]
    rest_axes = 2 * r - 1
    shape = (V,) * rest_axes

    def axis_view(arr, axis):
        sh = [1] * rest_axes
        sh[axis] = V
        return arr.reshape(sh)

    total = 0
    for first in range(1, V + 1):
        mask = np.ones(shape, dtype=bool)
        for i in range(1, d + 1):
            diff = np.full(shape, first**i, dtype=np.int64)
            for axis in range(rest_axes):
                sign = 1 if axis < r - 1 else -1
                diff = diff + sign * axis_view(powers[i - 1], axis)
            mask &= diff == 0
        total += int(mask.sum())
    return total


def quadrature_W_reference(chi, beta, p: VinogradovParams, grid: int = 2**14,
                           allow_large_weights: bool = False) -> float:
    """Riemann-sum approximation of the defining integral of W, d = 1 only.

    The integrand is a trigonometric polynomial of degree below r*V in
    alpha, so the uniform rule is exact once grid > r*(V-1); smaller
    grids show the generic first-order convergence.
    """
    if p.d != 1:
        raise ValueError("quadrature reference only supports d = 1")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    beta = _check_weights(beta, p.V, allow_large_weights)
    T = _value_matrix(chi, p.V) * beta[None, :]
    vs = np.arange(1, p.V + 1)
    total = 0.0
    block = max(1, min(grid, (1 << 22) // max(T.shape[0], 1)))
    for start in range(0, grid, block):
        alphas = np.arange(start, min(start + block, grid)) / grid
        phases = np.exp(2j * np.pi * np.outer(vs, alphas))
        S = T @ phases
        total += float((np.abs(S) ** (2 * p.r)).sum())
    return total / grid


# ----------------------------------------------------------------------
# multiplicative energies from their definitions

def _squared_multiplicities(tally: Counter) -> int:
    return sum(c * c for c in tally.values())


def cong_energy_reference(q: int, M: int, N: int, U: int) -> int:
    """Pairs (n1 u1, n2 u2) with equal residues mod q, tallied over the
    Python-int products n u mod q with M < n <= M + N and units u <= U."""
    return _squared_multiplicities(Counter(
        n * u % q for n in range(M + 1, M + N + 1)
        for u in range(1, U + 1) if math.gcd(u, q) == 1))


def ff_box_energy_reference(spec: FieldSpec, H: int, U: int) -> int:
    """Equal products x y of field elements, x in the H-box and y in the
    U-box, tallied over polynomial products (no exp/dlog tables)."""
    ys = box_elements(spec, U)
    return _squared_multiplicities(Counter(
        fmul(x, y).coeffs for x in box_elements(spec, H) for y in ys))


def linear_forms_energy_reference(q: int, L: LinearSystem, H: int, U: int) -> int:
    """Equal tuples (L_i(x) L_i(y) mod q)_i, x in [1, H]^n and y in
    [1, U]^n, tallied over Python ints."""
    def form_values(side):
        return [[sum(c * xi for c, xi in zip(row, x)) % q for row in L.matrix]
                for x in itertools.product(range(1, side + 1), repeat=L.n)]

    ys = form_values(U)
    return _squared_multiplicities(Counter(
        tuple(a * b % q for a, b in zip(fx, fy)) for fx in form_values(H) for fy in ys))
