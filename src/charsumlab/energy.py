"""Multiplicative energies of intervals, field boxes and linear forms.

Each energy counts quadruples with equal products and equals
sum_c m(c)^2 over the multiplicity m(c) of each product value c, and
each is computed by hashing the products into that multiplicity map in
O(box) time.  The counts straight from the definitions are test oracles
outside the package (tests/oracles.py).

The lemma hypotheses (N*U <= q for the congruence energy, H, U <=
sqrt(q) for the field-box and linear-forms energies) are enforced unless
explicitly overridden; sweeps near the boundary are allowed but must say
so.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .errors import HypothesisViolated
from .ffield import FieldSpec, box_encodings
from .sums import LinearSystem


def _sum_of_squared_counts(values: np.ndarray) -> int:
    _, counts = np.unique(values, return_counts=True)
    return int((counts.astype(object) ** 2).sum())


def cong_energy(q: int, M: int, N: int, U: int,
                override_hypotheses: bool = False) -> int:
    """Count n1 u1 = n2 u2 mod q with M < n_i <= M + N and unit u_i <= U."""
    if N < 1 or U < 1 or q < 2:
        raise ValueError("need q >= 2, N >= 1, U >= 1")
    if N * U > q and not override_hypotheses:
        raise HypothesisViolated(f"N*U = {N * U} exceeds q = {q}")
    units = [u for u in range(1, U + 1) if math.gcd(u, q) == 1]
    if not units:
        return 0
    # a residue times a unit reaches q*U: past int64, use exact ints
    dtype = object if q * U >= 1 << 63 else np.int64
    ns = np.asarray([n % q for n in range(M + 1, M + N + 1)], dtype=dtype)
    prods = (ns[:, None] * np.asarray(units, dtype=dtype)[None, :]).ravel() % q
    return _sum_of_squared_counts(prods.astype(np.int64, copy=False))


def ff_box_energy(spec: FieldSpec, H: int, U: int,
                  override_hypotheses: bool = False) -> int:
    """Count x1 x2 = x3 x4 with x1, x3 in the H-box and x2, x4 in the U-box."""
    if H < 1 or U < 1:
        raise ValueError("need H >= 1 and U >= 1")
    if (H * H > spec.q or U * U > spec.q) and not override_hypotheses:
        raise HypothesisViolated(
            f"H = {H}, U = {U} must stay within sqrt(q) = sqrt({spec.q})")
    a = box_encodings(spec, H)
    b = box_encodings(spec, U)
    if np.any(a == 0) or np.any(b == 0):  # boxes start at coordinate 1
        raise ArithmeticError("box unexpectedly contains 0")
    size = spec.size
    ka = spec.dlog[a]
    kb = spec.dlog[b]
    return _sum_of_squared_counts((ka[:, None] + kb[None, :]).ravel() % (size - 1))


def linear_forms_energy(q: int, L: LinearSystem, H: int, U: int,
                        override_hypotheses: bool = False) -> int:
    """Count the simultaneous congruences L_i(x1) L_i(x2) = L_i(x3) L_i(x4)
    mod q for all i, with x1, x3 in [1, H]^n and x2, x4 in [1, U]^n."""
    if H < 1 or U < 1 or q < 2:
        raise ValueError("need q >= 2, H >= 1, U >= 1")
    L.check_invertible_mod(q)
    if (H * H > q or U * U > q) and not override_hypotheses:
        raise HypothesisViolated(f"H = {H}, U = {U} must stay within sqrt({q})")
    n = L.n
    # form values reach n*max(H, U)*q and their products q^2: past int64,
    # use exact ints
    exact = q * q >= 1 << 63 or n * max(H, U) * q >= 1 << 63
    dtype = object if exact else np.int64
    mat = np.asarray([[c % q for c in row] for row in L.matrix], dtype=dtype)

    def box_form_values(side):
        grids = np.meshgrid(*([np.arange(1, side + 1, dtype=np.int64)] * n),
                            indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        return (pts.astype(dtype) @ mat.T) % q

    fa = box_form_values(H)
    fb = box_form_values(U)
    keys = (fa[:, None, :] * fb[None, :, :]).reshape(-1, n) % q
    if q**n < 1 << 62:  # pack the n residues into one integer key
        packed = np.zeros(len(keys), dtype=np.int64)
        for i in range(n):
            packed = packed * q + keys[:, i]
        return _sum_of_squared_counts(packed)
    counter = Counter(map(tuple, keys.tolist()))
    return sum(c * c for c in counter.values())

