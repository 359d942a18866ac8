#!/usr/bin/env python3
"""The double mean value W, computed exactly and cross-checked.

W integrates the 2r-th moment of a short shifted character sum over all
phase coefficients.  Expanding the power turns the integral into a sum
of complete character sums indexed by Vinogradov solutions, so W is a
finite exact expression.  For linear phases a Riemann sum of the
defining integral provides an independent oracle, and the main-term
bound shapes let us measure the implied constants.
"""

from charsumlab import (VinogradovParams, crt_character,
                        enumerate_primitive_characters, exact_W_squarefree,
                        factor_squarefree, lemma_rhs, quadrature_W_reference,
                        vinogradov_count_mitm, vinogradov_count_naive)

print("Vinogradov counts J(r, d, V): naive enumeration vs r-multisets grouped by key")
for (r, d, V) in [(2, 1, 3), (2, 2, 3), (2, 2, 10), (3, 2, 6)]:
    p = VinogradovParams(r, d, V)
    naive = vinogradov_count_naive(p)
    mitm = vinogradov_count_mitm(p)
    print(f"  J({r},{d},{V}) = {naive} (naive) = {mitm} (multisets);"
          f"  bounds V^r = {V**r}, V^2r = {V**(2*r)}")

q = 35
chi = enumerate_primitive_characters(factor_squarefree(q))[0]
print(f"\nq = {q}, first primitive character, d = 1 so the oracle applies")
for r in (1, 2):
    for V in (2, 4):
        p = VinogradovParams(r, 1, V)
        w = exact_W_squarefree(chi, None, p)
        ref = quadrature_W_reference(chi, None, p, grid=2**12)
        print(f"  r = {r}, V = {V}:  W = {w:12.6f}   quadrature {ref:12.6f}   "
          f"reldiff {abs(w - ref) / w:.1e}")

print("\nmeasuring the implied constant of the mean-value bound (d = 2)")
leg = crt_character(factor_squarefree(899), (1, 1))  # 29 * 31
for V in (4, 8, 16):
    p = VinogradovParams(2, 2, V)
    w = exact_W_squarefree(leg, None, p)
    j = vinogradov_count_mitm(p)
    rhs = lemma_rhs("L3", q=899, V=V, r=2, j_count=j)
    print(f"  V = {V:2d}:  W = {w:12.2f}   main term {rhs:12.2f}   "
          f"ratio {w / rhs:.4f}")
print("the ratio stays O(1): the q^o(1) factor is tame at desk scale")
