#!/usr/bin/env python3
"""Three multiplicative energies.

Each energy counts quadruples with equal products; hashing the products
gives the count in O(box).  The measured count over the bound's main
term is the empirical q^o(1).
"""

import math

from charsumlab import (LinearSystem, build_field, cong_energy,
                        ff_box_energy, linear_forms_energy)

print("congruence energy: n1 u1 = n2 u2 mod q over an interval and units")
for q, N, U in [(101, 10, 10), (499, 22, 22), (997, 31, 31)]:
    hashed = cong_energy(q, 0, N, U)
    print(f"  q = {q:4d}, N = U = {N}:  count = {hashed:6d}"
          f"   NU = {N*U:5d}   ratio {hashed/(N*U):.3f}")

print("\nfield-box energy in GF(q^2) with H = U = floor(sqrt(q))")
for q in (23, 101, 401):
    spec = build_field(q, 2)
    h = math.isqrt(q)
    count = ff_box_energy(spec, h, h)
    denom = (h * h) ** 2 * math.log(q)
    print(f"  q = {q:4d}, H = {h}:  count = {count:8d}"
          f"   (UH)^n log q = {denom:10.1f}   ratio {count/denom:.3f}")

print("\nlinear-forms energy: simultaneous congruences for every form")
L = LinearSystem(((1, 1), (0, 1)))
for q in (101, 401):
    h = math.isqrt(q)
    count = linear_forms_energy(q, L, h, h)
    print(f"  q = {q:4d}, H = U = {h}:  count = {count:8d}"
          f"   (UH)^n = {(h*h)**2:8d}   ratio {count/(h*h)**2:.3f}")

print("\ndiagonal quadruples alone already give (HU)^n; the first two counts")
print("sit close to that floor, while the linear-forms count carries the")
print("log-power factor that the q^o(1) in its bound absorbs")
