import math
import random

import pytest

from charsumlab import (LinearSystem, build_field, cong_energy, ff_box_energy,
                        linear_forms_energy)
from charsumlab.errors import HypothesisViolated
from oracles import (cong_energy_reference, ff_box_energy_reference,
                     linear_forms_energy_reference)


def test_cong_energy_example():
    assert cong_energy(5, 0, 2, 2) == 6
    assert cong_energy_reference(5, 0, 2, 2) == 6


def test_cong_energy_diagonal_and_u1():
    for q, N in [(11, 3), (101, 9)]:
        assert cong_energy(q, 0, N, 1) == N
    q, M, N, U = 101, 5, 9, 7
    units = sum(1 for u in range(1, U + 1) if math.gcd(u, q) == 1)
    assert cong_energy(q, M, N, U) >= N * units


def test_cong_energy_methods_agree():
    for q, M, N, U in [(11, 0, 3, 3), (35, 2, 5, 7), (101, 10, 10, 10),
                       (97, 0, 9, 9)]:
        assert cong_energy(q, M, N, U) == cong_energy_reference(q, M, N, U)


def test_cong_energy_role_symmetry():
    # the relation is symmetric under swapping the two (n, u) pairs, so
    # the count must be (number of pairs) + 2 * (strictly ordered matches)
    q, M, N, U = 31, 3, 5, 5
    units = [u for u in range(1, U + 1) if math.gcd(u, q) == 1]
    prods = [n * u % q for n in range(M + 1, M + N + 1) for u in units]
    strictly_ordered = sum(1 for i in range(len(prods))
                           for j in range(i + 1, len(prods))
                           if prods[i] == prods[j])
    assert cong_energy(q, M, N, U) == len(prods) + 2 * strictly_ordered


def test_cong_energy_hypothesis():
    with pytest.raises(HypothesisViolated):
        cong_energy(5, 0, 3, 3)
    assert cong_energy(5, 0, 3, 3, override_hypotheses=True) >= 3 * 3


def test_ff_box_energy():
    f25 = build_field(5, 2)
    assert ff_box_energy(f25, 1, 1) == 1
    hashed = ff_box_energy(f25, 2, 2)
    assert hashed == ff_box_energy_reference(f25, 2, 2)
    assert hashed >= (2 * 2) ** 2
    f49 = build_field(7, 2)
    assert ff_box_energy(f49, 2, 2) == ff_box_energy_reference(f49, 2, 2)


def test_ff_box_energy_hypothesis():
    f9 = build_field(3, 2)
    with pytest.raises(HypothesisViolated):
        ff_box_energy(f9, 2, 1)
    assert ff_box_energy(f9, 2, 1, override_hypotheses=True) >= 4


def test_linear_forms_energy_identity_reduces():
    q = 101
    ident = LinearSystem(((1,),))
    for H, U in [(3, 3), (5, 7)]:
        assert (linear_forms_energy(q, ident, H, U)
                == cong_energy(q, 0, H, U))


def test_linear_forms_energy_example():
    q = 7
    L = LinearSystem(((1, 1), (0, 1)))
    assert linear_forms_energy(q, L, 1, 1) == 1
    hashed = linear_forms_energy(q, L, 2, 2)
    assert hashed == linear_forms_energy_reference(q, L, 2, 2)
    assert hashed >= (2 * 2) ** 2


def test_linear_forms_energy_hypothesis_and_singular():
    from charsumlab.errors import SingularSystem

    q = 7
    with pytest.raises(SingularSystem):
        linear_forms_energy(q, LinearSystem(((1, 1), (2, 2))), 2, 2)
    with pytest.raises(HypothesisViolated):
        linear_forms_energy(q, LinearSystem(((1, 0), (0, 1))), 3, 2)


def test_energy_is_sum_of_squared_multiplicities():
    # recount the congruence energy from the definition
    q, M, N, U = 35, 1, 5, 7
    units = [u for u in range(1, U + 1) if math.gcd(u, q) == 1]
    mult = {}
    for n in range(M + 1, M + N + 1):
        for u in units:
            c = n * u % q
            mult[c] = mult.get(c, 0) + 1
    assert cong_energy(q, M, N, U) == sum(m * m for m in mult.values())


def test_cong_energy_wide_modulus_exact():
    # residue times unit reaches q*U > 2^63, past int64
    q, M, N, U = 2**61 - 1, 2**61 - 11, 5, 7
    assert cong_energy_reference(q, M, N, U) == 47
    assert cong_energy(q, M, N, U) == 47


def test_linear_forms_energy_wide_modulus_exact():
    # form values and their products reach q^2 > 2^63, past int64
    q, H = 1099511627791, 6
    rng = random.Random(0)
    for _ in range(3):
        while True:
            mat = tuple(tuple(rng.randrange(q) for _ in range(2)) for _ in range(2))
            if (mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]) % q:
                break
        L = LinearSystem(mat)
        assert linear_forms_energy_reference(q, L, H, H) == 2920
        assert linear_forms_energy(q, L, H, H) == 2920
    small = LinearSystem(((q // 2, 3), (q // 3, 7)))
    assert (linear_forms_energy(q, small, 3, 3)
            == linear_forms_energy_reference(q, small, 3, 3))
