import cmath
import itertools
import math

import numpy as np
import pytest

from charsumlab import sums
from charsumlab import (FieldCharacter, LinearSystem, RealPolynomial,
                        box_mixed_sum, build_field, crt_character,
                        enumerate_primitive_characters, eval_fraction,
                        eval_phase, factor_squarefree, linear_forms_mixed_sum,
                        mixed_sum, multi_char_mixed_sum, pairwise_sum)
from charsumlab.errors import (ArityMismatch, PrecisionOverflow,
                               SingularSystem)
from oracles import (TupleSpec, complete_rational_char_sum,
                     complete_rational_char_sum_field, difference_product)


def chi_mod(q, indices):
    return crt_character(factor_squarefree(q), indices)


def test_eval_phase_basics():
    assert eval_phase(RealPolynomial.zero(), (17,)) == 1
    half = RealPolynomial.univariate([0.0, 0.5])
    assert abs(eval_phase(half, (3,)) + 1) < 1e-15
    integer = RealPolynomial.univariate([0.0, 1.0, 2.0])
    for x in range(-5, 6):
        assert abs(eval_phase(integer, (x,)) - 1) < 1e-15


def test_eval_fraction_is_exact():
    F = RealPolynomial.univariate([0.0, 0.3])
    num, den = (0.3).as_integer_ratio()
    for x in [1, 7, 12345, 10**9]:
        expected = ((num * x) % den) / den
        assert eval_fraction(F, (x,)) == expected % 1.0


def test_eval_phase_overflow_guard():
    F = RealPolynomial.univariate([0.0, 1.5])
    with pytest.raises(PrecisionOverflow):
        eval_phase(F, (1 << 53,))


# ----------------------------------------------------------------------
# the uint64 phase kernel against the scalar eval_fraction, bit for bit

def _scalar_fractions(F, points):
    return [eval_fraction(F, p) for p in points.tolist()]


def _assert_kernel_is_scalar(F, points):
    fracs = sums._fraction_array(F, points)
    phases = sums._phase_array(F, points)
    assert fracs.dtype == np.float64 and phases.dtype == np.complex128
    want = _scalar_fractions(F, points)
    assert fracs.tolist() == want
    assert phases.tolist() == [complex(np.exp(2j * np.pi * f)) for f in want]
    assert phases.tolist() == [eval_phase(F, p) for p in points.tolist()]


def _dyadic(rng, k):
    """A coefficient num / 2^k with num odd, so exactly k fraction bits."""
    return math.ldexp(int(rng.integers(0, 1 << 52)) * 2 + 1, -k)


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_phase_kernel_matches_eval_fraction_bitwise(nvars, degree, monkeypatch):
    rng = np.random.default_rng(100 * nvars + degree)
    kinds = [lambda: float(rng.integers(-7, 8)), lambda: float(rng.uniform(-7, 7)),
             lambda: _dyadic(rng, 52), lambda: _dyadic(rng, 53),
             lambda: -_dyadic(rng, 53), lambda: _dyadic(rng, 63)]
    exps = [e for e in itertools.product(range(degree + 1), repeat=nvars)
            if sum(e) <= degree]
    terms = {e: kinds[i % len(kinds)]() for i, e in enumerate(exps)}
    F = RealPolynomial.from_terms(nvars, terms)
    # the largest |x| at which no monomial can pass 2^52 with |c| <= 8
    reach = int(2.0 ** (49 / degree))
    corners = [[0] * nvars, [reach] * nvars, [-reach] * nvars, [1] * nvars, [-1] * nvars]
    points = np.asarray(corners + rng.integers(-reach, reach + 1, size=(200, nvars)).tolist()
                        + rng.integers(-9, 10, size=(50, nvars)).tolist(), dtype=np.int64)
    monkeypatch.setattr(sums, "eval_fraction", None)  # the fallback would call it
    fracs = sums._fraction_array(F, points)
    monkeypatch.undo()
    assert fracs.tolist() == _scalar_fractions(F, points)
    _assert_kernel_is_scalar(F, points)


def test_phase_kernel_falls_back_past_63_fraction_bits():
    rng = np.random.default_rng(3)
    F = RealPolynomial.from_terms(2, {(1, 0): _dyadic(rng, 70), (1, 1): 0.3,
                                      (0, 2): _dyadic(rng, 53)})
    points = rng.integers(-10**6, 10**6, size=(100, 2))
    _assert_kernel_is_scalar(F, points)


def test_phase_kernel_guard_and_overflow():
    # the per-coordinate bound 2^80 trips the guard, but no point passes 2^52
    F = RealPolynomial.from_terms(2, {(1, 1): 0.75, (1, 0): 0.125})
    points = np.asarray([[1 << 40, 1], [1, 1 << 40], [-(1 << 40), 3]], dtype=np.int64)
    _assert_kernel_is_scalar(F, points)
    over = RealPolynomial.univariate([0.0, 1.5])
    with pytest.raises(PrecisionOverflow):
        eval_fraction(over, (1 << 53,))
    for call in (sums._fraction_array, sums._phase_array):
        with pytest.raises(PrecisionOverflow):
            call(over, np.asarray([[1], [1 << 53]], dtype=np.int64))


def test_phase_kernel_empty_and_arity():
    F = RealPolynomial.from_terms(2, {(1, 1): 0.3})
    empty = np.zeros((0, 2), dtype=np.int64)
    assert sums._fraction_array(F, empty).shape == (0,)
    assert sums._phase_array(F, empty).shape == (0,)
    assert sums._phase_array(F, empty).dtype == np.complex128
    with pytest.raises(ArityMismatch):
        sums._phase_array(F, np.zeros((3, 1), dtype=np.int64))


def test_pairwise_sum_matches_plain():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=300) + 1j * rng.normal(size=300)
    assert abs(pairwise_sum(vals) - vals.sum()) < 1e-10


def test_mixed_sum_examples():
    chi = chi_mod(5, (1,))
    zero = RealPolynomial.zero()
    assert abs(mixed_sum(chi, zero, 0, 5)) < 1e-12          # full period
    leg = chi_mod(5, (2,))
    assert abs(mixed_sum(leg, zero, 0, 2)) < 1e-12          # 1 + (-1)
    F = RealPolynomial.univariate([0.0, 0.3, 0.11])
    single = mixed_sum(leg, F, 4, 1)
    assert abs(single - leg.value(5) * eval_phase(F, (5,))) < 1e-12
    assert mixed_sum(leg, zero, 3, 0) == 0


def test_mixed_sum_additivity_and_bound():
    chi = chi_mod(15, (1, 3))
    F = RealPolynomial.univariate([0.0, 0.37, 0.05])
    total = mixed_sum(chi, F, 2, 40)
    partial = mixed_sum(chi, F, 2, 17) + mixed_sum(chi, F, 19, 23)
    assert abs(total - partial) < 1e-9
    assert abs(total) <= 40 + 1e-9


def test_mixed_sum_integer_phase_reduces_to_char_sum():
    chi = chi_mod(7, (2,))
    G = RealPolynomial.univariate([0.0, 3.0, 2.0])
    zero = RealPolynomial.zero()
    assert abs(mixed_sum(chi, G, 0, 6) - mixed_sum(chi, zero, 0, 6)) < 1e-9


def test_box_mixed_sum_brute_force():
    f = build_field(3, 2)
    chi = FieldCharacter(f, 1)
    F = RealPolynomial.from_terms(2, {(1, 0): 0.2, (0, 2): 0.4})
    got = box_mixed_sum(chi, F, 2)
    expected = 0j
    for h in itertools.product(range(1, 3), repeat=2):
        x = f.from_coords(h)
        val = chi.value(x)
        frac = (0.2 * h[0] + 0.4 * h[1] ** 2) % 1.0
        expected += val * cmath.exp(2j * math.pi * frac)
    assert abs(got - expected) < 1e-12
    assert abs(got) <= 4 + 1e-12


def test_box_mixed_sum_single_point():
    f = build_field(5, 2)
    chi = FieldCharacter(f, 3)
    F = RealPolynomial.from_terms(2, {(1, 1): 0.3})
    got = box_mixed_sum(chi, F, 1)
    x = f.from_coords((1, 1))
    assert abs(got - chi.value(x) * eval_phase(F, (1, 1))) < 1e-12


def test_multi_char_reduces_and_factors():
    chi5 = chi_mod(5, (1,))
    zero1 = RealPolynomial.zero(1)
    assert abs(multi_char_mixed_sum([chi5], zero1, [0], [4])
               - mixed_sum(chi5, zero1, 0, 4)) < 1e-12
    chi7 = chi_mod(7, (1,))
    zero2 = RealPolynomial.zero(2)
    full = multi_char_mixed_sum([chi5, chi7], zero2, [0, 0], [5, 7])
    assert abs(full) < 1e-9


def test_multi_char_brute_force():
    chi5 = chi_mod(5, (2,))
    chi7 = chi_mod(7, (3,))
    F = RealPolynomial.from_terms(2, {(1, 0): 0.15, (1, 1): 0.27})
    got = multi_char_mixed_sum([chi5, chi7], F, [1, 2], [2, 2])
    expected = 0j
    for h1 in (2, 3):
        for h2 in (3, 4):
            frac = (0.15 * h1 + 0.27 * h1 * h2) % 1.0
            expected += (chi5.value(h1) * chi7.value(h2)
                         * cmath.exp(2j * math.pi * frac))
    assert abs(got - expected) < 1e-12


def test_linear_forms_sum():
    chi = chi_mod(7, (1,))
    ident = LinearSystem(((1,),))
    zero1 = RealPolynomial.zero(1)
    got = linear_forms_mixed_sum(chi, ident, zero1, 3)
    assert abs(got - mixed_sum(chi, zero1, 0, 3)) < 1e-12

    L = LinearSystem(((1, 1), (0, 1)))
    zero2 = RealPolynomial.zero(2)
    got2 = linear_forms_mixed_sum(chi, L, zero2, 2)
    expected = 0j
    for h in itertools.product((1, 2), repeat=2):
        expected += chi.value((h[0] + h[1]) * h[1] % 7)
    assert abs(got2 - expected) < 1e-12
    # points where q divides a form value contribute zero
    L7 = LinearSystem(((1, 6), (0, 1)))
    got3 = linear_forms_mixed_sum(chi, L7, zero2, 7)
    brute = 0j
    for h in itertools.product(range(1, 8), repeat=2):
        brute += chi.value((h[0] + 6 * h[1]) * h[1] % 7)
    assert abs(got3 - brute) < 1e-10


def test_linear_forms_wide_modulus_exact():
    # q^2 > 2^63: residue products no longer fit int64
    q = 65537 * 65539
    chi = chi_mod(q, (3, 5))
    L = LinearSystem(((q // 2, 1), (q // 3, 5)))
    F = RealPolynomial.from_terms(2, {(1, 0): 0.25, (0, 2): 0.125})
    got = linear_forms_mixed_sum(chi, L, F, 60)
    ref = 0j
    for h in itertools.product(range(1, 61), repeat=2):
        prod = math.prod(sum(c * x for c, x in zip(row, h)) for row in L.matrix)
        ref += chi.value(prod % q) * eval_phase(F, h)
    assert abs(got - ref) < 1e-9


def test_linear_forms_singular():
    chi = chi_mod(7, (1,))
    bad = LinearSystem(((1, 1), (2, 2)))
    with pytest.raises(SingularSystem):
        linear_forms_mixed_sum(chi, bad, RealPolynomial.zero(2), 2)
    skew = LinearSystem(((1, 0), (7, 1)))  # determinant 1, fine mod 7
    linear_forms_mixed_sum(chi, skew, RealPolynomial.zero(2), 2)


def test_difference_product():
    assert difference_product(TupleSpec(r=2, v=(1, 2, 3, 4)), 1) == -6
    assert difference_product(TupleSpec(r=2, v=(1, 2, 1, 4)), 1) == 0
    assert difference_product(TupleSpec(r=1, v=(2, 5)), 1) == -3


def test_complete_sum_collapsed_ratio():
    chi = chi_mod(15, (1, 2))
    t = TupleSpec(r=2, v=(3, 3, 3, 3))
    got = complete_rational_char_sum(chi, t)
    expected = sum(1 for lam in range(1, 16) if math.gcd(lam + 3, 15) == 1)
    assert abs(got - expected) < 1e-9


def test_complete_sum_legendre7():
    chi = chi_mod(7, (3,))
    got = complete_rational_char_sum(chi, TupleSpec(r=1, v=(1, 2)))
    brute = 0j
    for lam in range(1, 8):
        a, b = (lam + 1) % 7, (lam + 2) % 7
        if a and b:
            brute += chi.value(a) * chi.value(b).conjugate()
    assert abs(got - brute) < 1e-12
    assert abs(got + 1) < 1e-9  # hand value: -1
    assert abs(got) <= 7


def test_complete_sum_crt_factorization():
    for q in (15, 35, 105):
        m = factor_squarefree(q)
        chi = enumerate_primitive_characters(m)[1]
        for v in [(1, 2, 3, 4), (2, 2, 5, 1)]:
            t = TupleSpec(r=2, v=v)
            full = complete_rational_char_sum(chi, t)
            prod = 1.0 + 0j
            for comp in chi.components:
                sub = crt_character(factor_squarefree(comp.p), (comp.t,))
                prod *= complete_rational_char_sum(sub, t)
            assert abs(full - prod) < 1e-9


@pytest.mark.parametrize("p", [7, 11, 13])
def test_weil_bound_spot_checks(p):
    m = factor_squarefree(p)
    chi = crt_character(m, (1,))
    r = 2
    bound_cap = (2 * r - 1) * math.sqrt(p)
    top = min(p - 1, 4)
    for v in itertools.product(range(1, top + 1), repeat=4):
        if len(set(v)) < r + 1:
            continue
        t = TupleSpec(r=r, v=v)
        gcds = [math.gcd(p, abs(difference_product(t, i)))
                for i in range(1, 2 * r + 1) if difference_product(t, i) != 0]
        bound = bound_cap * math.sqrt(min(gcds))
        assert abs(complete_rational_char_sum(chi, t)) <= bound + 1e-9


def test_complete_sum_field():
    f = build_field(3, 2)
    chi = FieldCharacter(f, 1)
    t = TupleSpec(r=1, v=(1, 1))
    got = complete_rational_char_sum_field(chi, t)
    # |chi(lambda + 1)|^2 = 1 unless lambda = -1
    assert abs(got - (f.size - 1)) < 1e-9
    t2 = TupleSpec(r=1, v=(1, 2))
    brute = 0j
    for enc in range(f.size):
        lam = f.from_encoding(enc)
        a = lam + f.scalar(1)
        b = lam + f.scalar(2)
        if not a.is_zero() and not b.is_zero():
            brute += chi.value(a) * chi.value(b).conjugate()
    assert abs(complete_rational_char_sum_field(chi, t2) - brute) < 1e-10


def test_phase_periodicity_invariance():
    chi = chi_mod(7, (2,))
    F = RealPolynomial.univariate([0.0, 0.123, 0.456])
    G = RealPolynomial.univariate([0.0, 2.0, 5.0])
    assert abs(mixed_sum(chi, F, 0, 20) - mixed_sum(chi, F.plus(G), 0, 20)) < 1e-9


def test_real_polynomial_validation():
    with pytest.raises(ArityMismatch):
        RealPolynomial(nvars=1, terms=(((1, 2), 1.0),))
    with pytest.raises(ValueError):
        RealPolynomial(nvars=1, terms=(((1,), float("nan")),))
    F = RealPolynomial.from_terms(2, {(1, 0): 0.5, (0, 3): 0.0})
    assert F.degree == 1
    assert F.coefficient((0, 3)) == 0.0
