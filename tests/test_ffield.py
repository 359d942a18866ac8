import itertools

import numpy as np
import pytest

from charsumlab import (FieldCharacter, additive_char, box_elements,
                        build_field, fadd, fmul, trace)
from charsumlab.errors import BoxTooLarge, NotPrime, TooLarge
from charsumlab.ffield import box_encodings
from oracles import finv


def all_elements(spec):
    return [spec.from_encoding(e) for e in range(spec.size)]


def test_build_field_examples():
    assert build_field(2, 2).modpoly == (1, 1, 1)   # x^2 + x + 1
    assert build_field(3, 2).modpoly == (1, 0, 1)   # x^2 + 1
    assert build_field(5, 1).modpoly == (0, 1)      # x, the degenerate prime field


def test_build_field_errors():
    with pytest.raises(NotPrime):
        build_field(6, 2)
    with pytest.raises(TooLarge):
        build_field(2, 27)


def test_gf4_arithmetic():
    f = build_field(2, 2)
    x = f.element((0, 1))
    assert (x * x).coeffs == (1, 1)
    for e in all_elements(f):
        assert (e + f.zero()) == e
    assert finv(f.one()) == f.one()
    with pytest.raises(ZeroDivisionError):
        finv(f.zero())


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (5, 2)])
def test_field_axioms_exhaustive_triples(q, n):
    f = build_field(q, n)
    elems = all_elements(f)
    for a in elems:
        if not a.is_zero():
            assert fmul(a, finv(a)) == f.one()
    for a, b, c in itertools.product(elems, repeat=3):
        assert fmul(fmul(a, b), c) == fmul(a, fmul(b, c))
        assert fmul(a, fadd(b, c)) == fadd(fmul(a, b), fmul(a, c))
        assert fadd(fadd(a, b), c) == fadd(a, fadd(b, c))


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (7, 2), (5, 3)])
def test_dlog_tables(q, n):
    f = build_field(q, n)
    g = f.generator
    for enc in range(1, f.size):
        k = int(f.dlog[enc])
        assert f.pow_element(g, k).encoding == enc
    assert int(f.dlog[0]) == -1


def test_mul_many_matches_scalar():
    f = build_field(5, 2)
    encs = np.arange(f.size, dtype=np.int64)
    a = np.repeat(encs, f.size)
    b = np.tile(encs, f.size)
    prods = f.mul_many(a, b)
    for i in range(0, f.size * f.size, 7):
        ea, eb = int(a[i]), int(b[i])
        expected = fmul(f.from_encoding(ea), f.from_encoding(eb)).encoding
        assert int(prods[i]) == expected


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3),
                                 (7, 3), (3, 4), (4099, 1), (5, 6)])
def test_exp_table_matches_scalar_recurrence(q, n):
    # 7^3 - 1 = 342 and 3^4 - 1 = 80 end the doubling on a partial block;
    # 4099 - 1 and 5^6 - 1 go past one block of 4096 and end on a partial one
    f = build_field(q, n)
    g = f.decode(f.generator_encoding)
    cur = f.one().coeffs
    for k in range(f.size - 1):
        assert int(f.exp[k]) == f.encode(cur), k
        cur = f.mul_coeffs(cur, g)
    assert cur == f.one().coeffs


def test_trace_examples():
    f4 = build_field(2, 2)
    assert trace(f4, f4.element((0, 1))) == 1
    assert trace(f4, f4.one()) == 2 % 2
    assert trace(f4, f4.zero()) == 0
    f9 = build_field(3, 2)
    assert trace(f9, f9.one()) == 2 % 3


@pytest.mark.parametrize("q,n", [(3, 3), (5, 2)])
def test_trace_linear_and_surjective(q, n):
    f = build_field(q, n)
    encs = np.arange(f.size, dtype=np.int64)
    tr = f.trace_many(encs)
    assert set(int(t) for t in tr) == set(range(q))
    elems = all_elements(f)
    for a in elems:
        for b in elems:
            assert trace(f, fadd(a, b)) == (trace(f, a) + trace(f, b)) % q
        for c in range(q):
            assert trace(f, fmul(f.scalar(c), a)) == c * trace(f, a) % q


def test_additive_char():
    f = build_field(3, 2)
    zero = f.zero()
    elems = all_elements(f)
    for x in elems:
        assert abs(additive_char(f, zero, x) - 1) < 1e-12
    a = f.element((1, 1))
    for x in elems:
        for y in elems:
            lhs = additive_char(f, a, fadd(x, y))
            rhs = additive_char(f, a, x) * additive_char(f, a, y)
            assert abs(lhs - rhs) < 1e-12
    total = sum(additive_char(f, a, x) for x in elems)
    assert abs(total) < 1e-9


def test_box_elements():
    f = build_field(5, 2)
    box1 = box_elements(f, 1)
    assert len(box1) == 1
    assert box1[0] == f.element((1, 1))
    assert len(box_elements(f, 2)) == 4
    big = box_elements(build_field(5, 2), 4)
    assert len(set(big)) == 16
    with pytest.raises(BoxTooLarge):
        box_elements(f, 5)
    encs = box_encodings(f, 3)
    assert [e.encoding for e in box_elements(f, 3)] == list(map(int, encs))


def test_field_character_orthogonality():
    f = build_field(5, 2)
    encs = np.arange(f.size, dtype=np.int64)
    for t in range(1, f.size - 1):
        chi = FieldCharacter(f, t)
        vals = chi.value_many(encs)
        assert abs(vals.sum()) < 1e-9
    chi = FieldCharacter(f, 3)
    nz = [e for e in range(1, f.size)]
    vals = chi.value_many(np.asarray(nz))
    prods = f.mul_many(np.repeat(nz, len(nz)), np.tile(nz, len(nz)))
    lhs = chi.value_many(prods).reshape(len(nz), len(nz))
    assert np.max(np.abs(lhs - np.outer(vals, vals))) < 1e-11


@pytest.mark.parametrize("q,n,count", [(2, 2, 1), (2, 3, 2), (2, 4, 3),
                                       (3, 2, 3), (3, 3, 8), (5, 2, 10)])
def test_irreducibility_against_trial_division(q, n, count):
    from charsumlab.ffield import _is_irreducible, _poly_rem, _poly_trim

    def brute(f):
        for deg in range(1, n):
            for low in itertools.product(range(q), repeat=deg):
                if not _poly_trim(_poly_rem(list(f), list(low) + [1], q)):
                    return False
        return True

    found = 0
    for low in itertools.product(range(q), repeat=n):
        f = list(low) + [1]
        fast = _is_irreducible(f, q)
        assert fast == brute(f), f
        found += fast
    assert found == count  # the Moebius count of monic irreducibles


def test_custom_basis_round_trip():
    f = build_field(3, 2, basis=((1, 1), (0, 1)))
    inverse = ((1, 2), (0, 1))  # ((1, 1), (0, 1))^(-1) over F_3
    for h in itertools.product(range(3), repeat=2):
        # power-basis coefficients times the inverse basis give h back
        c = f.from_coords(h).coeffs
        assert tuple(sum(c[j] * inverse[j][i] for j in range(2)) % 3
                     for i in range(2)) == h
    # box uses the working basis
    b = box_elements(f, 1)[0]
    assert b.coeffs == ((1 + 0) % 3, (1 + 1) % 3)


def test_singular_basis_is_rejected():
    with pytest.raises(ValueError, match="singular"):
        build_field(3, 2, basis=((1, 1), (2, 2)))
    with pytest.raises(ValueError, match="singular"):
        build_field(3, 2, basis=((2, 1), (1, 2)))  # det = 3
    with pytest.raises(ValueError, match="singular"):
        build_field(5, 3, basis=((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    build_field(3, 2, basis=((2, 1), (1, 1)))  # det = 1
    build_field(5, 3, basis=((0, 0, 1), (1, 0, 0), (0, 1, 0)))  # a permutation is fine
