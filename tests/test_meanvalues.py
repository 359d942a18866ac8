import itertools

import numpy as np
import pytest

from charsumlab import (FieldCharacter, VinogradovParams, build_field,
                        crt_character, exact_W_field, exact_W_multichar,
                        exact_W_squarefree, factor_squarefree, lemma_rhs,
                        vinogradov_count_mitm)
from charsumlab.errors import BudgetExceeded, MissingCount, RangeViolation
from charsumlab.meanvalues import _multiset_table, _multisets
from oracles import (_solution_groups, expansion_W_reference,
                     quadrature_W_reference, vinogradov_count_naive)

P = VinogradovParams


def brute_force_count(r, d, V):
    count = 0
    for v in itertools.product(range(1, V + 1), repeat=2 * r):
        if all(sum(x**i for x in v[:r]) == sum(x**i for x in v[r:])
               for i in range(1, d + 1)):
            count += 1
    return count


def test_naive_spot_values():
    assert vinogradov_count_naive(P(2, 1, 3)) == 19
    assert vinogradov_count_naive(P(2, 2, 3)) == 15
    for d in (1, 2, 3):
        for V in (1, 4, 9):
            assert vinogradov_count_naive(P(1, d, V)) == V


def test_naive_matches_pure_python():
    for r, d, V in [(1, 1, 5), (2, 1, 4), (2, 2, 4), (2, 3, 3), (3, 2, 3)]:
        assert vinogradov_count_naive(P(r, d, V)) == brute_force_count(r, d, V)


def test_mitm_agrees_with_naive():
    for r in (1, 2, 3):
        for d in (1, 2, 3):
            for V in (1, 2, 3, 5, 8):
                assert (vinogradov_count_mitm(P(r, d, V))
                        == vinogradov_count_naive(P(r, d, V)))


def half_tuple_tally(r, d, V):
    """J from all V^r ordered half-tuples: sum of squared key counts."""
    grids = np.meshgrid(*([np.arange(1, V + 1, dtype=np.int64)] * r), indexing="ij")
    halves = np.stack([g.ravel() for g in grids], axis=-1)
    keys = np.stack([(halves**i).sum(axis=1) for i in range(1, d + 1)], axis=-1)
    _, counts = np.unique(keys, axis=0, return_counts=True)
    return int((counts.astype(object) ** 2).sum())


def test_mitm_matches_half_tuple_tally():
    # shapes past the reach of the 2r-fold naive count
    for r, d, V in [(3, 3, 20), (4, 2, 12), (2, 4, 40), (5, 1, 7), (1, 3, 50)]:
        assert vinogradov_count_mitm(P(r, d, V)) == half_tuple_tally(r, d, V)


def test_count_budgets():
    with pytest.raises(BudgetExceeded):
        vinogradov_count_naive(P(3, 2, 40), budget=10**6)
    with pytest.raises(BudgetExceeded):
        vinogradov_count_mitm(P(3, 2, 200), budget=10**6)
    # the mitm budget counts r * V^r tuple operations, inclusive
    for r, d, V in [(1, 2, 9), (2, 2, 7), (3, 1, 5), (4, 2, 3)]:
        edge = r * V**r
        assert vinogradov_count_mitm(P(r, d, V), budget=edge) == half_tuple_tally(r, d, V)
        with pytest.raises(BudgetExceeded):
            vinogradov_count_mitm(P(r, d, V), budget=edge - 1)


def test_multiset_rows_follow_itertools_order():
    for r, d, V in [(1, 2, 6), (2, 2, 7), (3, 3, 9), (4, 1, 5), (5, 2, 4), (3, 2, 1)]:
        ref = np.asarray(list(itertools.combinations_with_replacement(range(1, V + 1), r)),
                         dtype=np.int64)
        rows = _multisets(V, r)
        assert rows.dtype == np.int64 and np.array_equal(rows, ref)
        # the table is those rows stably sorted by power-sum key
        keys = np.stack([(ref**i).sum(axis=1) for i in range(1, d + 1)], axis=-1)
        cols = _multiset_table(P(r, d, V))[0]
        assert np.array_equal(cols, ref[np.lexsort(keys.T[::-1])] - 1)


def test_count_bounds_and_monotonicity():
    for d in (1, 2, 3):
        for V in range(1, 11):
            assert vinogradov_count_mitm(P(1, d, V)) == V
    for r in (2, 3):
        for V in (2, 4, 6):
            j = vinogradov_count_mitm(P(r, 2, V))
            assert V**r <= j <= V ** (2 * r)
    for V in range(1, 10):
        assert (vinogradov_count_mitm(P(2, 2, V + 1))
                >= vinogradov_count_mitm(P(2, 2, V)))
    for d in (1, 2):
        assert (vinogradov_count_mitm(P(2, d + 1, 8))
                <= vinogradov_count_mitm(P(2, d, 8)))


def test_solution_permutation_closure():
    sols = {left + right for halves in _solution_groups(P(2, 1, 4)).values()
            for left in halves for right in halves}
    for v in sols:
        assert (v[1], v[0], v[2], v[3]) in sols
        assert (v[2], v[3], v[0], v[1]) in sols


def test_power_sum_key():
    groups = _solution_groups(P(2, 2, 3))
    assert sorted(groups[(5, 13)]) == [(2, 3), (3, 2)]
    assert sum(len(halves) ** 2 for halves in groups.values()) == 15


def test_exact_w_diagonal_cases():
    chi = crt_character(factor_squarefree(15), (1, 1))
    w = exact_W_squarefree(chi, None, P(1, 1, 1))
    assert w == pytest.approx(8.0, abs=1e-9)  # phi(15) unit shifts
    leg = crt_character(factor_squarefree(5), (2,))
    assert exact_W_squarefree(leg, None, P(1, 1, 2)) == pytest.approx(8.0, abs=1e-9)


def test_exact_w_matches_quadrature():
    leg = crt_character(factor_squarefree(5), (2,))
    for r in (1, 2):
        for V in (2, 3):
            w = exact_W_squarefree(leg, None, P(r, 1, V))
            ref = quadrature_W_reference(leg, None, P(r, 1, V), grid=2**10)
            assert w == pytest.approx(ref, rel=1e-3)
    chi21 = crt_character(factor_squarefree(21), (1, 2))
    w = exact_W_squarefree(chi21, None, P(2, 1, 3))
    ref = quadrature_W_reference(chi21, None, P(2, 1, 3), grid=2**10)
    assert w == pytest.approx(ref, rel=1e-3)


GRAM_SHAPES = [(1, 1, 3), (2, 1, 3), (2, 2, 4), (2, 3, 3), (3, 2, 3),
               (3, 3, 3), (4, 1, 3), (4, 2, 2)]


def test_gram_w_matches_expansion():
    chis = [crt_character(factor_squarefree(7), (2,)),
            crt_character(factor_squarefree(15), (1, 1)),
            crt_character(factor_squarefree(35), (1, 4)),
            [crt_character(factor_squarefree(5), (1,)),
             crt_character(factor_squarefree(7), (2,))],
            FieldCharacter(build_field(3, 2), 1),
            FieldCharacter(build_field(2, 3), 3)]
    W_of = {list: exact_W_multichar, FieldCharacter: exact_W_field}
    for chi in chis:
        exact_W = W_of.get(type(chi), exact_W_squarefree)
        for r, d, V in GRAM_SHAPES:
            p = P(r, d, V)
            weights = [None, [0.9 * (-1) ** v + 0.3j * v / V for v in range(1, V + 1)]]
            for beta in weights:
                w = exact_W(chi, beta, p)
                ref = expansion_W_reference(chi, beta, p)
                assert w >= 0
                assert w == pytest.approx(ref, rel=1e-12), (chi, r, d, V, beta)


def test_gram_w_budget_fires_at_j():
    chi = crt_character(factor_squarefree(7), (2,))
    for r, d, V in GRAM_SHAPES:
        p = P(r, d, V)
        j = vinogradov_count_mitm(p)
        exact_W_squarefree(chi, None, p, budget=j)
        with pytest.raises(BudgetExceeded):
            exact_W_squarefree(chi, None, p, budget=j - 1)
        with pytest.raises(BudgetExceeded):
            expansion_W_reference(chi, None, p, budget=j - 1)


def test_exact_w_weighted():
    leg = crt_character(factor_squarefree(5), (2,))
    beta = [0.5, -0.25, 0.8j]
    w = exact_W_squarefree(leg, beta, P(2, 1, 3))
    ref = quadrature_W_reference(leg, beta, P(2, 1, 3), grid=2**10)
    assert w == pytest.approx(ref, rel=1e-6)
    with pytest.raises(ValueError):
        exact_W_squarefree(leg, [2.0, 0.0, 0.0], P(2, 1, 3))
    exact_W_squarefree(leg, [2.0, 0.0, 0.0], P(2, 1, 3), allow_large_weights=True)


def test_exact_w_multichar():
    chis = [crt_character(factor_squarefree(5), (1,)),
            crt_character(factor_squarefree(7), (2,))]
    w = exact_W_multichar(chis, None, P(1, 1, 1))
    assert w == pytest.approx(4 * 6, abs=1e-9)
    w2 = exact_W_multichar(chis, None, P(1, 1, 2))
    ref = quadrature_W_reference(chis, None, P(1, 1, 2), grid=2**10)
    assert w2 == pytest.approx(ref, rel=1e-3)
    with pytest.raises(RangeViolation):
        exact_W_multichar(chis, None, P(1, 1, 6))


def test_exact_w_field():
    f = build_field(3, 2)
    chi = FieldCharacter(f, 1)
    assert exact_W_field(chi, None, P(1, 1, 1)) == pytest.approx(8.0, abs=1e-9)
    w = exact_W_field(chi, None, P(1, 1, 2))
    ref = quadrature_W_reference(chi, None, P(1, 1, 2), grid=2**10)
    assert w == pytest.approx(ref, rel=1e-3)


def test_quadrature_grid_behaviour():
    leg = crt_character(factor_squarefree(5), (2,))
    p = P(2, 1, 4)
    exact = exact_W_squarefree(leg, None, p)
    # the integrand is a trig polynomial with frequencies below r*V, so
    # coarse grids alias (nonzero error) and any grid > r*(V-1) is exact
    errs = {g: abs(quadrature_W_reference(leg, None, p, grid=g) - exact)
            for g in (2, 4, 5, 6, 7, 8, 16)}
    assert errs[4] > 1.0 and errs[5] > 1.0
    for g in (7, 8, 16):
        assert errs[g] < 1e-9
    # doubling from a sub-threshold grid into the exact regime only helps
    assert errs[8] <= errs[4] and errs[16] <= errs[8] + 1e-12
    with pytest.raises(ValueError):
        quadrature_W_reference(leg, None, P(1, 2, 2))


def riemann_w_2d(chi, p, grids):
    """Independent oracle for d = 2: a product-grid Riemann sum of the
    defining double integral, exact whenever grids[k] > r*(V^(k+1) - 1)
    because the integrand is a trigonometric polynomial in each alpha."""
    import numpy as np

    assert p.d == 2
    lam = np.arange(1, chi.q + 1, dtype=np.int64)
    T = np.stack([chi.value_many(lam + v) for v in range(1, p.V + 1)], axis=-1)
    vs = np.arange(1, p.V + 1)
    total = 0.0
    for a1 in range(grids[0]):
        for a2 in range(grids[1]):
            phase = np.exp(2j * np.pi * (a1 / grids[0] * vs
                                         + a2 / grids[1] * vs**2))
            S = T @ phase
            total += float((np.abs(S) ** (2 * p.r)).sum())
    return total / (grids[0] * grids[1])


def test_exact_w_degree_two_against_independent_quadrature():
    p = P(2, 2, 3)
    grids = (2 * 3 + 1, 2 * 9 + 1)  # beyond the aliasing thresholds
    for q, idx in [(15, (1, 1)), (7, (2,))]:
        chi = crt_character(factor_squarefree(q), idx)
        w = exact_W_squarefree(chi, None, p)
        ref = riemann_w_2d(chi, p, grids)
        assert w == pytest.approx(ref, rel=1e-9), q
    # weighted variant
    chi = crt_character(factor_squarefree(11), (3,))
    beta = [0.9, -0.4j, 0.2]
    w = exact_W_squarefree(chi, beta, p)
    # fold the weights into the value matrix by hand

    import numpy as np

    lam = np.arange(1, 12, dtype=np.int64)
    T = np.stack([chi.value_many(lam + v) for v in (1, 2, 3)], axis=-1)
    T = T * np.asarray(beta)[None, :]
    vs = np.arange(1, 4)
    total = 0.0
    for a1 in range(grids[0]):
        for a2 in range(grids[1]):
            phase = np.exp(2j * np.pi * (a1 / grids[0] * vs + a2 / grids[1] * vs**2))
            total += float((np.abs(T @ phase) ** 4).sum())
    assert w == pytest.approx(total / (grids[0] * grids[1]), rel=1e-9)


def test_lemma_rhs_values():
    assert lemma_rhs("L3", q=30, V=3, r=2, j_count=15) == pytest.approx(
        270 + (30 * 15) ** 0.5 * 9)
    assert lemma_rhs("L6", q=9, V=3, r=2, j_count=15) == pytest.approx(126.0)
    assert lemma_rhs("L4", q=30, V=3, r=4, s=1, j_count=15) == pytest.approx(
        30 * 81 + 30**0.5 * 15 * 81)
    assert lemma_rhs("L5", q=35, V=3, r=2, j_count=15) == pytest.approx(
        35 * 9 + 35**0.5 * 15)
    with pytest.raises(MissingCount):
        lemma_rhs("L3", q=30, V=3, r=2)
    with pytest.raises(MissingCount):
        lemma_rhs("L4", q=30, V=3, r=4, j_count=15)
