import cmath
import math
import sys
import threading

import numpy as np
import pytest

from charsumlab import (build_prime_character, characters, crt_character,
                        enumerate_primitive_characters, factor_squarefree,
                        find_primitive_root, principal_character,
                        sample_primitive_characters)
from charsumlab.errors import IndexOutOfRange, NotPrime, TooLarge
from charsumlab.rng import SplitMix64
from oracles import prime_character_value, root_and_dlog_reference


def multiplicative_order(g, p):
    x, k = g % p, 1
    while x != 1:
        x = x * g % p
        k += 1
    return k


def test_primitive_root_examples():
    assert find_primitive_root(5) == 2
    assert find_primitive_root(7) == 3
    assert find_primitive_root(2) == 1


def test_primitive_root_is_smallest_generator():
    for p in [3, 5, 7, 11, 13, 17, 19, 101, 199]:
        g = find_primitive_root(p)
        assert multiplicative_order(g, p) == p - 1
        for smaller in range(2, g):
            assert multiplicative_order(smaller, p) < p - 1


def test_primitive_root_rejects_composites():
    with pytest.raises(NotPrime):
        find_primitive_root(15)


def test_prime_character_legendre():
    chi = build_prime_character(5, 2)
    squares = {x * x % 5 for x in range(1, 5)}
    for n in range(1, 5):
        expected = 1.0 if n in squares else -1.0
        assert abs(prime_character_value(chi, n) - expected) < 1e-12
    assert prime_character_value(chi, 0) == 0


def test_prime_character_principal_and_order_six():
    chi0 = build_prime_character(5, 0)
    assert all(abs(prime_character_value(chi0, n) - 1) < 1e-12 for n in range(1, 5))
    chi = build_prime_character(7, 1)
    assert abs(prime_character_value(chi, 3) - cmath.exp(2j * math.pi / 6)) < 1e-12


def test_prime_character_index_range():
    with pytest.raises(IndexOutOfRange):
        build_prime_character(5, 4)
    with pytest.raises(IndexOutOfRange):
        build_prime_character(2, 1)


def test_char_eval_examples():
    chi5 = crt_character(factor_squarefree(5), (2,))
    assert abs(chi5.value(2) + 1) < 1e-12
    chi15 = crt_character(factor_squarefree(15), (1, 1))
    assert chi15.value(1) == 1
    assert chi15.value(5) == 0


def test_crt_character_primitivity():
    m = factor_squarefree(15)
    assert crt_character(m, (1, 1)).is_primitive
    assert not crt_character(m, (0, 1)).is_primitive
    chi = crt_character(m, (1, 2))
    for n in range(15):
        prod = (prime_character_value(chi.components[0], n % 3)
                * prime_character_value(chi.components[1], n % 5))
        assert abs(chi.value(n) - prod) < 1e-12


def test_enumerate_primitive_counts():
    assert len(enumerate_primitive_characters(factor_squarefree(5))) == 3
    assert len(enumerate_primitive_characters(factor_squarefree(15))) == 3
    assert len(enumerate_primitive_characters(factor_squarefree(6))) == 0
    with pytest.raises(TooLarge):
        enumerate_primitive_characters(factor_squarefree(2 * 3 * 5 * 7 * 11 * 13 * 17))


@pytest.mark.parametrize("q", [5, 7, 15, 21, 35, 105])
def test_multiplicativity_exhaustive(q):
    m = factor_squarefree(q)
    for chi in enumerate_primitive_characters(m):
        vals = chi.value_many(np.arange(q))
        for a in range(q):
            for b in range(q):
                assert abs(vals[a * b % q] - vals[a] * vals[b]) < 1e-12


@pytest.mark.parametrize("q", [3, 5, 15, 35, 105, 499])
def test_orthogonality_and_periodicity(q):
    m = factor_squarefree(q)
    for chi in enumerate_primitive_characters(m)[:20]:
        vals = chi.value_many(np.arange(q))
        assert abs(vals.sum()) < 1e-9
        shifted = chi.value_many(np.arange(q) + q)
        assert np.max(np.abs(shifted - vals)) < 1e-12


def test_character_order():
    for q, idx in [(5, (1,)), (5, (2,)), (15, (1, 2)), (35, (2, 3))]:
        chi = crt_character(factor_squarefree(q), idx)
        k = chi.order
        vals = chi.value_many(np.arange(q))
        powered = vals**k
        units = np.abs(vals) > 0.5
        assert np.max(np.abs(powered[units] - 1)) < 1e-9
        # no smaller positive power is principal
        for smaller in range(1, k):
            if np.max(np.abs(vals[units] ** smaller - 1)) < 1e-9:
                pytest.fail(f"order of {q}:{idx} smaller than {k}")


def test_principal_character():
    m = factor_squarefree(15)
    chi0 = principal_character(m)
    assert chi0.is_principal and not chi0.is_primitive
    vals = chi0.value_many(np.arange(15))
    for n in range(15):
        expected = 1.0 if math.gcd(n, 15) == 1 else 0.0
        assert abs(vals[n] - expected) < 1e-12


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101, 9973, 65537, 1048583, 2097143])
def test_dlog_table_matches_stepped_oracle(p):
    g, dlog = characters._build_root_and_dlog(p)
    ref_g, ref_dlog = root_and_dlog_reference(p)
    assert g == ref_g
    assert dlog.dtype == ref_dlog.dtype and np.array_equal(dlog, ref_dlog)
    assert not dlog.flags.writeable


def test_dlog_cache_evicts_oldest_past_byte_budget(monkeypatch):
    cache = characters._TableCache(budget=8 * (101 + 107))  # two of the tables fit
    monkeypatch.setattr(characters, "_DLOG_TABLES", cache)
    characters._root_and_dlog(101)
    characters._root_and_dlog(103)
    assert list(cache._tables) == [101, 103] and cache.nbytes == 8 * (101 + 103)
    assert build_prime_character(101, 1).dlog is characters._root_and_dlog(101)[1]
    assert list(cache._tables) == [103, 101]  # a hit moves 101 to the back
    characters._root_and_dlog(107)  # past the budget: the oldest, 103, goes
    assert list(cache._tables) == [101, 107]
    assert cache.nbytes == 8 * (101 + 107) <= cache.budget
    characters._root_and_dlog(1009)  # alone above the budget: kept, all else goes
    assert list(cache._tables) == [1009] and cache.nbytes == 8 * 1009


def test_dlog_cache_under_concurrent_callers(monkeypatch):
    primes = [101, 103, 107, 109, 113, 127, 131, 137]
    cache = characters._TableCache(budget=8 * 3 * 137)
    monkeypatch.setattr(characters, "_DLOG_TABLES", cache)
    expected = {p: root_and_dlog_reference(p)[1] for p in primes}
    mismatches = []

    def worker(seed):
        order = np.random.default_rng(seed).permutation(primes * 25)
        for p in order.tolist():
            if not np.array_equal(characters._root_and_dlog(p)[1], expected[p]):
                mismatches.append(p)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
    held = list(cache._tables.values())
    assert cache.nbytes == sum(dlog.nbytes for _, dlog in held) <= cache.budget


@pytest.mark.parametrize("q", [3, 101, 77, 105, 385])
def test_lazy_sampling_picks_the_enumerated_characters(q):
    m = factor_squarefree(q)
    listed = enumerate_primitive_characters(m)
    count = len(listed)
    for k in sorted({1, 2, count // 2, count - 1, count, count + 5} - {0}):
        lazy_rng, listed_rng = SplitMix64(k), SplitMix64(k)
        lazy = [chi.indices for chi in sample_primitive_characters(m, lazy_rng, k)]
        eager = [chi.indices for chi in listed_rng.sample_without_replacement(listed, k)]
        assert lazy == eager
        assert lazy_rng.next_u64() == listed_rng.next_u64()  # same draws consumed
    assert sample_primitive_characters(factor_squarefree(15 * 2), SplitMix64(1), 3) == []


def test_sampling_a_huge_range_never_lists_it():
    picked = SplitMix64(3).sample_without_replacement(range(10**15), 4)
    rng, drawn = SplitMix64(3), set()
    while len(drawn) < 4:
        drawn.add(rng.next_below(10**15))
    assert picked == sorted(drawn)
