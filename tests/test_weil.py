"""The weil campaign's histogram + FFT kernel against a per-character oracle.

The oracle is the campaign's earlier evaluation: for one prime p and one
character index t it sums exp(2 pi i * angle) over every rich tuple and
every lambda, with the angles of chi_t read in floating point, and takes
no tuple classes.  Its bounds come from the scalar difference products
and math.gcd, not from the campaign's vectorized ones.  The kernel's sums
come from an FFT of integer histograms, so they agree to a tolerance, not
bitwise.
"""

import math

import numpy as np
import pytest

from charsumlab.campaigns import (CampaignConfig, _distinct_rich_tuples,
                                  _tuple_classes, run_campaign)
from charsumlab.characters import crt_character
from charsumlab.modular import factor_squarefree, primes_upto
from oracles import TupleSpec, difference_product

REL_TOL = 1e-12


def oracle_bounds(p: int, tuples: np.ndarray, r: int) -> np.ndarray:
    """(2r-1) * gcd(p, A_i)^(1/2) * p^(1/2) per tuple, with the least gcd
    over the i whose A_i is nonzero."""
    bounds = []
    for row in tuples.tolist():
        t = TupleSpec(r=r, v=tuple(row))
        products = [difference_product(t, i) for i in range(1, 2 * r + 1)]
        gcd = min(math.gcd(p, a) for a in products if a != 0)
        bounds.append((2 * r - 1) * math.sqrt(gcd) * math.sqrt(p))
    return np.asarray(bounds)


def oracle_record(p: int, t: int, tuples: np.ndarray, r: int,
                  bounds: np.ndarray) -> dict:
    """The weil record of (p, t), with ties within REL_TOL going to the
    first tuple in enumeration order."""
    comp = crt_character(factor_squarefree(p), (t,)).components[0]
    ang_table, mask_table = comp.angle_and_mask(np.arange(0, 2 * p, dtype=np.int64))
    lam = np.arange(1, p + 1, dtype=np.int64)
    ang = np.zeros((len(tuples), p), dtype=np.float64)
    mask = np.ones((len(tuples), p), dtype=bool)
    for pos in range(2 * r):
        idx = (lam[None, :] + tuples[:, pos][:, None]) % p
        mask &= mask_table[idx]
        if pos < r:
            ang += ang_table[idx]
        else:
            ang -= ang_table[idx]
    sums = np.abs((np.exp(2j * np.pi * ang) * mask).sum(axis=1))
    ratios = sums / bounds
    worst = int(np.flatnonzero(ratios >= ratios.max() * (1 - REL_TOL))[0])
    return {"p": p, "t": t, "order": comp.order, "tuples_checked": len(tuples),
            "max_abs_sum": float(sums[worst]), "ratio": float(ratios[worst]),
            "argmax_tuple": [int(x) for x in tuples[worst]],
            "violations": int((sums > bounds + 1e-6).sum())}


@pytest.mark.parametrize("r, q_max, tuple_cap", [(2, 31, 8), (1, 31, 8), (3, 13, 5)])
def test_weil_matches_per_character_oracle(r, q_max, tuple_cap):
    rep = run_campaign(CampaignConfig(target="weil", r=r, q_max=q_max,
                                      tuple_cap=tuple_cap))
    records = {(rec["p"], rec["t"]): rec for rec in rep.records}
    expected = []
    for p in primes_upto(q_max):
        tuples = _distinct_rich_tuples(min(p - 1, tuple_cap), r)
        if len(tuples):
            bounds = oracle_bounds(p, tuples, r)
            expected += [oracle_record(p, t, tuples, r, bounds) for t in range(1, p - 1)]
    # one record per nontrivial character, in (p, t) order
    assert [(rec["p"], rec["t"]) for rec in rep.records] == [(e["p"], e["t"])
                                                            for e in expected]
    for want in expected:
        got = records[(want["p"], want["t"])]
        assert got["max_abs_sum"] == pytest.approx(want["max_abs_sum"], rel=REL_TOL)
        assert got["ratio"] == pytest.approx(want["ratio"], rel=REL_TOL)
        for key in ("order", "tuples_checked", "argmax_tuple", "violations"):
            assert got[key] == want[key], (want["p"], want["t"], key)
    assert rep.aggregate["total_violations"] == 0


@pytest.mark.parametrize("cap, r", [(3, 1), (8, 2), (5, 3)])
def test_tuple_classes_partition_the_rich_tuples(cap, r):
    tuples = _distinct_rich_tuples(cap, r)
    first, sizes = _tuple_classes(tuples, r)
    assert sizes.sum() == len(tuples)
    assert list(first) == sorted(first)

    def canonical(row):
        halves = sorted((tuple(sorted(row[:r])), tuple(sorted(row[r:]))))
        return tuple(halves)

    classes = {}
    for i, row in enumerate(tuples.tolist()):
        classes.setdefault(canonical(row), []).append(i)
    # each class is represented once, by its first member, with its size
    assert sorted((members[0], len(members)) for members in classes.values()) == \
        list(zip(first.tolist(), sizes.tolist()))
