import itertools
import json
import math
import random
import signal

import pytest

from charsumlab import calibration
from charsumlab.campaigns import (CAMPAIGNS, EMPTY_NOTE, CampaignConfig,
                                  _first_primitive_character, _odd_squarefree,
                                  _thm1_diagnostics, chang_epsilon,
                                  compare_exponents, phi_factor, run_campaign,
                                  sample_phase_poly, theorem_exponent)
from charsumlab.characters import crt_character, enumerate_primitive_characters
from charsumlab.errors import (CharSumLabError, DegenerateDenominator,
                               HypothesisViolated, IndexOutOfRange, InvalidConfig,
                               RangeViolation)
from charsumlab.modular import factor_squarefree
from charsumlab.reports import VerificationReport
from charsumlab.rng import SplitMix64, point_hash
from charsumlab.sums import eval_phase


def run(target, **kw):
    return run_campaign(CampaignConfig(target=target, **kw))


def test_unknown_target():
    with pytest.raises(ValueError):
        run("thm9")


def test_odd_squarefree_matches_trial_division():
    def squarefree(q):
        return all(q % (p * p) for p in range(2, math.isqrt(q) + 1))

    expected = [q for q in range(3, 2001, 2) if squarefree(q)]
    for lo, hi in [(3, 2000), (-5, 2000), (4, 1000), (9, 9), (11, 11), (50, 49),
                   (0, 2), (1500, 1999)]:
        assert _odd_squarefree(lo, hi) == [q for q in expected if lo <= q <= hi]


def test_thm1_structure_q15():
    rep = run("thm1", seed=5, d=2, r_d=5, q_min=15, q_max=15, samples=1,
              chars_per_modulus=3)
    assert len(rep.records) == 3  # all three primitive characters mod 15
    assert math.isfinite(rep.aggregate["max_ratio"])
    assert rep.passed
    for rec in rep.records:
        assert rec["lhs"] <= rec["nterms"] + 1e-9
        assert rec["q"] == 15


def test_thm1_requires_r_d():
    with pytest.raises(HypothesisViolated):
        run("thm1", seed=0, d=2)
    with pytest.raises(HypothesisViolated):
        run("thm1", seed=0, d=2, r_d=5, r=4)


def test_thm1_diagnostics():
    rep = run("thm1", seed=3, d=1, r_d=3, q_min=80, q_max=120, samples=1,
              chars_per_modulus=1, diagnostics=True)
    rec = rep.records[0]
    assert rec["diag_V"] >= 1 and rec["diag_U"] >= 1
    assert rec["diag_I_sum"] == 2 * rec["N"] * rec["diag_units"]
    assert rec["diag_I_max"] >= 1
    assert rec["diag_W1_phi_weighted"] >= 0
    assert rec["diag_lemma3_rhs"] > 0


def test_thm1_diagnostics_w_is_the_scalar_sum_bit_for_bit():
    # W(alpha = 0) summed point by point, in the order the range kernel
    # must reproduce exactly
    def scalar_w(chi, F, M, N, U, V):
        W = 0.0
        for n0 in range(M - N + 1, M + N + 1):
            for u in range(1, U + 1):
                if math.gcd(u, chi.q) == 1:
                    inner = 0j
                    for v in range(1, V + 1):
                        point = n0 + u * v
                        inner += chi.value(point) * eval_phase(F, (point,))
                    W += abs(inner)
        return W

    rng = SplitMix64(5)
    for q, idx, M, N, r, d in [(1001, (1, 2, 3), 500, 40, 3, 1),
                               (1001, (5, 1, 7), 10, 60, 3, 1),  # M < N
                               (899, (3, 4), 300, 40, 5, 2),
                               (4199, (2, 5, 7), 2000, 50, 8, 3)]:
        chi = crt_character(factor_squarefree(q), idx)
        F = sample_phase_poly(rng, 1, d)
        diag = _thm1_diagnostics(chi, F, M, N, r, d)
        assert diag["diag_units"] > 1 and diag["diag_V"] > 1
        assert diag["diag_W_alpha0"] == scalar_w(chi, F, M, N, diag["diag_U"],
                                                 diag["diag_V"])


def test_campaign_determinism_across_threads_and_runs():
    for target, kw in [("thm1", dict(d=2, r_d=5, samples=3, q_max=200)),
                       ("thm3", dict(d=2, r_d=5, samples=2)),
                       ("weil", dict(q_max=13)),
                       ("lemma5", dict(V_list=(4, 8)))]:
        base = run(target, seed=11, threads=1, **kw).to_json_bytes()
        again = run(target, seed=11, threads=1, **kw).to_json_bytes()
        threaded = run(target, seed=11, threads=8, **kw).to_json_bytes()
        assert base == again
        assert base == threaded
        changed = run(target, seed=12, threads=1, **kw).to_json_bytes()
        assert changed != base


def test_weil_small_primes():
    rep = run("weil", seed=0, q_max=11)
    assert rep.passed
    assert rep.aggregate["total_violations"] == 0
    for rec in rep.records:
        assert rec["violations"] == 0
        assert len(rec["argmax_tuple"]) == 4
        # excluded tuples: fewer than r+1 distinct entries never appear
        assert len(set(rec["argmax_tuple"])) >= 3
        assert rec["ratio"] <= 1.0 + 1e-9


def test_weil_tuple_filter():
    from charsumlab.campaigns import _distinct_rich_tuples

    tuples = _distinct_rich_tuples(3, 2)
    as_set = {tuple(map(int, row)) for row in tuples}
    for v in itertools.product(range(1, 4), repeat=4):
        if len(set(v)) >= 3:
            assert v in as_set
        else:
            assert v not in as_set


def test_smoothing_campaign_runs():
    rep = run("smoothing", seed=2, samples=4, grid=128)
    assert rep.passed
    assert len(rep.records) == 4
    for rec in rep.records:
        assert math.isfinite(rec["ratio"])
        assert rec["rhs_inner_max"] >= rec["rhs_single_alpha"] - 1e-9
    # lemma1 is an alias
    alias = run("lemma1", seed=2, samples=4, grid=128)
    assert alias.to_json_bytes() != b""


def test_smoothing_constant_function_structure():
    # G identically 1: with alpha = 0 every inner sum is V, so the RHS
    # machinery must dominate the plain box sum
    N, U, V = 12, 2, 4
    assert U * V <= N
    lhs = N
    box0 = range(-N, N + 1)
    total = sum(V for _ in box0 for _ in range(1, U + 1))
    rhs = math.log(N) / (V * U) * total
    assert rhs >= lhs
    # G supported on a single point: the box sum is at most 1
    lhs_single = abs(sum(1 if pt == 3 else 0 for pt in range(1, N + 1)))
    assert lhs_single <= 1


def test_phi_campaign():
    rep = run("phi", seed=0, d=4, V_phi=60)
    assert rep.passed
    assert len(rep.records) == 4
    for rec in rep.records:
        assert rec["max_identity_residual"] <= 1e-12
        assert rec["max_phi_over_cap"] <= 1.0
        assert rec["monotone"]
        assert rec["endpoint_phi"] == pytest.approx(rec["endpoint_expected"], rel=1e-12)


def test_phi_factor_endpoint():
    V = 16
    for i in (1, 2, 3):
        assert phi_factor(i, V, V) == pytest.approx(math.pi * V**i, rel=1e-13)
        assert abs(phi_factor(i, 1, V)) <= math.pi**2 * V**i


def test_mean_value_campaigns_respect_threshold():
    rep = run("lemma3", seed=0, V_list=(4, 8))
    assert rep.passed
    assert rep.aggregate["max_ratio"] <= rep.aggregate["threshold"]
    rep4 = run("lemma4", seed=0, V_list=(4, 6))
    assert any("lemma4" in note for note in rep4.notes)
    rep6 = run("lemma6", seed=0, V_list=(4,), field_max=1400)
    assert rep6.records
    assert all(rec["field_size"] <= 1400 for rec in rep6.records)


def test_frozen_threshold_only_on_calibration_sweep():
    # r = 3 ratios run well above the frozen r = 2 thresholds; they are data
    for target, kw in [("lemma3", dict(r=3, V_list=(4, 8))),
                       ("lemma5", dict(r=3, V_list=(4, 8))),
                       ("lemma6", dict(d=3, V_list=(4,), field_max=1400)),
                       ("lemma3", dict(V_list=(4, 5)))]:
        rep = run(target, seed=0, **kw)
        assert "threshold" not in rep.aggregate, (target, kw)
        assert rep.passed, (target, kw)
        assert any(note.startswith("no frozen threshold applied") for note in rep.notes)
    # a subset of the sweep keeps the frozen threshold; a configured one always applies
    rep = run("lemma6", seed=0, V_list=(8, 4), field_max=1400)
    assert rep.aggregate["threshold"] == calibration.FROZEN_RATIO_THRESHOLDS["lemma6"]
    rep = run("lemma3", seed=0, r=3, V_list=(4,), constant=1.0)
    assert rep.aggregate["threshold"] == 1.0 and not rep.passed


def test_frozen_thresholds_match_a_fresh_calibration():
    measured = calibration.calibrate_thresholds()
    assert set(measured) == set(calibration.FROZEN_RATIO_THRESHOLDS)
    for target, frozen in calibration.FROZEN_RATIO_THRESHOLDS.items():
        assert measured[target] == pytest.approx(frozen / calibration.HEADROOM,
                                                 rel=1e-12), target


def test_thm4_says_why_samples_were_rejected():
    rep = run("thm4", seed=0, r_d=5, n_dims=3)
    assert rep.records == [] and not rep.passed
    assert EMPTY_NOTE in rep.notes
    assert any(note.startswith("5 of 5 samples failed the box hypotheses") and
               "0 had some q_i" in note and "5 a side cap" in note
               for note in rep.notes)
    accepted = run("thm4", seed=0, r_d=8, n_dims=3)
    assert len(accepted.records) == 5
    assert not any("box hypotheses" in note for note in accepted.notes)


def test_empty_campaign_says_why():
    for target, kw in [("thm1", dict(r_d=5, q_min=301, q_max=300)),
                       ("thm3", dict(r_d=5, field_max=20)),
                       ("lemma6", dict(field_max=700))]:
        rep = run(target, seed=1, **kw)
        assert rep.records == [], target
        assert rep.passed is False
        assert EMPTY_NOTE in rep.notes


def test_energy_campaigns():
    rep = run("lemma7", seed=0)
    assert rep.passed
    for rec in rep.records:
        assert rec["count"] >= rec["N"]
    rep8 = run("lemma8", seed=0)
    assert rep8.passed
    assert rep8.aggregate["max_ratio"] <= rep8.aggregate["threshold"]
    rep9 = run("lemma9", seed=0)
    assert rep9.passed
    assert any("lemma9" in note for note in rep9.notes)


def test_compare_exponents_values():
    table = compare_exponents(N=1000, q=10**6, d=2, r=5, delta=0.05)
    assert table["chang_epsilon"] == pytest.approx(0.0025 / 48.4, abs=1e-12)
    assert table["heath_brown_pierce_exponent"] == pytest.approx(
        (5 + 1 - 3) / (4 * 5 * (5 - 3)))
    assert table["squarefree_few_factors_exponent"] == pytest.approx(
        table["heath_brown_pierce_exponent"])
    e1 = theorem_exponent("thm1", 5, 2)
    assert table["squarefree_general_exponent"] == pytest.approx(e1)
    assert e1 > table["heath_brown_pierce_exponent"]  # weaker, as expected


def test_compare_exponents_degenerate():
    with pytest.raises(DegenerateDenominator):
        compare_exponents(N=100, q=1000, d=2, r=3, delta=0.05)  # r = D
    with pytest.raises(DegenerateDenominator):
        theorem_exponent("thm2", 3, 2)
    with pytest.raises(DegenerateDenominator):
        theorem_exponent("thm1", 1, 2)  # r <= D/2
    for N, q in [(0, 1000), (100, 1), (100, 0)]:  # log N or log q undefined or 0
        with pytest.raises(RangeViolation):
            compare_exponents(N=N, q=q, d=2, r=5, delta=0.05)
    assert chang_epsilon(0.05, 2) == pytest.approx(5.1652892561983474e-05, abs=1e-15)


def test_sample_phase_poly():
    rng = SplitMix64(9)
    F = sample_phase_poly(rng, 2, 3)
    assert F.degree == 3
    top = [c for e, c in F.terms if sum(e) == 3]
    assert max(abs(c) for c in top) >= 1e-3
    again = sample_phase_poly(SplitMix64(9), 2, 3)
    assert again.terms == F.terms


def test_point_hash_is_stable():
    a = point_hash(5, 1, 2, 3).next_float()
    b = point_hash(5, 1, 2, 3).next_float()
    c = point_hash(5, 1, 2, 4).next_float()
    assert a == b
    assert a != c


def test_report_emission_from_campaign(tmp_path):
    for target, kw in [("lemma7", {}), ("weil", dict(q_max=13))]:
        out = tmp_path / f"{target}.json"
        csv = tmp_path / f"{target}.csv"
        rep = run(target, seed=0, out=str(out), csv=str(csv), **kw)
        assert out.read_bytes() == rep.to_json_bytes(), target
        assert csv.read_text().count("\n") == len(rep.records) + 1
    assert "total_violations" in json.loads(out.read_bytes())["aggregate"]


def test_lemma3_character_is_first_primitive():
    for q in (11, 15, 105):
        first = enumerate_primitive_characters(factor_squarefree(q))[0]
        assert _first_primitive_character(q).indices == first.indices
    with pytest.raises(IndexOutOfRange):
        _first_primitive_character(30)


def test_config_ranges_are_checked_once():
    for kw in [dict(d=0), dict(r=0), dict(n_dims=0), dict(grid=0), dict(V_phi=0),
               dict(samples=-1), dict(N=0), dict(V_list=(4, 0))]:
        with pytest.raises(InvalidConfig):
            CampaignConfig(target="thm1", **kw)
    assert CampaignConfig(target="thm1", samples=0, r=None, N=None).samples == 0


# settings drawn by the fuzz test: every value here is in range ...
FUZZ_VALUES = dict(
    d=(1, 2, 3), r=(None, 1, 2, 3, 5), r_d=(None, 1, 3, 5, 8), s=(0, 1, 2, 3),
    n_dims=(1, 2, 3), q_min=(0, 3, 50), q_max=(2, 13, 31, 100),
    field_max=(20, 200, 1400), samples=(0, 1, 3), chars_per_modulus=(0, 1, 3),
    V_list=(None, (), (1,), (4,), (2, 5)), V_phi=(1, 7, 60), tuple_cap=(0, 1, 3, 8),
    grid=(1, 16), N=(None, 1, 50), delta=(0.0, 0.05), slack=(0.0, 0.2),
    constant=(None, 0.5), budget=(10**4, 10**7), diagnostics=(False, True))
# ... and these are degenerate, one of which replaces a drawn value half the time
FUZZ_DEGENERATE = dict(
    d=(0, -1), r=(0, -1), r_d=(0, -1), s=(-1,), n_dims=(0,), q_min=(-5,),
    q_max=(-1, 0, 1), field_max=(0,), samples=(-1,), chars_per_modulus=(-1,),
    V_list=((0,), (-3,)), V_phi=(0, -1), tuple_cap=(-1,), grid=(0, -1), N=(0, -2),
    budget=(0,))
# lemma7-9 run fixed sweeps that read none of these settings, and lemma8's
# alone would take most of the test's time
FUZZ_TARGETS = sorted(set(CAMPAIGNS) - {"lemma7", "lemma8", "lemma9"})
FUZZ_CONFIGS = 150
FUZZ_SECONDS_PER_CONFIG = 5


class _TimeCap(Exception):
    pass


def _fuzz_config(rng: random.Random) -> dict:
    kw = {name: rng.choice(values) for name, values in FUZZ_VALUES.items()}
    if rng.random() < 0.5:
        name = rng.choice(sorted(FUZZ_DEGENERATE))
        kw[name] = rng.choice(FUZZ_DEGENERATE[name])
    return dict(kw, target=rng.choice(FUZZ_TARGETS), seed=rng.randrange(100))


def test_fuzz_configs_return_a_report_or_a_library_error():
    """Small random configs, with degenerate values mixed in, either give a
    report or raise CharSumLabError; a config past the time cap is dropped."""
    def on_alarm(signum, frame):
        raise _TimeCap

    rng = random.Random(20240601)
    outcomes = {"report": 0, "error": 0, "capped": 0}
    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        for _ in range(FUZZ_CONFIGS):
            kw = _fuzz_config(rng)
            signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS_PER_CONFIG)
            try:
                assert isinstance(run_campaign(CampaignConfig(**kw)), VerificationReport)
                outcomes["report"] += 1
            except CharSumLabError:
                outcomes["error"] += 1
            except _TimeCap:
                outcomes["capped"] += 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcomes["report"] > FUZZ_CONFIGS // 4, outcomes
    assert outcomes["error"] > FUZZ_CONFIGS // 4, outcomes
