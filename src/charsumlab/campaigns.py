"""Deterministic verification campaigns.

Each campaign samples instances from a seeded splitmix stream, evaluates
every instance with pure functions, and assembles a VerificationReport
whose JSON bytes depend only on (config, seed), not on thread count.
Bounds from the underlying inequalities are always computed without
their q^o(1) factors; the measured LHS/RHS ratio is recorded data, and a
pass threshold is applied only when one is configured (or frozen by a
calibration run).
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import calibration
from .cache import get_j_count
from .characters import (DirichletCharacter, _root_and_dlog, crt_character,
                         sample_primitive_characters)
from .energy import cong_energy, ff_box_energy, linear_forms_energy
from .errors import (BudgetExceeded, DegenerateDenominator, HypothesisViolated,
                     IndexOutOfRange, InvalidConfig, RangeViolation)
from .ffield import FieldCharacter, build_field
from .meanvalues import (VinogradovParams, exact_W_field, exact_W_multichar,
                         exact_W_squarefree, lemma_rhs)
from .modular import factor_squarefree, mod_inverse, primes_upto
from .reports import VerificationReport, emit_report
from .rng import SplitMix64, point_hash
from .sums import (LinearSystem, RealPolynomial, _phase_array, box_mixed_sum,
                   linear_forms_mixed_sum, mixed_sum, multi_char_mixed_sum)

TOOL_VERSION = "0.1.0"

RATIO_CONVENTION_NOTE = ("complete sums: chi(num/den) = chi(num)*conj(chi(den)); "
                         "terms where any shifted factor shares a divisor with the "
                         "modulus contribute 0 (per-prime product convention)")
OSMALL_NOTE = ("all RHS values omit q^o(1) factors; ratios are measured data")
LEMMA4_NOTE = ("lemma4: the stated bound q^(1/2)*J(r-s-1,d,V)*V^(2s+2) is checked; "
               "the proof's own display carries a full power of q instead of "
               "q^(1/2), and this harness does not resolve the discrepancy")
PHI_NOTE = ("phi_i is defined by the reciprocal-integral identity "
            "phi_i(v) * integral_{-delta_i}^{delta_i} e^(2 pi i x v^i) dx = 1, "
            "i.e. phi_i(v) = pi v^i / sin(2 pi delta_i v^i); the closed form "
            "printed with an extra 2i factor elsewhere is not used")
LEMMA9_NOTE = ("lemma9: the printed bound (NH)^n is read as (UH)^n, matching the "
               "box sides")
EMPTY_NOTE = ("no instance was sampled under this config, so nothing was checked "
              "and the campaign does not pass")


# ----------------------------------------------------------------------
# configuration

@dataclass
class CampaignConfig:
    """Parameters of one campaign; defaults give desk-scale runs."""

    target: str
    seed: int = 0
    d: int = 2
    r: int | None = None
    r_d: int | None = None
    s: int = 2
    n_dims: int = 2
    q_min: int = 3
    q_max: int = 300
    field_max: int = 4096
    samples: int = 5
    chars_per_modulus: int = 2
    V_list: tuple[int, ...] | None = None
    V_phi: int = 100
    tuple_cap: int = 8          # coordinate cap for weil tuples
    grid: int = 1024            # alpha grid size
    N: int | None = None        # comparator only
    delta: float = 0.05         # comparator only
    slack: float = 0.0
    constant: float | None = None
    budget: int = 10**9
    override_hypotheses: bool = False
    use_cache: bool = False
    diagnostics: bool = False
    threads: int = 1
    basis: tuple | None = None
    out: str | None = None
    csv: str | None = None

    # least value of each setting (when set) that every target can run with
    MINIMA = {"d": 1, "r": 1, "n_dims": 1, "samples": 0, "V_phi": 1, "grid": 1, "N": 1}

    def __post_init__(self):
        for name, least in self.MINIMA.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise InvalidConfig(f"{name} = {value} must be >= {least}")
        if self.V_list is not None and any(V < 1 for V in self.V_list):
            raise InvalidConfig(f"V_list = {self.V_list} must hold values >= 1")

    def degree_constant(self) -> float:
        return self.d * (self.d + 1) / 2.0


# ----------------------------------------------------------------------
# shared helpers

def _odd_squarefree(lo: int, hi: int) -> list[int]:
    """Odd squarefree q in [max(lo, 3), hi], in increasing order."""
    start = max(lo, 3)
    if hi < start:
        return []
    keep = np.zeros(hi + 1, dtype=bool)
    keep[3::2] = True
    for p in primes_upto(math.isqrt(hi))[1:]:  # odd primes; even q are never kept
        keep[p * p::p * p] = False
    return [int(q) for q in np.flatnonzero(keep[start:]) + start]


def _monomials(nvars: int, d: int) -> list[tuple[int, ...]]:
    out = [e for e in itertools.product(range(d + 1), repeat=nvars)
           if 1 <= sum(e) <= d]
    return sorted(out)


def sample_phase_poly(rng: SplitMix64, nvars: int, d: int) -> RealPolynomial:
    """Uniform [0,1) coefficient per monomial; the first top-degree
    coefficient is resampled until >= 1e-3 so the degree is exactly d."""
    monos = _monomials(nvars, d)
    coeffs = {e: rng.next_float() for e in monos}
    lead = next(e for e in monos if sum(e) == d)
    while coeffs[lead] < 1e-3:
        coeffs[lead] = rng.next_float()
    return RealPolynomial.from_terms(nvars, coeffs)


def _poly_payload(F: RealPolynomial) -> list:
    return [[list(e), c] for e, c in F.terms]


def _ratio_aggregate(records: list[dict]) -> dict:
    agg = {"instances": len(records)}
    ratios = [(rec["ratio"], i) for i, rec in enumerate(records)
              if rec.get("ratio") is not None and math.isfinite(rec["ratio"])]
    if ratios:
        best = max(ratios)
        agg["max_ratio"] = best[0]
        agg["argmax_index"] = best[1]
    return agg


def _off_sweep(cfg: CampaignConfig) -> list[str]:
    """The settings that take cfg's instances outside the sweep the frozen
    thresholds were calibrated on; q_max and field_max only trim fixed
    moduli and field lists, so they never do."""
    if cfg.target not in ("lemma3", "lemma5", "lemma6"):
        return []
    r = cfg.r if cfg.r is not None else 2
    off = []
    if r != calibration.SWEEP_R:
        off.append(f"r = {r}")
    if cfg.d != calibration.SWEEP_D:
        off.append(f"d = {cfg.d}")
    if not set(_v_sweep(cfg)) <= set(DEFAULT_V_SWEEP):
        off.append(f"V_list = {tuple(cfg.V_list)}")
    return off


def _threshold_for(cfg: CampaignConfig) -> tuple[float | None, list[str]]:
    """The pass threshold and any note on why a frozen one was not applied."""
    if cfg.constant is not None:
        return cfg.constant * (1.0 + cfg.slack), []
    frozen = calibration.FROZEN_RATIO_THRESHOLDS.get(cfg.target)
    if frozen is None:
        return None, []
    off = _off_sweep(cfg)
    if off:
        return None, [
            f"no frozen threshold applied: {', '.join(off)} leaves the calibration "
            f"sweep (r = {calibration.SWEEP_R}, d = {calibration.SWEEP_D}, "
            f"V in {DEFAULT_V_SWEEP}), so only the sanity checks decide the pass"]
    return frozen * (1.0 + cfg.slack), []


_EXECUTION_ONLY_FIELDS = ("threads", "out", "csv")


def _finish(cfg: CampaignConfig, records, notes, extra_pass: bool = True,
            extra_aggregate: dict | None = None) -> VerificationReport:
    aggregate = _ratio_aggregate(records)
    aggregate.update(extra_aggregate or {})
    # an empty campaign proves nothing and must not read as a pass
    passed = (extra_pass and len(records) > 0
              and all(rec.get("sanity_ok", True) for rec in records))
    if not records:
        notes = [*notes, EMPTY_NOTE]
    threshold, threshold_notes = _threshold_for(cfg)
    notes = [*notes, *threshold_notes]
    if threshold is not None and "max_ratio" in aggregate:
        aggregate["threshold"] = threshold
        passed = passed and aggregate["max_ratio"] <= threshold
    config_echo = asdict(cfg)
    for key in _EXECUTION_ONLY_FIELDS:  # these must not affect report bytes
        config_echo.pop(key, None)
    report = VerificationReport(version=TOOL_VERSION, config=config_echo,
                                records=records, aggregate=aggregate,
                                passed=passed, notes=notes)
    if cfg.out:
        emit_report(report, cfg.out, cfg.csv)
    return report


def _run_instances(instances, evaluate, threads: int) -> list:
    if threads <= 1:
        return [evaluate(inst) for inst in instances]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(evaluate, instances))


def _run(cfg: CampaignConfig, instances, evaluate, notes) -> VerificationReport:
    """Evaluate every instance, in order, and finish the report."""
    return _finish(cfg, _run_instances(instances, evaluate, cfg.threads), notes)


# ----------------------------------------------------------------------
# exponents and the comparator

def theorem_exponent(which: str, r: int, d: int, n: int = 1) -> float:
    """The q-exponent in each theorem's bound (without the o(1))."""
    D = d * (d + 1) / 2.0
    if which == "thm1":
        if r <= D / 2:
            raise DegenerateDenominator(f"need r > D/2 = {D / 2}")
        return 1 / (4 * r) + D / (8 * r * (r - D / 2)) + 1 / (4 * r * (r - D / 2))
    if r <= D:
        raise DegenerateDenominator(f"need r > D = {D}")
    if which == "thm2":
        return (r + 1 - D) / (4 * r * (r - D))
    if which in ("thm3", "thm5"):
        return n * (r - D + 1) / (4 * r * (r - D))
    if which == "thm4":
        return (r - D + n) / (4 * r * (r - D))
    raise ValueError(f"unknown theorem {which!r}")


def range_cap_exponent(which: str, r: int, d: int) -> float:
    """Exponent theta in the admissible range N <= q^theta."""
    D = d * (d + 1) / 2.0
    if which == "thm1":
        if r <= D / 2:
            raise DegenerateDenominator(f"need r > D/2 = {D / 2}")
        return 0.5 + 1 / (4 * (r - D / 2))
    if r <= D:
        raise DegenerateDenominator(f"need r > D = {D}")
    return 0.5 + 1 / (4 * (r - D))


def chang_epsilon(delta: float, d: int) -> float:
    """The power saving of the prior finite-field bound, as printed."""
    return delta**2 / (4 * (1 + 2 * delta) * (2 + (d + 1) ** 2))


def compare_exponents(N: int, q: int, d: int, r: int, delta: float) -> dict:
    """Saving exponents of the literature bounds and of both squarefree
    bounds at the given parameters; savings are relative to the trivial
    bound N with N = q^theta."""
    D = d * (d + 1) / 2.0
    if r <= D:
        raise DegenerateDenominator(f"need r > D = {D}")
    if N < 1 or q < 2:
        raise RangeViolation(f"need N >= 1 and q >= 2, got N = {N}, q = {q}")
    theta = math.log(N) / math.log(q)
    hbp = (r + 1 - D) / (4 * r * (r - D))
    e1 = theorem_exponent("thm1", r, d)
    e2 = theorem_exponent("thm2", r, d)
    return {
        "chang_epsilon": chang_epsilon(delta, d),
        "chang_range_ok": theta >= 0.25 + delta,
        "heath_brown_pierce_exponent": hbp,
        "heath_brown_pierce_saving": theta / r - hbp,
        "squarefree_general_exponent": e1,
        "squarefree_general_saving": theta / r - e1,
        "squarefree_few_factors_exponent": e2,
        "squarefree_few_factors_saving": theta / r - e2,
        "theta": theta,
    }


def phi_factor(i: int, v: int, V: int) -> float:
    """phi_i(v) from the reciprocal-integral identity; O(V^i) on [1, V]."""
    delta = 1.0 / (4.0 * V**i)
    w = float(v) ** i
    return math.pi * w / math.sin(2.0 * math.pi * delta * w)


# ----------------------------------------------------------------------
# theorem campaigns

def _require_r(cfg: CampaignConfig, minimum_extra: int = 0) -> int:
    if cfg.r_d is None and cfg.r is None:
        raise HypothesisViolated("a value of r_d (or r) is required; none is built in")
    base = cfg.r_d if cfg.r_d is not None else 0
    r = cfg.r if cfg.r is not None else base + minimum_extra
    if cfg.r_d is not None and r < cfg.r_d + minimum_extra:
        raise HypothesisViolated(
            f"r = {r} violates r >= r_d + {minimum_extra} = {cfg.r_d + minimum_extra}")
    return r


def _theorem_notes(extra=()):
    return [RATIO_CONVENTION_NOTE, OSMALL_NOTE, *extra]


def _bound_record(lhs, nterms, q, exponent, r, d, /, **fields) -> dict:
    """A theorem record: |sum| over nterms terms against nterms^(1-1/r) * q^exponent."""
    rhs = nterms ** (1 - 1 / r) * q ** exponent
    return {**fields, "r": r, "d": d, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
            "nterms": nterms, "sanity_ok": lhs <= nterms + 1e-9}


def _squarefree_instances(cfg: CampaignConfig, which: str, r: int,
                          max_factors: int | None = None) -> list[tuple]:
    """(q, chi, F, M, N) for thm1/thm2: sampled odd squarefree moduli with at
    most max_factors prime factors, each with chars_per_modulus primitive
    characters and N = q^theta at the theorem's range cap."""
    rng = SplitMix64(cfg.seed)
    moduli = _odd_squarefree(cfg.q_min, cfg.q_max)
    if max_factors is not None:
        moduli = [q for q in moduli if factor_squarefree(q).num_prime_factors <= max_factors]
    moduli = rng.sample_without_replacement(moduli, cfg.samples)
    theta = range_cap_exponent(which, r, cfg.d)
    out = []
    for q in moduli:
        m = factor_squarefree(q)
        for chi in sample_primitive_characters(m, rng, cfg.chars_per_modulus):
            F = sample_phase_poly(rng, 1, cfg.d)
            M = rng.next_below(q)
            out.append((q, chi, F, M, max(int(q**theta), 1)))
    return out


def _mixed_sum_record(inst: tuple, exponent: float, r: int, d: int, **fields) -> dict:
    q, chi, F, M, N = inst
    lhs = abs(mixed_sum(chi, F, M, N))
    return _bound_record(lhs, N, q, exponent, r, d, q=q, char_indices=list(chi.indices),
                         poly=_poly_payload(F), M=M, N=N, **fields)


def _thm1_campaign(cfg: CampaignConfig) -> VerificationReport:
    r, d = _require_r(cfg), cfg.d
    instances = _squarefree_instances(cfg, "thm1", r)
    exponent = theorem_exponent("thm1", r, d)

    def evaluate(inst):
        rec = _mixed_sum_record(inst, exponent, r, d)
        if cfg.diagnostics:
            _, chi, F, M, N = inst
            rec.update(_thm1_diagnostics(chi, F, M, N, r, d))
        return rec

    return _run(cfg, instances, evaluate, _theorem_notes())


def _thm2_campaign(cfg: CampaignConfig) -> VerificationReport:
    r, d = _require_r(cfg, minimum_extra=cfg.s + 1), cfg.d
    instances = _squarefree_instances(cfg, "thm2", r, max_factors=cfg.s)
    exponent = theorem_exponent("thm2", r, d)
    return _run(cfg, instances,
                lambda inst: _mixed_sum_record(inst, exponent, r, d, s=cfg.s),
                _theorem_notes())


def _thm3_campaign(cfg: CampaignConfig) -> VerificationReport:
    r, d = _require_r(cfg), cfg.d
    theorem_exponent("thm3", r, d)  # early r > D validation
    rng = SplitMix64(cfg.seed)
    candidates = []  # (q, n) in lexicographic order
    for q in primes_upto(cfg.field_max):
        n = 2
        while q >= 5 and q**n <= cfg.field_max:
            candidates.append((q, n))
            n += 1
    instances = []
    for q, n in rng.sample_without_replacement(candidates, cfg.samples):
        spec = build_field(q, n, basis=cfg.basis if n == len(cfg.basis or []) else None)
        t = 1 + rng.next_below(spec.size - 2) if spec.size > 2 else 0
        F = sample_phase_poly(rng, n, d)
        instances.append((spec, t, F, max(math.isqrt(q), 1)))

    def evaluate(inst):
        spec, t, F, H = inst
        lhs = abs(box_mixed_sum(FieldCharacter(spec, t), F, H))
        return _bound_record(lhs, H ** spec.n, spec.q,
                             theorem_exponent("thm3", r, d, n=spec.n), r, d,
                             q=spec.q, n=spec.n, modpoly=list(spec.modpoly),
                             basis=[list(row) for row in spec.basis], t=t,
                             poly=_poly_payload(F), H=H)

    return _run(cfg, instances, evaluate, _theorem_notes(
        ["the working basis is recorded per record; bounds may depend on it"]))


def _thm4_campaign(cfg: CampaignConfig) -> VerificationReport:
    r, d, n = _require_r(cfg), cfg.d, cfg.n_dims
    D = cfg.degree_constant()
    if r <= D + 1:
        raise HypothesisViolated(
            f"the box hypotheses need r >= D + 2 = {int(D) + 2}")
    rng = SplitMix64(cfg.seed)
    primes = [p for p in primes_upto(cfg.q_max) if p >= 11]
    if len(primes) < 2:
        raise HypothesisViolated(
            f"thm4 needs two primes >= 11 up to q_max = {cfg.q_max}")
    instances = []
    small_q = low_cap = 0  # samples failing each box hypothesis
    for _ in range(cfg.samples):
        i = rng.next_below(len(primes) - 1)
        qs = ([primes[i], primes[i + 1]] + [primes[i]] * n)[:n]
        lower = math.prod(qs) ** (1 / (2 * (r - D)))
        uppers = [qi ** (0.5 + 1 / (4 * (r - D))) for qi in qs]
        bad_q = any(qi <= lower for qi in qs)
        bad_cap = any(u < lower for u in uppers)
        small_q += bad_q
        low_cap += bad_cap
        if bad_q or bad_cap:
            continue
        Hs = [max(int(u), int(math.ceil(lower)), 1) for u in uppers]
        Ms = [rng.next_below(qi) for qi in qs]
        chis = [crt_character(factor_squarefree(qi), (1 + rng.next_below(qi - 2),))
                for qi in qs]
        instances.append((qs, chis, sample_phase_poly(rng, n, d), Ms, Hs))
    exponent = theorem_exponent("thm4", r, d, n=n)

    def evaluate(inst):
        qs, chis, F, Ms, Hs = inst
        lhs = abs(multi_char_mixed_sum(chis, F, Ms, Hs))
        return _bound_record(lhs, math.prod(Hs), math.prod(qs), exponent, r, d,
                             q_list=qs, char_indices=[c.indices[0] for c in chis],
                             poly=_poly_payload(F), M_list=Ms, H_list=Hs)

    rejected = cfg.samples - len(instances)
    notes = [] if not rejected else [
        f"{rejected} of {cfg.samples} samples failed the box hypotheses and were "
        f"skipped: {small_q} had some q_i <= (prod q)^(1/(2(r-D))), {low_cap} a side "
        "cap q_i^(1/2 + 1/(4(r-D))) below that bound"]
    return _run(cfg, instances, evaluate, _theorem_notes(notes))


def _thm5_campaign(cfg: CampaignConfig) -> VerificationReport:
    r, d, n = _require_r(cfg), cfg.d, cfg.n_dims
    rng = SplitMix64(cfg.seed)
    primes = [p for p in primes_upto(cfg.q_max) if p >= 11]
    instances = []
    for q in rng.sample_without_replacement(primes, cfg.samples):
        while True:
            L = LinearSystem(tuple(tuple(rng.next_below(q) for _ in range(n))
                                   for _ in range(n)))
            if math.gcd(L.determinant() % q, q) == 1:
                break
        chi = crt_character(factor_squarefree(q), (1 + rng.next_below(q - 2),))
        F = sample_phase_poly(rng, n, d)
        instances.append((q, L, chi, F, max(math.isqrt(q), 1)))

    def evaluate(inst):
        q, L, chi, F, H = inst
        lhs = abs(linear_forms_mixed_sum(chi, L, F, H))
        return _bound_record(lhs, H ** n, q, theorem_exponent("thm5", r, d, n=n), r, d,
                             q=q, matrix=[list(row) for row in L.matrix],
                             char_indices=list(chi.indices), poly=_poly_payload(F), H=H)

    return _run(cfg, instances, evaluate, _theorem_notes())


def _thm1_diagnostics(chi: DirichletCharacter, F: RealPolynomial,
                      M: int, N: int, r: int, d: int) -> dict:
    """Proof-internal quantities for the squarefree campaign."""
    q = chi.q
    D2 = d * (d + 1) / 4.0
    V = max(int(q ** (1 / (2 * (r - D2)))), 1)
    U = max(int(N / q ** (1 / (2 * (r - D2)))), 1)
    units = [u for u in range(1, U + 1) if math.gcd(u, q) == 1]
    out = {"diag_U": U, "diag_V": V, "diag_units": len(units)}
    if units:
        ns = np.arange(M - N + 1, M + N + 1, dtype=np.int64)
        uinv = np.asarray([mod_inverse(u, q) for u in units], dtype=np.int64)
        lam = (ns[:, None] * uinv[None, :]).ravel() % q
        I = np.bincount(lam, minlength=q)
        out["diag_I_sum"] = int(I.sum())
        out["diag_I_sq_sum"] = int((I.astype(object) ** 2).sum())
        out["diag_I_max"] = int(I.max())
        # W at alpha = 0, the bilinear form the proof bounds.  Every point
        # n0 + u v lies in (M - N, M + N + U V], so chi and the phase are
        # evaluated once over that range.  Terms are multiplied as Python
        # complex and the moduli taken with abs: numpy's array multiply and
        # np.abs may differ in the last bit.
        lo = M - N + 1
        pts = np.arange(lo, M + N + U * V + 1, dtype=np.int64)
        phases = _phase_array(F, pts[:, None]).tolist()
        terms = np.asarray([c * e for c, e in zip(chi.value_many(pts).tolist(), phases)],
                           dtype=np.complex128)
        vs = range(1, V + 1)
        at = (ns[:, None, None] - lo + np.outer(units, vs)[None, :, :]).reshape(-1, V)
        inner = np.zeros(len(at), dtype=np.complex128)
        for j in range(V):  # the v-columns in order, as the scalar sum adds them
            inner += terms[at[:, j]]
        W = 0.0
        for z in inner.tolist():
            W += abs(z)
        out["diag_W_alpha0"] = W
        # W1 with the phi-product weights, rescaled to unit sup norm
        weights = np.asarray([math.prod(phi_factor(i, v, V) for i in range(1, d + 1))
                              for v in vs], dtype=np.float64)
        scale = float(np.max(np.abs(weights))) if len(weights) else 1.0
        p = VinogradovParams(r, d, V)
        w_norm = exact_W_squarefree(chi, weights / scale, p)
        out["diag_W1_phi_weighted"] = w_norm * scale ** (2 * r)
        j = get_j_count(r, d, V, use_cache=False)
        out["diag_lemma3_rhs"] = lemma_rhs("L3", q=q, V=V, r=r, j_count=j)
    return out


# ----------------------------------------------------------------------
# weil campaign

def _distinct_rich_tuples(cap: int, r: int) -> np.ndarray:
    """All tuples in [1, cap]^(2r) with at least r + 1 distinct entries."""
    grids = np.meshgrid(*([np.arange(1, cap + 1, dtype=np.int64)] * (2 * r)),
                        indexing="ij")
    tuples = np.stack([g.ravel() for g in grids], axis=-1)
    sorted_rows = np.sort(tuples, axis=1)
    distinct = 1 + (np.diff(sorted_rows, axis=1) != 0).sum(axis=1)
    return tuples[distinct >= r + 1]


def _tuple_classes(tuples: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(first row, size) of each class of tuples equal up to reordering each
    half and swapping the halves, with classes in the order of their first row.

    Reordering a half leaves the dlog histogram of the sum unchanged and
    swapping the halves conjugates the sum, while the A_i are permuted, so
    every member of a class has the same |sum| and the same bound."""
    cap = int(tuples.max(initial=0))
    halves = np.sort(tuples.reshape(len(tuples), 2, r), axis=2)
    # lexicographic rank of each sorted half, then the unordered pair of ranks
    ranks = np.ravel_multi_index(tuple(np.moveaxis(halves, 2, 0)), (cap + 1,) * r)
    keys = ranks.min(axis=1) * (cap + 1) ** r + ranks.max(axis=1)
    _, first, sizes = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], sizes[order]


def _difference_products(tuples: np.ndarray) -> np.ndarray:
    """Signed products A_i = prod_{j != i} (v_i - v_j), per tuple row."""
    k = tuples.shape[1]
    diffs = tuples[:, :, None] - tuples[:, None, :]
    diffs[:, np.arange(k), np.arange(k)] = 1
    return diffs.prod(axis=2)


def _tuple_gcd_bounds(diff_products: np.ndarray, p: int) -> np.ndarray:
    """Best bound factor per tuple: min over usable i of gcd(p, |A_i|)."""
    gcds = np.where(diff_products != 0,
                    np.gcd(p, np.abs(diff_products)), 1 << 30)
    best = gcds.min(axis=1)
    if np.any(best >= 1 << 30):  # pragma: no cover
        raise ArithmeticError("tuple with every A_i = 0 slipped the filter")
    return best.astype(np.float64)


def _complete_sums_all_characters(p: int, tuples: np.ndarray, r: int) -> np.ndarray:
    """|sum_lambda chi_t(prod_{i<=r} (lambda+v_i) / prod_{i>r} (lambda+v_i))| for
    every tuple row v (axis 0) and every nontrivial t = 1..p-2 (axis 1).

    The exponent L(lambda) = sum_{i<=r} dlog(lambda+v_i) - sum_{i>r} dlog(lambda+v_i)
    mod p-1 is an integer; with H the histogram of L over the lambda where
    no factor vanishes, the sum is sum_k H[k] e(tk/(p-1)), one FFT along k."""
    n = p - 1
    _, dlog = _root_and_dlog(p)
    lam = np.arange(p, dtype=np.int64)
    exponent = np.zeros((len(tuples), p), dtype=np.int64)
    unit = np.ones((len(tuples), p), dtype=bool)
    for pos in range(2 * r):
        k = dlog[(lam[None, :] + tuples[:, pos][:, None]) % p]
        unit &= k >= 0
        exponent += k if pos < r else -k
    rows = np.broadcast_to(np.arange(len(tuples))[:, None] * n, exponent.shape)
    hist = np.bincount((rows + exponent % n)[unit], minlength=len(tuples) * n)
    # fft gives the conjugate sums sum_k H[k] e(-tk/(p-1)); only |.| is kept
    return np.abs(np.fft.fft(hist.reshape(len(tuples), n), axis=1))[:, 1:]


def _weil_campaign(cfg: CampaignConfig) -> VerificationReport:
    r = cfg.r if cfg.r is not None else 2
    instances = []
    by_cap: dict[int, tuple] = {}
    for p in primes_upto(min(cfg.q_max, 101)):
        cap = min(p - 1, cfg.tuple_cap)
        if cap < 1:
            continue
        if cap ** (2 * r) > min(cfg.budget, 1 << 22):
            raise BudgetExceeded(
                f"{cap}^(2r) tuples exceed the exhaustive-sweep budget")
        if cap not in by_cap:
            rich = _distinct_rich_tuples(cap, r)
            first, sizes = _tuple_classes(rich, r)
            by_cap[cap] = (len(rich), rich[first], _difference_products(rich[first]),
                           sizes)
        if by_cap[cap][0]:
            instances.append((p, *by_cap[cap]))

    def evaluate(inst):
        """One record per nontrivial character mod p, from one class
        representative per tuple class."""
        p, checked, reps, diff_products, sizes = inst
        sums = _complete_sums_all_characters(p, reps, r)
        bounds = ((2 * r - 1) * np.sqrt(_tuple_gcd_bounds(diff_products, p))
                  * math.sqrt(p))[:, None]
        ratios = sums / bounds
        # ties within 1e-12 go to the first class, i.e. the first tuple in order
        worst = np.argmax(ratios >= ratios.max(axis=0) * (1 - 1e-12), axis=0)
        violations = sizes @ (sums > bounds + 1e-6)
        records = []
        for t in range(1, p - 1):
            i, col = worst[t - 1], t - 1
            count = int(violations[col])
            records.append({"p": p, "t": t, "order": (p - 1) // math.gcd(t, p - 1),
                            "tuples_checked": checked,
                            "max_abs_sum": float(sums[i, col]),
                            "bound_at_max": float(bounds[i, 0]),
                            "ratio": float(ratios[i, col]),
                            "argmax_tuple": [int(x) for x in reps[i]],
                            "violations": count,
                            "sanity_ok": count == 0})
        return records

    records = [rec for recs in _run_instances(instances, evaluate, cfg.threads)
               for rec in recs]
    return _finish(cfg, records, _theorem_notes(
        [f"bound: (2r-1) * gcd(p, A_i)^(1/2) * p^(1/2) with r = {r}; "
         "every nontrivial character mod p; zero violations required"]),
        extra_aggregate={"total_violations": sum(rec["violations"] for rec in records)})


# ----------------------------------------------------------------------
# smoothing campaign

def _smoothing_campaign(cfg: CampaignConfig) -> VerificationReport:
    dims = min(cfg.n_dims, 2)
    Ns = (12, 9)[:dims]
    Us = (2, 2)[:dims]
    V = 4
    for Ni, Ui in zip(Ns, Us):
        if Ui * V > Ni:
            raise HypothesisViolated("need U_i * V <= N_i")
    u_box = list(itertools.product(*[range(1, U + 1) for U in Us]))
    box = list(itertools.product(*[range(1, N + 1) for N in Ns]))
    box0 = list(itertools.product(*[range(-N, N + 1) for N in Ns]))
    log_factor = math.prod(math.log(N) for N in Ns)
    prefactor = log_factor / (V * len(u_box))

    def evaluate(seed_index):
        gseed = SplitMix64(cfg.seed).derive(seed_index).next_u64()

        def G(pt):
            h = point_hash(gseed, *pt)
            mag = h.next_float()
            theta = h.next_float()
            return mag * complex(math.cos(2 * math.pi * theta),
                                 math.sin(2 * math.pi * theta))

        lhs = abs(sum(G(pt) for pt in box))
        # inner sums per (n, u): rows of G values along the v-progression
        rows = np.empty((len(box0) * len(u_box), V), dtype=np.complex128)
        k = 0
        for n0 in box0:
            for u in u_box:
                for vi in range(1, V + 1):
                    rows[k, vi - 1] = G(tuple(c + vi * uc for c, uc in zip(n0, u)))
                k += 1

        vs = np.arange(1, V + 1)

        def totals_at(alphas):
            phases = np.exp(2j * np.pi * np.outer(vs, np.asarray(alphas)))
            acc = np.zeros((rows.shape[0], phases.shape[1]), dtype=np.complex128)
            for vi in range(V):
                acc += rows[:, vi][:, None] * phases[vi][None, :]
            return np.abs(acc)

        grid = np.arange(cfg.grid) / cfg.grid
        per_term = totals_at(grid)
        column_totals = per_term.sum(axis=0)
        best = int(np.argmax(column_totals))
        # local refinement around the best grid point
        lo = (best - 1) / cfg.grid
        hi = (best + 1) / cfg.grid
        for _ in range(40):
            third = (hi - lo) / 3
            m1, m2 = lo + third, hi - third
            t1 = float(totals_at([m1]).sum())
            t2 = float(totals_at([m2]).sum())
            if t1 < t2:
                lo = m1
            else:
                hi = m2
        alpha_star = (lo + hi) / 2
        total_best = max(float(totals_at([alpha_star]).sum()),
                         float(column_totals[best]))
        rhs_single = prefactor * total_best
        rhs_inner = prefactor * float(per_term.max(axis=1).sum())
        return {"seed_index": seed_index, "lhs": lhs,
                "rhs_single_alpha": rhs_single,
                "rhs_inner_max": rhs_inner,
                "alpha": alpha_star,
                "ratio": lhs / rhs_single if rhs_single > 0 else float("inf"),
                "ratio_inner_max": lhs / rhs_inner if rhs_inner > 0 else float("inf"),
                "sanity_ok": math.isfinite(lhs)}

    records = _run_instances(range(cfg.samples), evaluate, cfg.threads)
    finite = all(math.isfinite(rec["ratio"]) for rec in records)
    notes = [f"boxes N = {Ns}, U = {Us}, V = {V}; alpha grid {cfg.grid} points "
             "plus 40 ternary refinement steps around the argmax",
             "ratio uses the single maximizing alpha (the lemma's statement); "
             "ratio_inner_max moves the max inside the double sum"]
    return _finish(cfg, records, notes, extra_pass=finite)


# ----------------------------------------------------------------------
# phi campaign

@functools.lru_cache(maxsize=8)
def _leggauss(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def _gauss_legendre_integral(w: float, delta: float, nodes: int = 48) -> complex:
    """integral_{-delta}^{delta} e^(2 pi i x w) dx by Gauss-Legendre."""
    x, weights = _leggauss(nodes)
    vals = np.exp(2j * np.pi * (x * delta) * w)
    return complex((weights * vals).sum() * delta)


def _phi_campaign(cfg: CampaignConfig) -> VerificationReport:
    V = cfg.V_phi
    d = cfg.d
    if V > 10**4 or d > 6:
        raise HypothesisViolated("phi campaign caps: V <= 1e4, d <= 6")
    records = []
    for i in range(1, d + 1):
        delta = 1.0 / (4.0 * V**i)
        worst_resid = 0.0
        worst_cap = 0.0
        prev = 0.0
        monotone = True
        for v in range(1, V + 1):
            phi = phi_factor(i, v, V)
            integral = _gauss_legendre_integral(float(v) ** i, delta)
            resid = abs(phi * integral - 1.0)
            worst_resid = max(worst_resid, resid)
            worst_cap = max(worst_cap, abs(phi) / (math.pi**2 * V**i))
            # growth steps can sit below double epsilon for huge V^i, so
            # non-decreasing is asserted only up to relative rounding
            if abs(phi) < prev * (1.0 - 1e-12):
                monotone = False
            prev = abs(phi)
        records.append({"i": i, "V": V, "delta": delta,
                        "max_identity_residual": worst_resid,
                        "max_phi_over_cap": worst_cap,
                        "monotone": monotone,
                        "endpoint_phi": phi_factor(i, V, V),
                        "endpoint_expected": math.pi * V**i,
                        "sanity_ok": (worst_resid <= 1e-12 and worst_cap <= 1.0
                                      and monotone)})
    return _finish(cfg, records, [PHI_NOTE])


# ----------------------------------------------------------------------
# mean-value campaigns (lemma3..lemma6)

LEMMA3_MODULI = (11, 101, 499, 997, 15, 35, 143, 323, 899, 105, 165, 231, 627, 935)
LEMMA4_MODULI = (11, 101, 499, 997, 15, 35, 143, 323, 899)
LEMMA5_PAIRS = ((11, 13), (11, 31), (29, 31), (13, 61), (17, 53))
LEMMA6_FIELDS = ((2, 12), (3, 7), (5, 5), (7, 4), (11, 3), (13, 3), (61, 2))
DEFAULT_V_SWEEP = (4, 8, 12, 16, 20)


def _first_primitive_character(q: int) -> DirichletCharacter:
    """The first primitive character mod q in index order: index 1 at every prime."""
    if q % 2 == 0:
        raise IndexOutOfRange(f"even modulus {q} has no primitive character")
    m = factor_squarefree(q)
    return crt_character(m, (1,) * len(m.primes))


def _w_record(w: float, rhs: float, /, **fields) -> dict:
    """A lemma 3-6 record: the exact mean value W against the lemma's bound."""
    return {**fields, "W": w, "rhs": rhs, "ratio": w / rhs, "sanity_ok": w >= -1e-9}


def _v_sweep(cfg: CampaignConfig) -> tuple[int, ...]:
    return cfg.V_list if cfg.V_list is not None else DEFAULT_V_SWEEP


def _lemma3_campaign(cfg: CampaignConfig) -> VerificationReport:
    r = cfg.r if cfg.r is not None else 2
    d = cfg.d
    # the frozen sweep is fixed; q_max does not trim it
    instances = [(q, V) for q in LEMMA3_MODULI for V in _v_sweep(cfg)]

    def evaluate(inst):
        q, V = inst
        chi = _first_primitive_character(q)
        w = exact_W_squarefree(chi, None, VinogradovParams(r, d, V), budget=cfg.budget)
        j = get_j_count(r, d, V, budget=cfg.budget, use_cache=cfg.use_cache)
        return _w_record(w, lemma_rhs("L3", q=q, V=V, r=r, j_count=j), q=q, V=V, r=r,
                         d=d, char_indices=list(chi.indices), J=j)

    return _run(cfg, instances, evaluate, _theorem_notes())


def _lemma4_campaign(cfg: CampaignConfig) -> VerificationReport:
    s, d = cfg.s, cfg.d
    r = cfg.r if cfg.r is not None else s + 2
    if r < s + 2:
        raise HypothesisViolated("lemma4 sweep needs r >= s + 2")
    instances = [(q, V) for q in LEMMA4_MODULI
                 if factor_squarefree(q).num_prime_factors <= s
                 for V in _v_sweep(cfg) if V**r * V**r <= cfg.budget]

    def evaluate(inst):
        q, V = inst
        chi = _first_primitive_character(q)
        w = exact_W_squarefree(chi, None, VinogradovParams(r, d, V), budget=cfg.budget)
        j = get_j_count(r - s - 1, d, V, budget=cfg.budget, use_cache=cfg.use_cache)
        return _w_record(w, lemma_rhs("L4", q=q, V=V, r=r, s=s, j_count=j), q=q, V=V,
                         r=r, d=d, s=s, char_indices=list(chi.indices), J_reduced=j)

    return _run(cfg, instances, evaluate, _theorem_notes([LEMMA4_NOTE]))


def _lemma5_campaign(cfg: CampaignConfig) -> VerificationReport:
    r = cfg.r if cfg.r is not None else 2
    d = cfg.d
    instances = [(qs, V) for qs in LEMMA5_PAIRS for V in _v_sweep(cfg) if V <= min(qs)]

    def evaluate(inst):
        qs, V = inst
        chis = [crt_character(factor_squarefree(qi), (1,)) for qi in qs]
        w = exact_W_multichar(chis, None, VinogradovParams(r, d, V), budget=cfg.budget)
        j = get_j_count(r, d, V, budget=cfg.budget, use_cache=cfg.use_cache)
        rhs = lemma_rhs("L5", q=math.prod(qs), V=V, r=r, j_count=j)
        return _w_record(w, rhs, q_list=list(qs), V=V, r=r, d=d, J=j)

    return _run(cfg, instances, evaluate, _theorem_notes())


def _lemma6_campaign(cfg: CampaignConfig) -> VerificationReport:
    r = cfg.r if cfg.r is not None else 2
    d = cfg.d
    fields = [build_field(q, n) for q, n in LEMMA6_FIELDS if q**n <= cfg.field_max]
    instances = [(spec, V) for spec in fields for V in _v_sweep(cfg)]

    def evaluate(inst):
        spec, V = inst
        w = exact_W_field(FieldCharacter(spec, 1), None, VinogradovParams(r, d, V),
                          budget=cfg.budget)
        j = get_j_count(r, d, V, budget=cfg.budget, use_cache=cfg.use_cache)
        rhs = lemma_rhs("L6", q=spec.size, V=V, r=r, j_count=j)
        return _w_record(w, rhs, q=spec.q, n=spec.n, field_size=spec.size, V=V, r=r,
                         d=d, J=j)

    return _run(cfg, instances, evaluate, _theorem_notes(
        ["lambda ranges over the whole field, so the value is basis-independent; "
         "fields are built on the default power basis"]))


# ----------------------------------------------------------------------
# energy campaigns (lemma7..lemma9)

LEMMA7_SWEEP = ((101, 10, 10), (211, 14, 14), (499, 22, 22), (997, 31, 31),
                (35, 5, 5), (143, 11, 11), (899, 29, 29), (1001, 31, 31))
LEMMA8_PRIMES = (5, 11, 23, 47, 101, 211, 401, 601, 809, 1013)
LEMMA9_PRIMES = (101, 199, 401, 997)


def _lemma7_campaign(cfg: CampaignConfig) -> VerificationReport:
    def evaluate(inst):
        q, N, U = inst
        count = cong_energy(q, 0, N, U, override_hypotheses=cfg.override_hypotheses)
        return {"q": q, "N": N, "U": U, "count": count,
                "ratio": count / (N * U), "sanity_ok": count >= N}

    return _run(cfg, LEMMA7_SWEEP, evaluate, [OSMALL_NOTE])


def _lemma8_campaign(cfg: CampaignConfig) -> VerificationReport:
    instances = [q for q in LEMMA8_PRIMES if q * q <= 1 << 20]

    def evaluate(q):
        H = U = math.isqrt(q)
        count = ff_box_energy(build_field(q, 2), H, U,
                              override_hypotheses=cfg.override_hypotheses)
        denom = (U * H) ** 2 * math.log(q)
        return {"q": q, "n": 2, "H": H, "U": U, "count": count,
                "ratio": count / denom, "sanity_ok": count >= (H * U) ** 2}

    return _run(cfg, instances, evaluate, [OSMALL_NOTE])


def _lemma9_campaign(cfg: CampaignConfig) -> VerificationReport:
    systems = (LinearSystem(((1, 0), (0, 1))), LinearSystem(((1, 1), (0, 1))))
    instances = [(q, L) for q in LEMMA9_PRIMES for L in systems]

    def evaluate(inst):
        q, L = inst
        H = U = math.isqrt(q)
        count = linear_forms_energy(q, L, H, U,
                                    override_hypotheses=cfg.override_hypotheses)
        return {"q": q, "H": H, "U": U, "matrix": [list(row) for row in L.matrix],
                "count": count, "ratio": count / ((U * H) ** L.n),
                "sanity_ok": count >= (H * U) ** L.n}

    return _run(cfg, instances, evaluate, [OSMALL_NOTE, LEMMA9_NOTE])


# ----------------------------------------------------------------------
# comparator campaign and the campaign table

def _compare_campaign(cfg: CampaignConfig) -> VerificationReport:
    N = cfg.N if cfg.N is not None else max(int(cfg.q_max**0.3), 2)
    r = cfg.r if cfg.r is not None else (cfg.r_d if cfg.r_d is not None else 5)
    table = compare_exponents(N, cfg.q_max, cfg.d, r, cfg.delta)
    record = {"N": N, "q": cfg.q_max, "d": cfg.d, "r": r, "delta": cfg.delta,
              "sanity_ok": True}
    record.update(table)
    return _finish(cfg, [record], [OSMALL_NOTE])


CAMPAIGNS = {
    "thm1": _thm1_campaign,
    "thm2": _thm2_campaign,
    "thm3": _thm3_campaign,
    "thm4": _thm4_campaign,
    "thm5": _thm5_campaign,
    "lemma1": _smoothing_campaign,
    "smoothing": _smoothing_campaign,
    "lemma2": _weil_campaign,
    "weil": _weil_campaign,
    "lemma3": _lemma3_campaign,
    "lemma4": _lemma4_campaign,
    "lemma5": _lemma5_campaign,
    "lemma6": _lemma6_campaign,
    "lemma7": _lemma7_campaign,
    "lemma8": _lemma8_campaign,
    "lemma9": _lemma9_campaign,
    "phi": _phi_campaign,
    "compare": _compare_campaign,
}


def run_campaign(cfg: CampaignConfig) -> VerificationReport:
    """Run the campaign named by cfg.target."""
    try:
        runner = CAMPAIGNS[cfg.target]
    except KeyError:
        raise ValueError(f"unknown campaign target {cfg.target!r}") from None
    return runner(cfg)
