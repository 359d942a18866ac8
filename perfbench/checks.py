"""Independent checks of what a workload round produced.

Nothing here imports charsumlab.  Every reference value is computed from
first principles: characters from the benchmark's own smallest-primitive-
root dlog tables, phases in exact rational arithmetic, counts and
energies from the benchmark's own tallies.  No check compares against a
stored copy of earlier output.

Each check function takes the round's operation (its plan entry and
result) and returns a list of problems; an empty list means the output
is right.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


# ----------------------------------------------------------------------
# number theory

def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@functools.cache
def dlog_table(p: int) -> np.ndarray:
    """dlog[g^k mod p] = k for the smallest primitive root g; dlog[0] = -1."""
    table = np.full(p, -1, dtype=np.int64)
    if p == 2:
        table[1] = 0
    else:
        fs = prime_factors(p - 1)
        g = next(g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in fs))
        powers = np.empty(p - 1, dtype=np.int64)
        powers[0] = 1
        filled = 1
        while filled < p - 1:  # g^(filled + j) = g^j * g^filled
            k = min(filled, p - 1 - filled)
            powers[filled:filled + k] = powers[:k] * pow(g, filled, p) % p
            filled += k
        table[powers] = np.arange(p - 1, dtype=np.int64)
    table.setflags(write=False)  # shared by every caller
    return table


def char_values(primes, indices, n) -> np.ndarray:
    """chi(n) for the character with index t_j mod each prime p_j; 0 off units."""
    n = np.asarray(n, dtype=np.int64)
    turns = np.zeros(n.shape, dtype=np.float64)
    unit = np.ones(n.shape, dtype=bool)
    for p, t in zip(primes, indices):
        k = dlog_table(p)[n % p]
        unit &= k >= 0
        turns += (t * np.where(k >= 0, k, 0)) % (p - 1) / (p - 1)
    return np.where(unit, np.exp(2j * np.pi * turns), 0)


def phase_values(poly, points) -> np.ndarray:
    """e(F(x)) at integer points, with F(x) mod 1 computed exactly.

    The coefficients are brought to one denominator as Fractions, so the
    phase is a rational number reduced mod 1 before rounding to float.
    """
    terms = [(tuple(e), Fraction(c)) for e, c in poly]
    den = math.lcm(*(f.denominator for _, f in terms)) if terms else 1
    nums = [(e, f.numerator * (den // f.denominator)) for e, f in terms]
    turns = []
    for pt in points:
        acc = 0
        for exps, a in nums:
            for x, k in zip(pt, exps):
                if k:
                    a *= x**k
            acc += a
        turns.append((acc % den) / den)
    return np.exp(2j * np.pi * np.asarray(turns, dtype=np.float64))


def sum_sq_multiplicities(keys: np.ndarray) -> int:
    """sum over distinct values c of (number of entries equal to c)^2."""
    keys = np.sort(keys.ravel())
    edges = np.flatnonzero(np.diff(keys)) + 1
    counts = np.diff(np.concatenate(([0], edges, [len(keys)]))).astype(np.int64)
    return int((counts * counts).sum())


def _box(side: int, dims: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(1, side + 1, dtype=np.int64)] * dims), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(scale, 1.0)


def load_report(path: Path) -> dict:
    return json.loads(Path(path).read_bytes())


# ----------------------------------------------------------------------
# meanvalue

def j_count(r: int, d: int, V: int) -> int:
    """Vinogradov count as the sum of squared multiplicities of the
    power-sum keys of all r-tuples in [1, V]."""
    tuples = _box(V, r)
    key = np.zeros(len(tuples), dtype=np.int64)
    span = 1
    for i in range(1, d + 1):
        top = r * V**i + 1
        span *= top
        if span >= 1 << 62:
            raise OverflowError("packed power-sum key leaves int64")
        key = key * top + (tuples**i).sum(axis=1)
    return sum_sq_multiplicities(key)


def _holder_bracket(W: float, m: np.ndarray, r: int, where: str) -> list[str]:
    """sum m^r <= W <= sum m^(2r-1): Hoelder below, Parseval above."""
    m = m.astype(np.float64)
    lo = float((m**r).sum())
    hi = float((m ** (2 * r - 1)).sum())
    if not lo * (1 - REL_TOL) <= W <= hi * (1 + REL_TOL):
        return [f"{where}: W = {W} outside the bracket [{lo}, {hi}]"]
    return []


def _quadrature_W(T: np.ndarray, r: int, d: int, V: int) -> float:
    """Uniform-grid average of sum_lambda |sum_v T[lambda, v] e(alpha . v^i)|^(2r).

    r(V^i - 1) + 1 points in alpha_i integrate every frequency of the
    trigonometric polynomial exactly.
    """
    v = np.arange(1, V + 1, dtype=np.float64)
    grids = [np.arange(r * (V**i - 1) + 1) / (r * (V**i - 1) + 1) for i in range(1, d + 1)]
    inner = grids[-1]
    inner_phase = np.outer(v**d, inner)
    total = 0.0
    for outer in itertools.product(*grids[:-1]):
        shift = sum((a * v**i for i, a in enumerate(outer, start=1)), np.zeros(V))
        E = np.exp(2j * np.pi * (inner_phase + shift[:, None]))
        S = T @ E
        total += float((np.abs(S) ** (2 * r)).sum())
    return total / math.prod(len(g) for g in grids)


def _dirichlet_table(primes, indices, lam: np.ndarray, V: int) -> np.ndarray:
    return np.stack([char_values(primes, indices, lam + v) for v in range(1, V + 1)], axis=-1)


QUADRATURE_V = (4, 8)


def check_lemma3_4(report: dict, kind: str) -> list[str]:
    problems = []
    for rec in report["records"]:
        q, V, r, d, W = rec["q"], rec["V"], rec["r"], rec["d"], rec["W"]
        where = f"{kind} q={q} V={V}"
        if kind == "lemma3" and (r, d) == (2, 2) and rec["J"] != 2 * V * V - V:
            problems.append(f"{where}: J = {rec['J']}, expected 2V^2 - V = {2 * V * V - V}")
        if kind == "lemma4" and rec["J_reduced"] != V:
            problems.append(f"{where}: J_reduced = {rec['J_reduced']}, expected V")
        lam = np.arange(1, q + 1, dtype=np.int64)
        units = np.stack([np.gcd(lam + v, q) == 1 for v in range(1, V + 1)], axis=-1)
        problems += _holder_bracket(W, units.sum(axis=1), r, where)
        if V in QUADRATURE_V:
            T = _dirichlet_table(prime_factors(q), rec["char_indices"], lam, V)
            ref = _quadrature_W(T, r, d, V)
            if not _close(W, ref, abs(ref)):
                problems.append(f"{where}: W = {W}, quadrature gives {ref}")
    return problems


def check_lemma5(report: dict) -> list[str]:
    """The campaign uses the index-1 character mod each prime of the pair."""
    problems = []
    for rec in report["records"]:
        (q1, q2), V, r, d, W = rec["q_list"], rec["V"], rec["r"], rec["d"], rec["W"]
        where = f"lemma5 q={q1}*{q2} V={V}"
        if (r, d) == (2, 2) and rec["J"] != 2 * V * V - V:
            problems.append(f"{where}: J = {rec['J']}, expected 2V^2 - V")
        l1 = np.repeat(np.arange(1, q1 + 1, dtype=np.int64), q2)
        l2 = np.tile(np.arange(1, q2 + 1, dtype=np.int64), q1)
        units = np.stack([((l1 + v) % q1 != 0) & ((l2 + v) % q2 != 0)
                          for v in range(1, V + 1)], axis=-1)
        problems += _holder_bracket(W, units.sum(axis=1), r, where)
        if V in QUADRATURE_V:
            T = (_dirichlet_table([q1], [1], l1, V) * _dirichlet_table([q2], [1], l2, V))
            ref = _quadrature_W(T, r, d, V)
            if not _close(W, ref, abs(ref)):
                problems.append(f"{where}: W = {W}, quadrature gives {ref}")
    return problems


def check_lemma6(report: dict) -> list[str]:
    """lambda runs over GF(q^n); lambda + v = 0 only for the scalar -v mod q."""
    problems = []
    for rec in report["records"]:
        q, n, V, r, d, W = rec["q"], rec["n"], rec["V"], rec["r"], rec["d"], rec["W"]
        where = f"lemma6 GF({q}^{n}) V={V}"
        if (r, d) == (2, 2) and rec["J"] != 2 * V * V - V:
            problems.append(f"{where}: J = {rec['J']}, expected 2V^2 - V")
        hits = np.bincount(np.arange(1, V + 1) % q, minlength=q)   # v = -c mod q
        scalar_m = np.asarray([V - hits[(-c) % q] for c in range(q)])
        m = np.concatenate((scalar_m, np.full(q**n - q, V)))
        problems += _holder_bracket(W, m, r, where)
    return problems


# ----------------------------------------------------------------------
# theorem

def _char_sum_problem(where: str, rec: dict, S: complex) -> list[str]:
    if abs(abs(S) - rec["lhs"]) > REL_TOL * rec["nterms"]:
        return [f"{where}: |S| = {rec['lhs']}, recomputed {abs(S)}"]
    return []


def _index_problems(where: str, primes, indices) -> list[str]:
    if len(primes) != len(indices):
        return [f"{where}: {len(indices)} indices for primes {primes}"]
    return [f"{where}: index {t} mod {p} outside [1, p-2]"
            for p, t in zip(primes, indices) if not 1 <= t <= p - 2]


def check_theorem(report: dict, target: str) -> list[str]:
    problems = []
    for i, rec in enumerate(report["records"]):
        where = f"{target} record {i}"
        if not rec["lhs"] <= rec["nterms"] + 1e-9:
            problems.append(f"{where}: |S| = {rec['lhs']} exceeds nterms {rec['nterms']}")
        if target in ("thm1", "thm2"):
            q, M, N = rec["q"], rec["M"], rec["N"]
            primes = prime_factors(q)
            problems += _index_problems(where, primes, rec["char_indices"])
            ns = np.arange(M + 1, M + N + 1, dtype=np.int64)
            vals = char_values(primes, rec["char_indices"], ns)
            S = complex((vals * phase_values(rec["poly"], ((int(x),) for x in ns))).sum())
            problems += _char_sum_problem(where, rec, S)
            if "diag_units" in rec and rec["diag_units"] > 0:
                if rec["diag_I_sum"] != 2 * N * rec["diag_units"]:
                    problems.append(f"{where}: diag_I_sum = {rec['diag_I_sum']}, "
                                    f"expected 2N * diag_units")
        elif target == "thm3":
            size = rec["q"] ** rec["n"]
            if not 1 <= rec["t"] <= size - 2:
                problems.append(f"{where}: field character index {rec['t']} is trivial")
        elif target == "thm4":
            qs, idx = rec["q_list"], rec["char_indices"]
            problems += _index_problems(where, qs, idx)
            axes = [np.arange(M + 1, M + H + 1, dtype=np.int64)
                    for M, H in zip(rec["M_list"], rec["H_list"])]
            chars = [char_values([qi], [ti], ax) for qi, ti, ax in zip(qs, idx, axes)]
            vals = np.ones(1, dtype=np.complex128)
            for c in chars:
                vals = (vals[:, None] * c[None, :]).ravel()
            points = itertools.product(*(ax.tolist() for ax in axes))
            S = complex((vals * phase_values(rec["poly"], points)).sum())
            problems += _char_sum_problem(where, rec, S)
        elif target == "thm5":
            q, H = rec["q"], rec["H"]
            problems += _index_problems(where, [q], rec["char_indices"])
            S = linear_forms_sum([q], rec["char_indices"], rec["matrix"], rec["poly"], H)
            problems += _char_sum_problem(where, rec, S)
    return problems


def linear_forms_sum(primes, indices, matrix, poly, H: int) -> complex:
    """Sum over [1, H]^n of chi(prod_j L_j(h)) e(F(h)), in Python integers."""
    q = math.prod(primes)
    points = list(itertools.product(range(1, H + 1), repeat=len(matrix)))
    prods = []
    for h in points:
        prod = 1
        for row in matrix:
            prod = prod * (sum(c * x for c, x in zip(row, h)) % q) % q
        prods.append(prod)
    vals = char_values(primes, indices, prods)
    return complex((vals * phase_values(poly, points)).sum())


# ----------------------------------------------------------------------
# weil_energy

@functools.cache
def rich_tuple_count(cap: int, r: int) -> int:
    """Tuples in [1, cap]^(2r) with at least r + 1 distinct entries."""
    return sum(1 for t in itertools.product(range(cap), repeat=2 * r)
               if len(set(t)) >= r + 1)


def check_weil(report: dict, total_violations, r: int = 2, tuple_cap: int = 8) -> list[str]:
    """`total_violations` comes from the returned report: the campaign adds
    it only after the JSON report has been written."""
    problems = []
    if total_violations != 0:
        problems.append(f"weil: total_violations = {total_violations}")
    if sum(rec["violations"] for rec in report["records"]) != 0:
        problems.append("weil: a record has violations")
    for rec in report["records"]:
        p, t, v = rec["p"], rec["t"], rec["argmax_tuple"]
        where = f"weil p={p} t={t}"
        expected = rich_tuple_count(min(p - 1, tuple_cap), r)
        if rec["tuples_checked"] != expected:
            problems.append(f"{where}: tuples_checked = {rec['tuples_checked']}, "
                            f"expected {expected}")
        lam = np.arange(1, p + 1, dtype=np.int64)
        dlog = dlog_table(p)
        k = np.zeros(p, dtype=np.int64)
        unit = np.ones(p, dtype=bool)
        for pos, vi in enumerate(v):
            kk = dlog[(lam + vi) % p]
            unit &= kk >= 0
            k += kk if pos < r else -kk
        S = np.where(unit, np.exp(2j * np.pi * ((t * k) % (p - 1)) / (p - 1)), 0).sum()
        if abs(abs(S) - rec["max_abs_sum"]) > REL_TOL * p:
            problems.append(f"{where}: max_abs_sum = {rec['max_abs_sum']}, "
                            f"recomputed {abs(S)} at {v}")
    return problems


def cong_energy(q: int, M: int, N: int, U: int) -> int:
    units = np.asarray([u for u in range(1, U + 1) if math.gcd(u, q) == 1], dtype=np.int64)
    ns = np.arange(M + 1, M + N + 1, dtype=np.int64) % q
    return sum_sq_multiplicities(ns[:, None] * units[None, :] % q)


def linear_forms_energy(q: int, matrix, H: int, U: int) -> int:
    if q * q >= 1 << 62:
        raise OverflowError("form products leave int64")
    mat = np.asarray(matrix, dtype=np.int64)
    fa = _box(H, len(matrix)) @ mat.T % q
    fb = _box(U, len(matrix)) @ mat.T % q
    key = np.zeros((len(fa), len(fb)), dtype=np.int64)
    for i in range(len(matrix)):
        key = key * q + fa[:, i][:, None] * fb[:, i][None, :] % q
    return sum_sq_multiplicities(key)


def has_root(modpoly, q: int) -> bool:
    xs = np.arange(q, dtype=np.int64)
    acc = np.zeros(q, dtype=np.int64)
    for c in reversed(modpoly):
        acc = (acc * xs + c) % q
    return bool((acc == 0).any())


def first_irreducible_quadratic(q: int) -> tuple[int, int, int]:
    """First monic x^2 + c1 x + c0 with no root mod q, in order of c0 + q c1."""
    for k in range(q * q):
        poly = (k % q, k // q, 1)
        if not has_root(poly, q):
            return poly
    raise ArithmeticError(f"no irreducible quadratic mod {q}")


def field_box_energy(q: int, modpoly, H: int, U: int) -> int:
    """Energy of boxes in GF(q^2) = F_q[x]/(x^2 + k1 x + k0), with products
    taken as polynomials and x^2 replaced by -k1 x - k0."""
    k0, k1, lead = modpoly
    if lead != 1:
        raise ValueError("modpoly must be monic")
    a = _box(H, 2)
    b = _box(U, 2)
    keys = np.empty((len(a), len(b)), dtype=np.int64)
    step = max(1, (1 << 21) // len(b))
    for lo in range(0, len(a), step):
        a0 = a[lo:lo + step, 0][:, None]
        a1 = a[lo:lo + step, 1][:, None]
        b0, b1 = b[:, 0][None, :], b[:, 1][None, :]
        top = a1 * b1
        c0 = (a0 * b0 - k0 * top) % q
        c1 = (a0 * b1 + a1 * b0 - k1 * top) % q
        keys[lo:lo + step] = c0 + q * c1
    return sum_sq_multiplicities(keys)


def check_energy_report(report: dict, target: str) -> list[str]:
    problems = []
    for rec in report["records"]:
        if target == "lemma7":
            ref = cong_energy(rec["q"], 0, rec["N"], rec["U"])
        elif target == "lemma8":
            modpoly = first_irreducible_quadratic(rec["q"])
            ref = field_box_energy(rec["q"], modpoly, rec["H"], rec["U"])
        else:
            ref = linear_forms_energy(rec["q"], rec["matrix"], rec["H"], rec["U"])
        if rec["count"] != ref:
            problems.append(f"{target} q={rec['q']}: count = {rec['count']}, tally gives {ref}")
    return problems


# ----------------------------------------------------------------------
# dispatch on the operation

def check_op(op: dict, value, report_path: Path | None) -> list[str]:
    """Problems with one operation's output; [] when it is right."""
    name, args = op["name"], op["args"]
    if op["kind"] == "campaign":
        report = load_report(report_path)
        problems = [] if report["passed"] else [f"{name}: report did not pass"]
        target = args["target"]
        if target in ("lemma3", "lemma4"):
            problems += check_lemma3_4(report, target)
        elif target == "lemma5":
            problems += check_lemma5(report)
        elif target == "lemma6":
            problems += check_lemma6(report)
        elif target.startswith("thm"):
            problems += check_theorem(report, target)
        elif target == "weil":
            problems += check_weil(report, value["total_violations"])
        elif target in ("lemma7", "lemma8", "lemma9"):
            problems += check_energy_report(report, target)
        return problems
    call = op["call"]
    if call == "jcount":
        ref = j_count(args["r"], args["d"], args["V"])
        return [] if value == ref else [f"{name}: J = {value}, tally gives {ref}"]
    if call == "linforms_sum":
        ref = linear_forms_sum(args["primes"], args["indices"], args["matrix"],
                               args["poly"], args["H"])
        got = complex(*value)
        npts = args["H"] ** len(args["matrix"])
        if abs(got - ref) > REL_TOL * npts:
            return [f"{name}: sum = {got:.6g}, Python-integer recomputation gives {ref:.6g}"]
        return []
    if call == "cong_energy":
        ref = cong_energy(args["q"], args["M"], args["N"], args["U"])
        return [] if value == ref else [f"{name}: E = {value}, tally gives {ref}"]
    if call == "ff_box_energy":
        modpoly = value["modpoly"]
        if len(modpoly) != 3 or has_root(modpoly, args["q"]):
            return [f"{name}: modulus {modpoly} is not an irreducible quadratic"]
        ref = field_box_energy(args["q"], modpoly, args["H"], args["U"])
        count = value["count"]
        return [] if count == ref else [f"{name}: E = {count}, tally gives {ref}"]
    if call == "linear_forms_energy":
        ref = linear_forms_energy(args["q"], args["matrix"], args["H"], args["U"])
        return [] if value == ref else [f"{name}: E = {value}, tally gives {ref}"]
    raise ValueError(f"no check for {call!r}")
