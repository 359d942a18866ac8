"""The operations each workload runs in one round, with their inputs.

A plan is plain data, so the worker (which calls the program) and the
checks (which must not) read the same inputs.  Every input comes from the
workload seed; the same seed always gives the same plan.

Sizes are chosen so that the cost of a round does not depend on the seed:
the theorem campaigns either draw one modulus from a narrow window of
primes or take every candidate of their sweep (samples above the
population), so the seed changes which characters, phases and matrices
are evaluated but not how much work that is.
"""

from __future__ import annotations

import random

WORKLOADS = ("meanvalue", "theorem", "weil_energy")

# Thread count of the theorem campaigns; the replay for the determinism
# check runs them again at REPLAY_THREADS and must write the same bytes.
THEOREM_THREADS = 2
REPLAY_THREADS = 1

# linear_forms_mixed_sum over a modulus above 2^31.5: the residue product
# wraps in int64, so this operation fails until that is fixed.  An
# operation whose plan entry names a `fault` counts as failed when its
# check finds a problem; on any other operation a problem makes the run
# incorrect.
WIDE_Q = 65537 * 65539
LINFORMS_WIDE = {"q": WIDE_Q, "primes": [65537, 65539], "indices": [3, 5],
                 "matrix": [[WIDE_Q // 2, 1], [WIDE_Q // 3, 5]],
                 "poly": [[[1, 0], 0.25], [[0, 2], 0.125]], "H": 60}


def _primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi, by trial division (small ranges only)."""
    out = []
    for n in range(max(lo, 2), hi):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def _campaign(name: str, group: str | None = None, **cfg) -> dict:
    return {"name": name, "kind": "campaign", "group": group or name, "args": cfg}


def _library(name: str, call: str, group: str | None = None, **args) -> dict:
    return {"name": name, "kind": "library", "call": call, "group": group or name,
            "args": args}


def plan(workload: str, seed: int) -> list[dict]:
    """Operations of one round of `workload`, in execution order."""
    rng = random.Random(seed)
    if workload == "meanvalue":
        # The sweeps are the committed defaults (lemma4 stops at V = 8, see
        # README); the seed only enters the campaign configs.
        return [
            _campaign("lemma3", target="lemma3", seed=seed, use_cache=True),
            _campaign("lemma4", target="lemma4", seed=seed, use_cache=True,
                      V_list=(4, 8)),
            _campaign("lemma5", target="lemma5", seed=seed, use_cache=True),
            _campaign("lemma6", target="lemma6", seed=seed, use_cache=True),
            _library("jcount_3_3_100", "jcount", group="jcount", r=3, d=3, V=100),
            _library("jcount_4_2_30", "jcount", group="jcount", r=4, d=2, V=30),
        ]
    if workload == "theorem":
        big = _primes_between(99000, 100000)
        small = _primes_between(1900, 2100)
        p1, p2 = rng.sample(big, 2)
        p3 = rng.choice(small)
        t = THEOREM_THREADS
        return [
            _campaign("thm1", target="thm1", seed=seed, d=3, r_d=4, q_min=p1,
                      q_max=p1, chars_per_modulus=10, threads=t),
            _campaign("thm2", target="thm2", seed=seed, d=3, r_d=4, q_min=p2,
                      q_max=p2, chars_per_modulus=10, threads=t),
            _campaign("thm1_diag", target="thm1", seed=seed, d=2, r_d=5, q_min=p3,
                      q_max=p3, chars_per_modulus=6, diagnostics=True, threads=t),
            _campaign("thm3", target="thm3", seed=seed, r_d=4, field_max=1 << 16,
                      samples=10**4, threads=t),
            _campaign("thm4", target="thm4", seed=seed, r_d=6, q_max=300,
                      samples=100, threads=t),
            _campaign("thm5", target="thm5", seed=seed, r_d=5, q_max=1000,
                      samples=10**4, threads=t),
            dict(_library("linforms_wide", "linforms_sum", **LINFORMS_WIDE),
                 fault="int64 wrap of the residue product in linear_forms_mixed_sum"),
        ]
    if workload == "weil_energy":
        q_cong = 10000019
        return [
            _campaign("weil", target="weil", seed=seed),
            _campaign("smoothing", target="smoothing", seed=seed),
            _campaign("lemma7", target="lemma7", group="energy", seed=seed),
            _campaign("lemma8", target="lemma8", group="energy", seed=seed),
            _campaign("lemma9", target="lemma9", group="energy", seed=seed),
            _library("cong_energy", "cong_energy", group="energy", q=q_cong,
                     M=rng.randrange(q_cong), N=3000, U=3000),
            _library("ff_box_energy", "ff_box_energy", group="energy", q=4093, n=2,
                     H=63, U=63),
            _library("linear_forms_energy", "linear_forms_energy", group="energy",
                     q=10007, matrix=[[1, 2], [3, 1]], H=50, U=50),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def replay_plan(workload: str, seed: int) -> list[dict]:
    """The campaigns of a round again at REPLAY_THREADS worker threads, or
    nothing when every campaign of the round already ran at that count."""
    campaigns = [op for op in plan(workload, seed) if op["kind"] == "campaign"]
    if all(op["args"].get("threads", 1) == REPLAY_THREADS for op in campaigns):
        return []
    return [dict(op, args=dict(op["args"], threads=REPLAY_THREADS)) for op in campaigns]
