#!/usr/bin/env python3
"""Run verification campaigns and read their reports.

Campaigns sample instances deterministically from a seed, compare the
measured sum against the bound's main term, and assemble a JSON-stable
report.  The pass flag reflects the unconditional sanity bound plus any
configured (or frozen) ratio threshold; theorem constants are never
guessed.
"""

import json

from charsumlab.campaigns import CampaignConfig, compare_exponents, run_campaign

print("== squarefree-modulus campaign, degree 2, r_d = 5 ==")
cfg = CampaignConfig(target="thm1", seed=42, d=2, r_d=5, q_max=300,
                     samples=4, chars_per_modulus=2, diagnostics=True)
report = run_campaign(cfg)
print(f"records: {len(report.records)}   passed: {report.passed}")
for rec in report.records[:3]:
    print(f"  q = {rec['q']:3d}  chi = {rec['char_indices']}  N = {rec['N']:3d}"
          f"  |S| = {rec['lhs']:.3f}  main term = {rec['rhs']:.3f}"
          f"  ratio = {rec['ratio']:.4f}")
rec = report.records[0]
print("proof-internal diagnostics for the first instance:")
print(f"  U = {rec['diag_U']}, V = {rec['diag_V']},"
      f" sum I = {rec['diag_I_sum']}, sum I^2 = {rec['diag_I_sq_sum']},"
      f" W(alpha=0) = {rec['diag_W_alpha0']:.2f}")
print(f"  phi-weighted W1 = {rec['diag_W1_phi_weighted']:.2f}"
      f"  vs mean-value main term {rec['diag_lemma3_rhs']:.2f}")

print("\n== the complete-sum bound, exhaustively ==")
weil = run_campaign(CampaignConfig(target="weil", seed=0, q_max=61))
agg = weil.aggregate
print(f"characters checked: {agg['instances']}   violations: {agg['total_violations']}"
      f"   max |sum|/bound: {agg['max_ratio']:.4f}")

print("\n== mean-value ratio regression (frozen sweep) ==")
lem = run_campaign(CampaignConfig(target="lemma3", seed=0, V_list=(4, 12, 20)))
print(f"max ratio {lem.aggregate['max_ratio']:.4f} vs frozen threshold "
      f"{lem.aggregate['threshold']:.4f}: passed = {lem.passed}")

print("\n== exponent comparison at N = q^0.3 ==")
table = compare_exponents(N=10**3, q=10**10, d=2, r=5, delta=0.05)
print(json.dumps(table, indent=2, sort_keys=True))

print("\nreports serialize to byte-stable JSON; rerunning with the same seed")
again = run_campaign(CampaignConfig(target="weil", seed=0, q_max=61))
print(f"byte-identical rerun: {weil.to_json_bytes() == again.to_json_bytes()}")
