"""Frozen ratio thresholds for the regression campaigns.

The numbers below were produced by one calibration run of the committed
default sweeps (see campaigns.LEMMA*_ sweep constants) on this exact
code path, then rounded up by half a percent so platform-level floating
point wiggle cannot flip a regression.  Re-derive them with
``calibrate_thresholds`` and compare before changing anything.
"""

from __future__ import annotations

HEADROOM = 1.005

# target -> frozen max LHS/RHS-main-term ratio (with headroom applied);
# measured values: lemma3 1.4960301483568283, lemma5 1.5976521547010911,
# lemma6 1.8916437642153145, lemma7 3.7783558792924037,
# lemma8 1.2426698691192237, lemma9 14.275973150583473
FROZEN_RATIO_THRESHOLDS: dict[str, float] = {
    "lemma3": 1.4960301483568283 * HEADROOM,
    "lemma5": 1.5976521547010911 * HEADROOM,
    "lemma6": 1.8916437642153145 * HEADROOM,
    "lemma7": 3.7783558792924037 * HEADROOM,
    "lemma8": 1.2426698691192237 * HEADROOM,
    "lemma9": 14.275973150583473 * HEADROOM,
}

# the sweep those ratios were measured on: calibrate_thresholds runs every
# target at its defaults, so lemma3, lemma5 and lemma6 ran at r = d = 2 over
# every V of campaigns.DEFAULT_V_SWEEP; lemma7..lemma9 sweeps are fixed
SWEEP_R = 2
SWEEP_D = 2


def calibrate_thresholds(targets=("lemma3", "lemma5", "lemma6", "lemma7",
                                  "lemma8", "lemma9"), seed: int = 0) -> dict:
    """Measure the max ratio of each default sweep at the current code."""
    from .campaigns import CampaignConfig, run_campaign

    out = {}
    for target in targets:
        cfg = CampaignConfig(target=target, seed=seed, constant=float("inf"))
        report = run_campaign(cfg)
        out[target] = report.aggregate.get("max_ratio")
    return out
