"""Run one round of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--replay] [--trace]

Runs the round's operations back to back through the package's public
entry points, timing each from outside, and times a fixed reference
computation before the first and after every operation.  Writes each
campaign's JSON report to DIR (as `csl --out` does) and the round's
results to DIR/result.json.  With --trace the layer modules are wrapped first and
the spans are saved to DIR.  Only the process's own work is measured:
checks of the outputs run elsewhere.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path

import numpy as np

import workloads


def reference_s() -> float:
    """Time of a fixed computation that does not touch charsumlab: integer
    arithmetic in the interpreter and numpy array work in about equal
    shares, on arrays small enough not to raise the peak memory."""
    start = time.perf_counter()
    x = 1
    for i in range(400_000):
        x = (x * 48271 + i) % 2147483647
    a = np.arange(20_000, dtype=np.int64)
    for k in range(60):
        b = (a * (2654435761 + k)) % 1000003
        b.sort()
        np.exp(2j * np.pi * (b / 1000003.0)).sum()
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident memory of this process's program.

    On Linux ru_maxrss also counts what the parent held when it forked
    this process, so the high-water mark of the process's own memory map
    is read instead where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _library_call(call: str, a: dict):
    from charsumlab.cache import get_j_count
    from charsumlab.characters import crt_character
    from charsumlab.energy import cong_energy, ff_box_energy, linear_forms_energy
    from charsumlab.ffield import build_field
    from charsumlab.modular import factor_squarefree
    from charsumlab.sums import LinearSystem, RealPolynomial, linear_forms_mixed_sum

    if call == "jcount":
        return get_j_count(a["r"], a["d"], a["V"], use_cache=True)
    if call == "linforms_sum":
        chi = crt_character(factor_squarefree(a["q"]), a["indices"])
        L = LinearSystem(tuple(tuple(row) for row in a["matrix"]))
        F = RealPolynomial.from_terms(L.n, {tuple(e): c for e, c in a["poly"]})
        s = linear_forms_mixed_sum(chi, L, F, a["H"])
        return [s.real, s.imag]
    if call == "cong_energy":
        return cong_energy(a["q"], a["M"], a["N"], a["U"])
    if call == "ff_box_energy":
        spec = build_field(a["q"], a["n"])
        return {"count": ff_box_energy(spec, a["H"], a["U"]), "modpoly": list(spec.modpoly)}
    if call == "linear_forms_energy":
        L = LinearSystem(tuple(tuple(row) for row in a["matrix"]))
        return linear_forms_energy(a["q"], L, a["H"], a["U"])
    raise ValueError(f"unknown library call {call!r}")


def _campaign(args: dict, out: Path):
    from charsumlab.campaigns import CampaignConfig, run_campaign

    report = run_campaign(CampaignConfig(**args, out=str(out)))
    # the weil campaign adds total_violations after its report is written
    return {"passed": bool(report.passed),
            "total_violations": report.aggregate.get("total_violations")}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--replay", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    recorder = None
    if args.trace:
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
    import charsumlab  # noqa: F401  (import time is setup_s, not the first operation's)

    ops = (workloads.replay_plan if args.replay else workloads.plan)(args.workload, args.seed)
    results = []
    refs = [reference_s()]
    for op in ops:
        report = args.out / f"{op['name']}.json"
        start = time.perf_counter()
        try:
            if op["kind"] == "campaign":
                value = _campaign(op["args"], report)
            else:
                value = _library_call(op["call"], op["args"])
            error = None
        except Exception:  # recorded as a failed operation, never fatal
            value, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        results.append({"name": op["name"], "seconds": seconds, "value": value,
                        "error": error})
        refs.append(reference_s())
    peak_mb = peak_rss_mb()
    if recorder is not None:
        recorder.save(args.out)
    (args.out / "result.json").write_text(json.dumps(
        {"ops": results, "reference_s": refs, "peak_rss_mb": peak_mb}))


if __name__ == "__main__":
    main()
