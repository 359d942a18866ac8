"""End-to-end and per-layer benchmark of charsumlab.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; the program is imported from ./src.
Each round of a workload runs in a fresh interpreter (perfbench/worker.py)
with CSL_CACHE_DIR pointing at a fresh, empty directory.  Rounds repeat
until they have measured S seconds, and at least two run, because the
determinism check compares every round's report bytes with the first's.
Campaigns that ran with several worker threads are replayed at one
thread, and must write the same bytes.  The outputs of the first round
are checked against the benchmark's own computations (perfbench/checks.py).

Timings are medians over the rounds.  The timed end-to-end metrics are
in units of a fixed reference computation timed around every operation
(worker.reference_s), so that the host's changing speed cancels.

--trace 0 prints the end-to-end metrics; --trace 1 runs one traced round
and prints the per-layer metrics.  Log lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  `--workload all` runs every workload both ways.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES_PER_ROUND = 4
MIN_ROUNDS = 2
WORKER_TIMEOUT_S = 150


def _env(root: Path, cache_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if cache_dir is not None:
        env["CSL_CACHE_DIR"] = str(cache_dir)
    return env


def measure_setup(root: Path, samples: int) -> list[float]:
    """Times from starting an interpreter until charsumlab is imported."""
    code = "import charsumlab, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=root, env=_env(root),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"importing charsumlab failed:\n{err}")
        times.append(elapsed)
    return times


def run_worker(root: Path, workload: str, seed: int, out: Path, *flags: str) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), *flags]
    proc = subprocess.run(cmd, cwd=root, env=_env(root, out / "cache"),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(flags) or 'round'} of {workload} failed:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads((out / "result.json").read_text())


def check_first_round(plan: list[dict], result: dict, out: Path) -> tuple[list[bool], list[str]]:
    """(failed flag per operation, problems that make the run incorrect)."""
    failed, problems = [], []
    for op, res in zip(plan, result["ops"]):
        if res["error"] is not None:
            failed.append(True)
            print(f"  {op['name']}: raised\n{res['error']}", flush=True)
            continue
        found = checks.check_op(op, res["value"], out / f"{op['name']}.json")
        failed.append(bool(found) and "fault" in op)
        for text in found:
            print(f"  {op['name']}: {'FAILED' if 'fault' in op else 'WRONG'} {text}",
                  flush=True)
        if "fault" not in op:
            problems += found
    return failed, problems


def compare_reports(plan: list[dict], first: Path, other: Path, label: str) -> list[str]:
    """Campaign reports must be byte-identical; an operation that raised
    writes none, and is counted as failed where it ran."""
    problems = []
    for op in plan:
        if op["kind"] == "campaign":
            a, b = first / f"{op['name']}.json", other / f"{op['name']}.json"
            if a.exists() != b.exists():
                problems.append(f"{op['name']}: report written in only one of the runs ({label})")
            elif a.exists() and a.read_bytes() != b.read_bytes():
                problems.append(f"{op['name']}: report bytes differ in {label}")
    return problems


def later_round(plan, first_res, first_failed, res, first_dir, out, label):
    """A later round with the same seed must repeat the first exactly."""
    failed, problems = [], compare_reports(plan, first_dir, out, label)
    for op, r0, r, f0 in zip(plan, first_res["ops"], res["ops"], first_failed):
        failed.append(r["error"] is not None or f0)
        if r["error"] is None and r["value"] != r0["value"]:
            problems.append(f"{op['name']}: result differs in {label}")
    return failed, problems


def _median_of(rounds: list[dict], key) -> float:
    return statistics.median(key(r) for r in rounds)


def wall_s(res: dict) -> float:
    return sum(o["seconds"] for o in res["ops"])


def relative(res: dict) -> list[float]:
    """Each operation's time over the mean reference time around it."""
    ref = res["reference_s"]
    return [o["seconds"] * 2 / (ref[i] + ref[i + 1]) for i, o in enumerate(res["ops"])]


def run_workload(root: Path, work: Path, workload: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    plan = workloads.plan(workload, seed)
    print(f"perfbench: workload={workload} seed={seed} trace={int(trace)}", flush=True)
    metrics: dict[str, dict] = {}
    if not trace:
        measure_setup(root, 1)  # untimed: compiles the bytecode, as any first use does
    setup = []
    rounds, failed, problems = [], [], []
    while True:
        k = len(rounds) + 1
        if not trace:  # spread over the run, so one slow moment cannot set the median
            setup += measure_setup(root, SETUP_SAMPLES_PER_ROUND)
        out = work / f"round{k}"
        res = run_worker(root, workload, seed, out, *(["--trace"] if trace else []))
        if k == 1:
            first_failed, found = check_first_round(plan, res, out)
            round_failed = first_failed
        else:
            round_failed, found = later_round(plan, rounds[0], first_failed, res,
                                              work / "round1", out, f"round {k}")
        rounds.append(res)
        failed += round_failed
        problems += found
        measured = sum(wall_s(r) for r in rounds)
        if trace or (k >= MIN_ROUNDS and measured >= seconds):
            break

    replay = workloads.replay_plan(workload, seed)
    if replay and not trace:
        out = work / "replay"
        res = run_worker(root, workload, seed, out, "--replay")
        problems += [f"{op['name']}: replay raised" for op, r in zip(replay, res["ops"])
                     if r["error"] is not None]
        problems += compare_reports(replay, work / "round1", out,
                                    f"the replay at {workloads.REPLAY_THREADS} thread(s)")

    def median_sum(select, scale) -> float:
        """Median over rounds of the summed times of the selected operations."""
        return _median_of(rounds, lambda r: sum(
            t for op, t in zip(plan, scale(r)) if select(op)))

    def seconds(r):
        return [o["seconds"] for o in r["ops"]]

    for op in plan:
        print(f"  op {op['name']:<22} {op['kind']:<8}"
              f" {median_sum(lambda o: o is op, seconds):9.4f} s"
              f" {median_sum(lambda o: o is op, relative):9.3f} ref", flush=True)
    for group in dict.fromkeys(op["group"] for op in plan):
        if sum(op["group"] == group for op in plan) > 1:
            print(f"  op group {group}_s {median_sum(lambda o: o['group'] == group, seconds):.4f} s"
                  f" {median_sum(lambda o: o['group'] == group, relative):.3f} ref", flush=True)
    print(f"  wall {median_sum(lambda o: True, seconds):.4f} s, reference computation "
          f"{statistics.median(t for r in rounds for t in r['reference_s']):.4f} s", flush=True)

    if trace:
        layer = tracer.layer_metrics(work / "round1", wall_s(rounds[0]))
        for name, unit in tracer.PER_LAYER:
            metrics[name] = {"value": layer[name], "unit": unit}
    else:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["wall_rel"] = {"value": median_sum(lambda o: True, relative), "unit": "ref"}
        metrics["campaign_rel"] = {"value": median_sum(lambda o: o["kind"] == "campaign",
                                                       relative), "unit": "ref"}
        metrics["peak_rss_mb"] = {"value": _median_of(rounds, lambda r: r["peak_rss_mb"]),
                                  "unit": "MB"}
    for name, m in metrics.items():
        print(f"  metric {name} = {m['value']} {m['unit']}", flush=True)
    for text in problems:
        print(f"  WRONG {text}", flush=True)
    result = {"correct": not problems, "attempted": len(rounds) * len(plan),
              "failed": sum(failed), "metrics": metrics}
    print(f"  rounds={len(rounds)} attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}", flush=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "charsumlab" / "__init__.py").is_file():
        print(f"perfbench: no charsumlab sources under {root / 'src'}; run from the root "
              "of a charsumlab checkout", file=sys.stderr)
        return 2
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        if args.workload != "all":
            result = run_workload(root, work, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
            print(json.dumps(result))
            return 0
        summary = {}
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                sub = work / f"{name}-trace{int(trace)}"
                sub.mkdir()
                summary[f"{name}/trace{int(trace)}"] = run_workload(
                    root, sub, name, args.seed, args.seconds, trace)
        print(json.dumps(summary))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
