"""Span tracing of charsumlab from outside the package.

`Recorder.install` wraps every public function and public method defined
in the layer modules, and rebinds each wrapped function in every
charsumlab namespace that imported it, so calls between modules and
inside a module both pass through the wrapper.  Each call records one
span: function id, start and end (ns), parent span and a work count.
Spans stay in memory until `save` writes them out; `layer_metrics` turns
a saved trace into the per-layer metrics.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np

LAYERS = ("campaigns", "modular", "characters", "ffield", "sums", "meanvalues",
          "energy", "cache", "reports")

_FIELDS = 6  # idx, fid, start, end, parent, work


def _size(x) -> int:
    return int(np.size(x))


def _units_below(U: int, q: int) -> int:
    return sum(1 for u in range(1, U + 1) if math.gcd(u, q) == 1)


# Work count of one call, from its positional arguments and result, for
# the functions whose per-layer metrics need more than a call count.  The
# argument positions are those the package itself uses.
WORK = {
    "characters.DirichletCharacter.value_many": lambda a, r: _size(a[1]),
    "characters.DirichletCharacter.angle_and_mask": lambda a, r: _size(a[1]),
    "characters.PrimeCharacter.angle_and_mask": lambda a, r: _size(a[1]),
    "ffield.FieldCharacter.value_many": lambda a, r: _size(a[1]),
    "ffield.FieldCharacter.angle_and_mask": lambda a, r: _size(a[1]),
    "ffield.build_field": lambda a, r: a[0] ** a[1],
    "sums.mixed_sum": lambda a, r: a[3],
    "sums.box_mixed_sum": lambda a, r: a[2] ** a[0].spec.n,
    "sums.multi_char_mixed_sum": lambda a, r: math.prod(a[3]),
    "sums.linear_forms_mixed_sum": lambda a, r: a[3] ** a[1].n,
    "sums.complete_rational_char_sum": lambda a, r: a[0].q,
    "sums.complete_rational_char_sum_field": lambda a, r: a[0].spec.size,
    "sums.pairwise_sum": lambda a, r: len(a[0]),
    "meanvalues.vinogradov_count_mitm": lambda a, r: a[0].V ** a[0].r,
    "meanvalues.vinogradov_count_naive": lambda a, r: a[0].V ** (2 * a[0].r),
    "energy.cong_energy": lambda a, r: a[2] * _units_below(a[3], a[0]),
    "energy.ff_box_energy": lambda a, r: (a[1] * a[2]) ** a[0].n,
    "energy.linear_forms_energy": lambda a, r: (a[2] * a[3]) ** a[1].n,
    "reports.VerificationReport.to_json_bytes": lambda a, r: len(r),
    "campaigns.run_campaign": lambda a, r: len(r.records),
}


class Recorder:
    """Collects spans from every thread of the process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array.array("q")
        self.field_keys: list = []      # (q, n, basis) of every build_field call
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._t0 = time.perf_counter_ns()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        keyed = name == "ffield.build_field"
        main_stack = self._main_stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        t0 = self._t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                # a worker-pool thread: its work was caused by whatever the
                # main thread is waiting in
                parent = main_stack[-1]
            else:
                parent = -1
            idx = next(ids)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.extend((idx, fid, start - t0, clock() - t0, parent, 0))
                raise
            finally:
                stack.pop()
            end = clock()
            count = work(args, result) if work is not None else 1
            if keyed:
                basis = kwargs.get("basis", args[2] if len(args) > 2 else None)
                self.field_keys.append(repr((args[0], args[1], basis)))
            spans.extend((idx, fid, start - t0, end - t0, parent, count))
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer modules' public callables in place."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"charsumlab.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            setattr(obj, mname,
                                    self._wrap(f"{layer}.{attr}.{mname}", meth))
        for modname, mod in list(sys.modules.items()):
            if modname == "charsumlab" or modname.startswith("charsumlab."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(mod, attr, replaced[obj])

    def save(self, directory: Path) -> None:
        spans = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)
        np.save(directory / "spans.npy", spans)
        (directory / "span_names.json").write_text(
            json.dumps({"names": self.names, "field_keys": self.field_keys}))


# ----------------------------------------------------------------------
# per-layer metrics from a saved trace

def _self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the union of its children's intervals (ns).

    Children of one parent overlap only when they ran on different
    threads; the union is taken over children sorted by start.
    """
    n = len(parent)
    dur = (end - start).astype(np.float64)
    kids = np.flatnonzero(parent >= 0)
    if len(kids) == 0:
        return dur
    order = kids[np.lexsort((start[kids], parent[kids]))]
    p = parent[order]
    new_group = np.r_[True, p[1:] != p[:-1]]
    span_len = int(end.max()) + 1
    offset = (np.cumsum(new_group) - 1) * span_len   # keeps groups apart
    s = start[order] + offset
    e = end[order] + offset
    reach = np.maximum.accumulate(e)
    before = np.r_[np.int64(-1), reach[:-1]]
    covered = np.clip(e - np.maximum(s, before), 0, None).astype(np.float64)
    cover = np.bincount(p, weights=covered, minlength=n)
    return np.clip(dur - cover, 0, None)


# groups of wrapped functions that one per-layer metric sums over
CHAR_EVAL = ("characters.DirichletCharacter.value", "characters.DirichletCharacter.value_many",
             "characters.DirichletCharacter.angle_and_mask", "characters.PrimeCharacter.value",
             "characters.PrimeCharacter.angle_and_mask", "characters.char_eval")
CHAR_BUILD = ("characters.crt_character", "characters.build_prime_character",
              "characters.enumerate_primitive_characters", "characters.principal_character",
              "characters.find_primitive_root")
FIELD_EVAL = ("ffield.FieldCharacter.value", "ffield.FieldCharacter.value_many",
              "ffield.FieldCharacter.angle_and_mask")
PHASE = ("sums.eval_fraction", "sums.eval_phase")
INCOMPLETE = ("sums.mixed_sum", "sums.box_mixed_sum", "sums.multi_char_mixed_sum",
              "sums.linear_forms_mixed_sum")
COMPLETE = ("sums.complete_rational_char_sum", "sums.complete_rational_char_sum_field")
TREE = ("sums.pairwise_sum",)
EXACT_W = ("meanvalues.exact_W_squarefree", "meanvalues.exact_W_multichar",
           "meanvalues.exact_W_field")
JCOUNT = ("meanvalues.vinogradov_count_mitm", "meanvalues.vinogradov_count_naive")
CACHE_IO = ("cache.read_jcounts", "cache.write_jcounts", "cache.cache_ls",
            "cache.cache_clear", "cache.cache_dir", "cache.cache_file")
ENERGY = ("energy.cong_energy", "energy.ff_box_energy", "energy.linear_forms_energy",
          "energy.EnergyInstance.count")

COUNT, SECONDS, RATIO = "count", "s", "ratio"

# (name, unit) of every per-layer metric, in print order
PER_LAYER = (
    ("campaigns.self_s", SECONDS), ("campaigns.instances", COUNT),
    ("modular.factor_calls", COUNT), ("modular.factor_s", SECONDS),
    ("characters.built", COUNT), ("characters.build_s", SECONDS),
    ("characters.eval_calls", COUNT), ("characters.eval_points", COUNT),
    ("characters.eval_s", SECONDS),
    ("ffield.builds", COUNT), ("ffield.builds_distinct", COUNT),
    ("ffield.distinct_ratio", RATIO), ("ffield.elements_built", COUNT),
    ("ffield.build_s", SECONDS), ("ffield.eval_points", COUNT), ("ffield.eval_s", SECONDS),
    ("sums.phase_points", COUNT), ("sums.phase_s", SECONDS),
    ("sums.incomplete_calls", COUNT), ("sums.incomplete_terms", COUNT),
    ("sums.incomplete_s", SECONDS),
    ("sums.complete_calls", COUNT), ("sums.complete_terms", COUNT),
    ("sums.complete_s", SECONDS),
    ("sums.tree_calls", COUNT), ("sums.tree_values", COUNT), ("sums.tree_s", SECONDS),
    ("meanvalues.W_calls", COUNT), ("meanvalues.W_complete_sums", COUNT),
    ("meanvalues.W_s", SECONDS), ("meanvalues.W_self_s", SECONDS),
    ("meanvalues.jcount_calls", COUNT), ("meanvalues.jcount_keys", COUNT),
    ("meanvalues.jcount_s", SECONDS),
    ("cache.gets", COUNT), ("cache.misses", COUNT), ("cache.hit_ratio", RATIO),
    ("cache.io_s", SECONDS),
    ("energy.calls", COUNT), ("energy.products", COUNT), ("energy.s", SECONDS),
    ("reports.bytes", COUNT), ("reports.serialize_s", SECONDS),
    ("traced.spans", COUNT), ("traced.wall_s", SECONDS),
)


def layer_metrics(directory: Path, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the trace saved in `directory`."""
    spans = np.load(directory / "spans.npy")
    meta = json.loads((directory / "span_names.json").read_text())
    names = meta["names"]
    spans = spans[np.argsort(spans[:, 0])]
    if len(spans) and not np.array_equal(spans[:, 0], np.arange(len(spans))):
        raise RuntimeError("trace has gaps in its span ids")
    fid, start, end, parent, work = (spans[:, k] for k in range(1, 6))
    self_ns = _self_times(parent, start, end)
    dur_ns = (end - start).astype(np.float64)
    by_name = {name: i for i, name in enumerate(names)}

    def member(group) -> np.ndarray:
        ids = [by_name[n] for n in group if n in by_name]
        return np.isin(fid, ids)

    def outermost(mask: np.ndarray) -> np.ndarray:
        """Spans of the group whose parent is not in the group."""
        has_parent = parent >= 0
        parent_in = np.zeros(len(mask), dtype=bool)
        parent_in[has_parent] = mask[parent[has_parent]]
        return mask & ~parent_in

    def secs(values_ns, mask) -> float:
        return float(values_ns[mask].sum()) / 1e9

    def count(mask) -> int:
        return int(mask.sum())

    def work_of(mask) -> int:
        return int(work[mask].sum())

    def layer(prefix: str) -> np.ndarray:
        return member([n for n in names if n.startswith(prefix + ".")])

    campaigns = layer("campaigns")
    run_campaign = member(("campaigns.run_campaign",))
    factor = outermost(member(("modular.factor_squarefree",)))
    built = member(("characters.crt_character",))
    char_build = member(CHAR_BUILD)
    char_eval = member(CHAR_EVAL)
    builds = member(("ffield.build_field",))
    field_eval = member(FIELD_EVAL)
    phase = member(PHASE)
    fraction = member(("sums.eval_fraction",))
    incomplete = member(INCOMPLETE)
    complete = member(COMPLETE)
    tree = member(TREE)
    exact_w = member(EXACT_W)
    jcount = member(JCOUNT)
    gets = member(("cache.get_j_count",))
    cache_io = member(CACHE_IO)
    energy = member(ENERGY)
    reports_layer = layer("reports")
    to_json = member(("reports.VerificationReport.to_json_bytes",))

    # complete sums that run under an exact-W span, at any depth
    w_sums = 0
    for i in np.flatnonzero(complete):
        p = parent[i]
        while p >= 0 and not exact_w[p]:
            p = parent[p]
        w_sums += p >= 0
    missed = np.zeros(len(fid), dtype=bool)
    mitm = member(("meanvalues.vinogradov_count_mitm",))
    kids_of_gets = mitm & (parent >= 0)
    missed[parent[kids_of_gets]] = True
    n_gets = count(gets)
    n_misses = count(gets & missed)
    n_builds = count(builds)
    distinct = len(set(meta["field_keys"]))

    return {
        "campaigns.self_s": secs(self_ns, campaigns),
        "campaigns.instances": work_of(run_campaign),
        "modular.factor_calls": count(factor),
        "modular.factor_s": secs(dur_ns, factor),
        "characters.built": count(built),
        "characters.build_s": secs(self_ns, char_build),
        "characters.eval_calls": count(outermost(char_eval)),
        "characters.eval_points": work_of(outermost(char_eval)),
        "characters.eval_s": secs(self_ns, char_eval),
        "ffield.builds": n_builds,
        "ffield.builds_distinct": distinct,
        "ffield.distinct_ratio": distinct / n_builds if n_builds else 0.0,
        "ffield.elements_built": work_of(builds),
        "ffield.build_s": secs(dur_ns, outermost(builds)),
        "ffield.eval_points": work_of(outermost(field_eval)),
        "ffield.eval_s": secs(self_ns, field_eval),
        "sums.phase_points": count(fraction),
        "sums.phase_s": secs(self_ns, phase),
        "sums.incomplete_calls": count(incomplete),
        "sums.incomplete_terms": work_of(incomplete),
        "sums.incomplete_s": secs(self_ns, incomplete),
        "sums.complete_calls": count(complete),
        "sums.complete_terms": work_of(complete),
        "sums.complete_s": secs(self_ns, complete),
        "sums.tree_calls": count(outermost(tree)),
        "sums.tree_values": work_of(outermost(tree)),
        "sums.tree_s": secs(self_ns, tree),
        "meanvalues.W_calls": count(exact_w),
        "meanvalues.W_complete_sums": int(w_sums),
        "meanvalues.W_s": secs(dur_ns, outermost(exact_w)),
        "meanvalues.W_self_s": secs(self_ns, exact_w),
        "meanvalues.jcount_calls": count(jcount),
        "meanvalues.jcount_keys": work_of(jcount),
        "meanvalues.jcount_s": secs(self_ns, jcount),
        "cache.gets": n_gets,
        "cache.misses": n_misses,
        "cache.hit_ratio": (n_gets - n_misses) / n_gets if n_gets else 0.0,
        "cache.io_s": secs(self_ns, cache_io),
        "energy.calls": count(outermost(energy)),
        "energy.products": work_of(outermost(energy)),
        "energy.s": secs(self_ns, energy),
        "reports.bytes": work_of(to_json),
        "reports.serialize_s": secs(self_ns, reports_layer),
        "traced.spans": len(fid),
        "traced.wall_s": traced_wall_s,
    }
