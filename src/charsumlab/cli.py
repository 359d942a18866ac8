"""Command line interface.

Global flags (--seed, --out, --csv, --budget, --override-hypotheses)
come before the subcommand:

    csl --seed 7 verify thm1 --r-d 5 --d 2
    csl jcount --r 2 --d 2 --V 10
    csl energy cong --q 101 --N 9 --U 9
    csl factor 4199
    csl char eval --q 15 --indices 1,2 --n 7
    csl compare-exponents --N 1000 --q 100003 --d 2 --r 5 --delta 0.05
    csl cache ls
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import cache as cachemod
from .campaigns import CAMPAIGNS, CampaignConfig, compare_exponents, run_campaign
from .characters import crt_character
from .energy import cong_energy, ff_box_energy, linear_forms_energy
from .errors import CharSumLabError
from .ffield import build_field
from .modular import factor_squarefree
from .sums import LinearSystem


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _square_matrix(entries: list[int], what: str) -> tuple[tuple[int, ...], ...]:
    n = int(round(len(entries) ** 0.5))
    if n * n != len(entries):
        raise CharSumLabError(f"{what} must have n*n entries")
    return tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csl", description="mixed character sum laboratory")
    parser.add_argument("--seed", type=int, default=CampaignConfig.seed,
                        help="campaign seed (u64)")
    parser.add_argument("--out", type=str, default=None, help="JSON report path")
    parser.add_argument("--csv", type=str, default=None, help="CSV report path")
    parser.add_argument("--budget", type=int, default=CampaignConfig.budget,
                        help="enumeration budget in tuple operations")
    parser.add_argument("--override-hypotheses", action="store_true",
                        help="run sweeps outside the stated lemma hypotheses")
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor a squarefree modulus")
    p_factor.add_argument("q", type=int)

    p_char = sub.add_parser("char", help="character operations")
    char_sub = p_char.add_subparsers(dest="char_command", required=True)
    p_eval = char_sub.add_parser("eval", help="evaluate a character")
    p_eval.add_argument("--q", type=int, required=True)
    p_eval.add_argument("--indices", type=_int_list, required=True,
                        help="comma-separated index per prime factor")
    p_eval.add_argument("--n", type=int, required=True)

    p_j = sub.add_parser("jcount", help="Vinogradov system count")
    p_j.add_argument("--r", type=int, required=True)
    p_j.add_argument("--d", type=int, required=True)
    p_j.add_argument("--V", type=int, required=True)
    p_j.add_argument("--no-cache", action="store_true")

    p_energy = sub.add_parser("energy", help="multiplicative energy counts")
    energy_sub = p_energy.add_subparsers(dest="energy_command", required=True)
    p_cong = energy_sub.add_parser("cong")
    p_cong.add_argument("--q", type=int, required=True)
    p_cong.add_argument("--M", type=int, default=0)
    p_cong.add_argument("--N", type=int, required=True)
    p_cong.add_argument("--U", type=int, required=True)
    p_ffbox = energy_sub.add_parser("ffbox")
    p_ffbox.add_argument("--q", type=int, required=True)
    p_ffbox.add_argument("--n", type=int, required=True)
    p_ffbox.add_argument("--H", type=int, required=True)
    p_ffbox.add_argument("--U", type=int, required=True)
    p_lin = energy_sub.add_parser("linforms")
    p_lin.add_argument("--q", type=int, required=True)
    p_lin.add_argument("--matrix", type=_int_list, required=True,
                       help="row-major n*n integer entries")
    p_lin.add_argument("--H", type=int, required=True)
    p_lin.add_argument("--U", type=int, required=True)

    # unset flags stay out of the namespace, so CampaignConfig holds the defaults
    p_verify = sub.add_parser("verify", help="run a verification campaign",
                              argument_default=argparse.SUPPRESS)
    p_verify.add_argument("target", choices=[t for t in CAMPAIGNS if t != "compare"])
    p_verify.add_argument("--d", type=int)
    p_verify.add_argument("--r", type=int)
    p_verify.add_argument("--r-d", dest="r_d", type=int)
    p_verify.add_argument("--s", type=int)
    p_verify.add_argument("--q-min", type=int)
    p_verify.add_argument("--q-max", type=int)
    p_verify.add_argument("--field-max", type=int)
    p_verify.add_argument("--samples", type=int)
    p_verify.add_argument("--chars-per-modulus", type=int)
    p_verify.add_argument("--V-list", dest="V_list", type=_int_list)
    p_verify.add_argument("--V-phi", dest="V_phi", type=int)
    p_verify.add_argument("--tuple-cap", type=int)
    p_verify.add_argument("--grid", type=int)
    p_verify.add_argument("--constant", type=float,
                          help="pass threshold on the max LHS/RHS ratio")
    p_verify.add_argument("--slack", type=float)
    p_verify.add_argument("--threads", type=int)
    p_verify.add_argument("--use-cache", action="store_true")
    p_verify.add_argument("--diagnostics", action="store_true")
    p_verify.add_argument("--basis", type=_int_list,
                          help="row-major n*n working-basis matrix for field targets")

    p_cmp = sub.add_parser("compare-exponents", help="exponent comparison table")
    p_cmp.add_argument("--N", type=int, required=True)
    p_cmp.add_argument("--q", type=int, required=True)
    p_cmp.add_argument("--d", type=int, required=True)
    p_cmp.add_argument("--r", type=int, required=True)
    p_cmp.add_argument("--delta", type=float, default=0.05)

    p_cache = sub.add_parser("cache", help="J-count cache maintenance")
    p_cache.add_argument("cache_command", choices=("ls", "clear"))

    return parser


def _cmd_factor(args) -> int:
    m = factor_squarefree(args.q)
    _print_json({"q": m.q, "primes": list(m.primes)})
    return 0


def _cmd_char_eval(args) -> int:
    m = factor_squarefree(args.q)
    chi = crt_character(m, args.indices)
    value = chi.value(args.n)
    _print_json({"q": args.q, "indices": args.indices, "n": args.n,
                 "value_re": value.real, "value_im": value.imag,
                 "primitive": chi.is_primitive, "order": chi.order})
    return 0


def _cmd_jcount(args) -> int:
    count = cachemod.get_j_count(args.r, args.d, args.V, budget=args.budget,
                                 use_cache=not args.no_cache)
    _print_json({"r": args.r, "d": args.d, "V": args.V, "count": count})
    return 0


def _cmd_energy(args) -> int:
    if args.energy_command == "cong":
        count = cong_energy(args.q, args.M, args.N, args.U,
                            override_hypotheses=args.override_hypotheses)
        payload = {"variant": "cong", "q": args.q, "M": args.M, "N": args.N,
                   "U": args.U, "count": count}
    elif args.energy_command == "ffbox":
        spec = build_field(args.q, args.n)
        count = ff_box_energy(spec, args.H, args.U,
                              override_hypotheses=args.override_hypotheses)
        payload = {"variant": "ffbox", "q": args.q, "n": args.n, "H": args.H,
                   "U": args.U, "count": count}
    else:
        entries = args.matrix
        L = LinearSystem(_square_matrix(entries, "matrix"))
        count = linear_forms_energy(args.q, L, args.H, args.U,
                                    override_hypotheses=args.override_hypotheses)
        payload = {"variant": "linforms", "q": args.q, "matrix": entries,
                   "H": args.H, "U": args.U, "count": count}
    _print_json(payload)
    return 0


def _cmd_verify(args) -> int:
    fields = {f.name for f in dataclasses.fields(CampaignConfig)}
    settings = {key: value for key, value in vars(args).items() if key in fields}
    if "V_list" in settings:
        settings["V_list"] = tuple(settings["V_list"]) or None
    if "basis" in settings:
        settings["basis"] = _square_matrix(settings["basis"], "basis") or None
    cfg = CampaignConfig(**settings)
    report = run_campaign(cfg)
    agg = report.aggregate
    print(f"target={cfg.target} records={len(report.records)} "
          f"max_ratio={agg.get('max_ratio')} passed={report.passed}")
    if args.out:
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


def _cmd_compare(args) -> int:
    table = compare_exponents(args.N, args.q, args.d, args.r, args.delta)
    _print_json(table)
    return 0


def _cmd_cache(args) -> int:
    if args.cache_command == "ls":
        entries = cachemod.cache_ls()
        _print_json({"path": str(cachemod.cache_file()),
                     "entries": [{"r": k[0], "d": k[1], "V": k[2], "count": v}
                                 for k, v in entries]})
    else:
        removed = cachemod.cache_clear()
        _print_json({"path": str(cachemod.cache_file()), "removed": removed})
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "factor":
            return _cmd_factor(args)
        if args.command == "char":
            return _cmd_char_eval(args)
        if args.command == "jcount":
            return _cmd_jcount(args)
        if args.command == "energy":
            return _cmd_energy(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "compare-exponents":
            return _cmd_compare(args)
        if args.command == "cache":
            return _cmd_cache(args)
    except (CharSumLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
