"""Command-line harness for permutation-inversion experiments.

Subcommands: gen-perm, run-inv, run-avinv, check-lemmas, test-stages, sweep,
params. Exit codes: 0 success, 1 failed validation or failed bound/stage,
2 usage errors. QPERMINV_OUT_DIR overrides the output directory.

Flag values are checked before any work, by the rules of the sweep config's
keys: --n an even integer in [2, 16] (params has its own), --seed, --j-seed
integers >= 0, --master-seed and check-lemmas' --seed integers in [0, 2^64),
--mask and --bad-size integers >= 0, --count an integer in [1, 10^6],
--threshold, --a, --b and --r finite numbers. --k's least value depends on
the command; --workers is accepted and ignored. Every fault prints one line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .analysis import compute_params, sample_xs
from .harness import (
    _GRID_RULES,
    _SWEEP_RULES,
    _at_least,
    atomic_write_text,
    derive_seed,
    lemma_battery,
    load_sweep_config,
    resolve_out_dir,
    run_batch,
    run_reports_to_csv,
    sweep_rows,
    sweep_to_csv,
    write_manifest,
)
from .invert import EXACT_THRESHOLD, PSEUDO_THRESHOLD, run_stepwise_test
from .ops import ANGLE_MODES, BAD_MODES, _bad_fraction, build_pseudo_identity, parse_pseudo_identity
from .perm import FAMILIES, _read_input, build_permutation, load_permutation, permutation_to_text


_FINITE = (math.isfinite, "a finite number")
# flag dest -> (test, rule) of its value, the pairs of the sweep-config keys
# of the same meaning; a flag is checked wherever it is given, read or not
_FLAG_RULES = {
    "n": _GRID_RULES["n"], "seed": _SWEEP_RULES["perm_seed"], "j_seed": _SWEEP_RULES["j_seed"],
    "master_seed": _SWEEP_RULES["master_seed"], "mask": _at_least(0),
    "bad_size": _GRID_RULES["bad_size"],
    "count": (lambda v: 1 <= v <= 10**6, "an integer in [1, 1000000]"),
    "threshold": _FINITE, "a": _FINITE, "b": _FINITE, "r": _FINITE,
}
# check-lemmas' --seed is the battery's master seed; params' --n keeps
# compute_params' own rule
_COMMAND_RULES = {
    "check-lemmas": {"seed": _SWEEP_RULES["master_seed"], "k": (lambda v: v >= 1, "at least 1")},
    "params": {"n": None},
}


def _flag_error(args) -> str | None:
    """The message for the first flag whose value breaks its rule, if any."""
    rules = {**_FLAG_RULES, **_COMMAND_RULES.get(args.command, {})}
    for dest, value in vars(args).items():
        rule = rules.get(dest)
        if rule and value is not None and not rule[0](value):
            return f"--{dest.replace('_', '-')} must be {rule[1]}, got {value}"
    return None


def _add_perm_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--perm-file", help="load the permutation from a file")
    parser.add_argument("--family", choices=FAMILIES, help="built-in permutation family")
    parser.add_argument("--n", type=int, help="bit length (even)")
    parser.add_argument("--seed", type=int, help="permutation seed")
    parser.add_argument("--mask", type=int, help="xor-mask parameter")


def _add_operator_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=float, default=0.0)
    parser.add_argument("--b", type=float, default=0.0)
    parser.add_argument("--bad-size", type=int)
    parser.add_argument("--bad-mode", choices=BAD_MODES, default="full-rotation")
    parser.add_argument("--angle-mode", choices=ANGLE_MODES, default="worst-case")
    parser.add_argument("--j-seed", type=int)
    parser.add_argument("--j-file", help="load the pseudo-identity from a serialized file")


def _resolve_perm(args):
    if args.perm_file and args.family:
        raise UsageError("give either --perm-file or --family, not both")
    if args.perm_file:
        return load_permutation(args.perm_file)
    if not args.family:
        raise UsageError("a permutation source is required (--perm-file or --family)")
    if args.n is None:
        raise UsageError("--family requires --n")
    return build_permutation(args.family, args.n, seed=args.seed, mask=args.mask)


def _resolve_xs(selector: str, n: int, master_seed: int):
    if selector == "all":
        return np.arange(1 << n)
    sample = selector.startswith("sample:")
    tokens = [selector.removeprefix("sample:")] if sample else selector.split(",")
    try:
        xs = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise UsageError(f"cannot parse --x value {selector!r}") from exc
    if sample:
        if xs[0] < 1:
            raise UsageError("sample count must be positive")
        return sample_xs(n, xs[0], derive_seed(master_seed, f"xs/n={n}"))
    if any(not 0 <= x < (1 << n) for x in xs):
        raise UsageError("--x value out of range")
    return sorted(set(xs))


class UsageError(Exception):
    """A bad flag or combination of flags: exit 2."""


def _resolve_pseudo_identity(args, n: int):
    """Operator from a serialized file when given, else built from the flags."""
    if args.j_file:
        jop = parse_pseudo_identity(_read_input(args.j_file))
        if jop.n != n:
            raise ValueError(f"operator file is for n={jop.n}, permutation has n={n}")
        return jop
    j_seed = args.j_seed if args.j_seed is not None else derive_seed(args.master_seed, "pseudo-identity")
    b = args.b if args.bad_size is None else _bad_fraction(n, args.bad_size)
    return build_pseudo_identity(
        n, args.k, a=args.a, b=b,
        bad_mode=args.bad_mode, angle_mode=args.angle_mode, seed=j_seed,
    )


def _resolve_inputs(args, with_pseudo: bool):
    """The permutation, xs, operator (None for the exact reflections),
    threshold and manifest config of run-inv, run-avinv and test-stages. A bad
    flag raises UsageError, bad input ValueError or OSError."""
    least_k = 1 if with_pseudo else 0  # a pseudo-identity needs an ancilla
    if args.k < least_k:
        raise UsageError(f"--k must be at least {least_k}, got {args.k}")
    perm = _resolve_perm(args)
    xs = _resolve_xs(args.x, perm.n, args.master_seed)
    jop = _resolve_pseudo_identity(args, perm.n) if with_pseudo else None
    threshold = args.threshold
    if threshold is None:
        threshold = EXACT_THRESHOLD if jop is None else PSEUDO_THRESHOLD
    config = {"command": args.command, "n": perm.n, "family": perm.family, "perm_seed": perm.seed,
              "k": args.k if jop is None else jop.k, "x": args.x, "threshold": threshold,
              "master_seed": args.master_seed}
    if jop is not None:
        config.update({"a": jop.a, "b": jop.b, "bad_size": jop.bad_size, "j_seed": jop.seed,
                       "bad_mode": jop.bad_mode, "angle_mode": jop.angle_mode})
    return perm, xs, jop, threshold, config


def _write_output(command: str, path: str, text: str, config: dict, derived=None) -> int:
    """Write one output file and its manifest beside it, then print its path;
    the exit code 0. A path that cannot be written raises ValueError."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        atomic_write_text(path, text)
        write_manifest(command, config, derived or {}, {os.path.basename(path): text},
                       path + ".manifest.json")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    print(path)
    return 0


def _write_json(command: str, path: str | None, payload: dict, config: dict) -> None:
    """A JSON report goes to `path` with a manifest, or to stdout without one."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        _write_output(command, path, text, config)
    else:
        print(text, end="")


def cmd_gen_perm(args) -> int:
    perm = build_permutation(args.family, args.n, seed=args.seed, mask=args.mask)
    out_dir = resolve_out_dir(args.out_dir)
    name = f"perm-{args.family}-n{args.n}" + (f"-s{args.seed}" if args.seed is not None else "")
    path = args.out or os.path.join(out_dir, name + ".txt")
    config = {"family": args.family, "n": args.n, "seed": args.seed, "mask": args.mask}
    return _write_output("gen-perm", path, permutation_to_text(perm), config)


def _cmd_run(args, with_pseudo: bool) -> int:
    perm, xs, jop, threshold, config = _resolve_inputs(args, with_pseudo)
    runs = run_batch(perm, jop, xs, not args.no_trace, threshold)
    csv_text = run_reports_to_csv(perm, jop, runs)
    path = args.out or os.path.join(resolve_out_dir(args.out_dir), args.command + ".csv")
    return _write_output(args.command, path, csv_text, {**config, "trace": not args.no_trace})


def cmd_check_lemmas(args) -> int:
    checks = lemma_battery(n_max=args.n, count=args.count, seed=args.seed)
    report = {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
    config = {"n": args.n, "count": args.count, "seed": args.seed, "k": args.k}
    _write_json("check-lemmas", args.out, report, config)
    return 0 if report["all_pass"] else 1


def cmd_test_stages(args) -> int:
    if args.corrupt_stage is not None and args.provider != "corrupted":
        raise UsageError("--corrupt-stage needs --provider corrupted")
    perm, xs, jop, threshold, config = _resolve_inputs(args, args.provider == "pseudo")
    if args.provider == "corrupted":
        if args.corrupt_stage is None:
            raise UsageError("--provider corrupted requires --corrupt-stage")
        if not 0 <= args.corrupt_stage < perm.n // 2:
            raise UsageError(f"--corrupt-stage out of range [0, {perm.n // 2 - 1}]")
    report = run_stepwise_test(perm, xs, jop, args.corrupt_stage, threshold)
    payload = {
        "provider": args.provider,
        "n": perm.n,
        "x_count": len(xs),
        "threshold": threshold,
        "stage_min_fidelity": list(report.stage_min_fidelity),
        "stage_pass": list(report.stage_pass),
        "first_failing_stage": report.first_failing_stage,
        "all_pass": report.all_pass,
    }
    config.update({"provider": args.provider, "corrupt_stage": args.corrupt_stage})
    _write_json("test-stages", args.out, payload, config)
    return 0 if report.all_pass else 1


def cmd_sweep(args) -> int:
    try:
        config = load_sweep_config(args.config)
    except (OSError, ValueError) as exc:
        raise UsageError(f"invalid sweep config: {exc}") from exc
    rows, derived = sweep_rows(config)
    csv_text = sweep_to_csv(rows)
    out_dir = resolve_out_dir(args.out_dir)
    path = args.out or config.get("out") or os.path.join(out_dir, "sweep.csv")
    return _write_output("sweep", path, csv_text, config, derived)


def cmd_params(args) -> int:
    try:
        params = compute_params(args.r, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"p={params.p:.12g} q={params.q:.12g} hard_count={params.hard_input_count:.12g}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports its own parse errors (an unknown flag, a value of the wrong
    type, a missing value) as one `error:` line with exit 2, without the
    usage block. Its subparsers are of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: a parse keeps no state in it."""
    parser = _Parser(prog="qperminv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-perm", help="write a permutation file")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--mask", type=int)
    p.add_argument("--out")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_gen_perm)

    for name, with_pseudo in (("run-inv", False), ("run-avinv", True)):
        p = sub.add_parser(name, help=f"per-x inversion runs ({name})")
        _add_perm_source(p)
        p.add_argument("--k", type=int, default=1 if with_pseudo else 0,
                       help="ancilla qubit count")
        p.add_argument("--x", default="all", help="'all', 'sample:<m>', or a comma list")
        p.add_argument("--no-trace", action="store_true", help="skip per-stage oracle checks")
        p.add_argument("--threshold", type=float, help="stage fidelity threshold")
        p.add_argument("--master-seed", type=int, default=0)
        p.add_argument("--workers", type=int, help="accepted and ignored")
        p.add_argument("--out")
        p.add_argument("--out-dir")
        if with_pseudo:
            _add_operator_source(p)
        p.set_defaults(func=lambda a, wp=with_pseudo: _cmd_run(a, wp))

    p = sub.add_parser("check-lemmas", help="run the numerical bound battery")
    p.add_argument("--n", type=int, default=8, help="largest register size in the battery")
    p.add_argument("--count", type=int, default=200, help="randomized instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_lemmas)

    p = sub.add_parser("test-stages", help="stepwise per-stage operator test")
    _add_perm_source(p)
    p.add_argument("--provider", choices=("exact", "pseudo", "corrupted"), default="exact")
    p.add_argument("--corrupt-stage", type=int)
    _add_operator_source(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--x", default="all")
    p.add_argument("--threshold", type=float)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_test_stages)

    p = sub.add_parser("sweep", help="evaluate a JSON-configured grid")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, help="accepted and ignored")
    p.add_argument("--out")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("params", help="failure-budget parameter calculus")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    """Run one command; its exit code. A command raises UsageError (exit 2),
    ValueError or OSError (exit 1), and only here is that printed, in one line."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        message = _flag_error(args)
        if message:
            raise UsageError(message)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
