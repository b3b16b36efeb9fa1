"""Command-line harness for permutation-inversion experiments.

Subcommands: gen-perm, run-inv, run-avinv, check-lemmas, test-stages, sweep,
params. Exit codes: 0 success, 1 failed validation or failed bound/stage,
2 usage errors. QPERMINV_OUT_DIR and QPERMINV_WORKERS override the output
directory and worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .analysis import compute_params, sample_xs
from .harness import (
    atomic_write_text,
    derive_seed,
    lemma_battery,
    load_sweep_config,
    resolve_out_dir,
    resolve_workers,
    run_batch,
    run_reports_to_csv,
    sweep_rows,
    sweep_to_csv,
    write_manifest,
)
from .invert import EXACT_THRESHOLD, PSEUDO_THRESHOLD, run_stepwise_test
from .ops import ANGLE_MODES, BAD_MODES, build_pseudo_identity, parse_pseudo_identity
from .perm import (
    DEFAULT_MAX_BITS,
    FAMILIES,
    build_permutation,
    load_permutation,
    permutation_to_text,
)
from .qstate import check_register_sizes

GEN_FAMILIES = tuple(f for f in FAMILIES if f != "from-table")


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _failure(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _add_perm_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--perm-file", help="load the permutation from a file")
    parser.add_argument("--family", choices=GEN_FAMILIES, help="built-in permutation family")
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
    if args.n % 2 != 0 or args.n < 2:
        raise UsageError(f"--n must be an even integer >= 2, got {args.n}")
    return build_permutation(args.family, args.n, seed=args.seed, mask=args.mask)


def _resolve_xs(selector: str, n: int, master_seed: int):
    if selector == "all":
        return list(range(1 << n))
    if selector.startswith("sample:"):
        try:
            count = int(selector.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"cannot parse --x value {selector!r}") from exc
        if count < 1:
            raise UsageError("sample count must be positive")
        return sample_xs(n, count, derive_seed(master_seed, f"xs/n={n}"))
    try:
        xs = [int(tok) for tok in selector.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse --x value {selector!r}") from exc
    if any(not 0 <= x < (1 << n) for x in xs):
        raise UsageError("--x value out of range")
    return sorted(set(xs))


class UsageError(Exception):
    pass


def _resolve_pseudo_identity(args, n: int):
    """Operator from a serialized file when given, else built from the flags."""
    if getattr(args, "j_file", None):
        with open(args.j_file, "r", encoding="ascii") as fh:
            jop = parse_pseudo_identity(fh.read())
        if jop.n != n:
            raise ValueError(f"operator file is for n={jop.n}, permutation has n={n}")
        return jop
    j_seed = args.j_seed if args.j_seed is not None else derive_seed(args.master_seed, "pseudo-identity")
    b = args.b if args.bad_size is None else args.bad_size / (1 << n)
    return build_pseudo_identity(
        n, max(1, args.k), a=args.a, b=b,
        bad_mode=args.bad_mode, angle_mode=args.angle_mode, seed=j_seed,
    )


def _write_output(command: str, path: str, text: str, config: dict, derived=None) -> int:
    """Write one output file and its manifest beside it, then print its path;
    the exit code, 1 when the path cannot be written."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        atomic_write_text(path, text)
        write_manifest(command, config, derived or {}, {os.path.basename(path): text},
                       path + ".manifest.json")
    except OSError as exc:
        return _failure(f"cannot write {path}: {exc.strerror or exc}")
    print(path)
    return 0


def _write_json(command: str, path: str | None, payload: dict, config: dict) -> int:
    """A JSON report goes to `path` with a manifest, or to stdout without one."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        return _write_output(command, path, text, config)
    print(text, end="")
    return 0


def cmd_gen_perm(args) -> int:
    if args.n is None or args.n % 2 != 0 or args.n < 2:
        return _usage(f"--n must be an even integer >= 2, got {args.n}")
    try:
        perm = build_permutation(args.family, args.n, seed=args.seed, mask=args.mask)
    except ValueError as exc:
        return _failure(str(exc))
    out_dir = resolve_out_dir(args.out_dir)
    name = f"perm-{args.family}-n{args.n}" + (f"-s{args.seed}" if args.seed is not None else "")
    path = args.out or os.path.join(out_dir, name + ".txt")
    config = {"family": args.family, "n": args.n, "seed": args.seed, "mask": args.mask}
    return _write_output("gen-perm", path, permutation_to_text(perm), config)


def _cmd_run(args, with_pseudo: bool) -> int:
    if args.k < 0:
        return _usage(f"--k must be at least 0, got {args.k}")
    try:
        resolve_workers(args.workers)  # still validated; closed forms need no fan-out
    except ValueError as exc:
        return _usage(str(exc))
    try:
        perm = _resolve_perm(args)
        xs = _resolve_xs(args.x, perm.n, args.master_seed)
    except UsageError as exc:
        return _usage(str(exc))
    except (ValueError, OSError) as exc:
        return _failure(str(exc))
    jop = None
    k = args.k
    threshold = args.threshold
    if with_pseudo:
        try:
            jop = _resolve_pseudo_identity(args, perm.n)
        except (ValueError, OSError) as exc:
            return _failure(str(exc))
        k = jop.k
        if threshold is None:
            threshold = PSEUDO_THRESHOLD
    elif threshold is None:
        threshold = EXACT_THRESHOLD
    try:
        reports = run_batch(perm, jop, xs, k, not args.no_trace, threshold)
    except ValueError as exc:
        return _failure(str(exc))
    csv_text = run_reports_to_csv(perm, jop, reports)
    out_dir = resolve_out_dir(args.out_dir)
    command = "run-avinv" if with_pseudo else "run-inv"
    path = args.out or os.path.join(out_dir, command + ".csv")
    config = {
        "command": command,
        "n": perm.n,
        "family": perm.family,
        "perm_seed": perm.seed,
        "k": k,
        "x": args.x,
        "trace": not args.no_trace,
        "threshold": threshold,
        "master_seed": args.master_seed,
    }
    if jop is not None:
        config.update({"a": jop.a, "b": jop.b, "bad_size": jop.bad_size, "j_seed": jop.seed,
                       "bad_mode": jop.bad_mode, "angle_mode": jop.angle_mode})
    return _write_output(command, path, csv_text, config)


def cmd_check_lemmas(args) -> int:
    if args.n % 2 != 0 or not 2 <= args.n <= DEFAULT_MAX_BITS:
        return _usage(f"--n must be an even integer in [2, {DEFAULT_MAX_BITS}], got {args.n}")
    if args.count < 1:
        return _usage(f"--count must be at least 1, got {args.count}")
    if args.k < 1:
        return _usage(f"--k must be at least 1, got {args.k}")
    try:
        check_register_sizes(args.n, args.k)
    except ValueError as exc:
        return _failure(str(exc))
    checks = lemma_battery(n_max=args.n, count=args.count, seed=args.seed, k=args.k)
    report = {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
    config = {"n": args.n, "count": args.count, "seed": args.seed, "k": args.k}
    code = _write_json("check-lemmas", args.out, report, config)
    return code or (0 if report["all_pass"] else 1)


def cmd_test_stages(args) -> int:
    if args.k < 0:
        return _usage(f"--k must be at least 0, got {args.k}")
    if args.corrupt_stage is not None and args.provider != "corrupted":
        return _usage("--corrupt-stage needs --provider corrupted")
    try:
        perm = _resolve_perm(args)
        xs = _resolve_xs(args.x, perm.n, args.master_seed)
    except UsageError as exc:
        return _usage(str(exc))
    except (ValueError, OSError) as exc:
        return _failure(str(exc))
    threshold = args.threshold
    jop = corrupt_stage = None
    if args.provider == "corrupted":
        if args.corrupt_stage is None:
            return _usage("--provider corrupted requires --corrupt-stage")
        if not 0 <= args.corrupt_stage < perm.n // 2:
            return _usage(f"--corrupt-stage out of range [0, {perm.n // 2 - 1}]")
        corrupt_stage = args.corrupt_stage
    elif args.provider == "pseudo":
        try:
            jop = _resolve_pseudo_identity(args, perm.n)
        except (ValueError, OSError) as exc:
            return _failure(str(exc))
        if threshold is None:
            threshold = PSEUDO_THRESHOLD
    if threshold is None:
        threshold = EXACT_THRESHOLD
    try:
        report = run_stepwise_test(perm, xs, jop, corrupt_stage, threshold)
    except ValueError as exc:
        return _failure(str(exc))
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
    code = _write_json("test-stages", args.out, payload, payload)
    return code or (0 if report.all_pass else 1)


def cmd_sweep(args) -> int:
    try:
        config = load_sweep_config(args.config)
    except (OSError, ValueError) as exc:
        return _usage(f"invalid sweep config: {exc}")
    try:
        resolve_workers(args.workers)  # still validated; closed forms need no fan-out
    except ValueError as exc:
        return _usage(str(exc))
    try:
        rows, derived = sweep_rows(config)
    except ValueError as exc:
        return _failure(str(exc))
    csv_text = sweep_to_csv(rows)
    out_dir = resolve_out_dir(args.out_dir)
    path = args.out or config.get("out") or os.path.join(out_dir, "sweep.csv")
    return _write_output("sweep", path, csv_text, config, derived)


def cmd_params(args) -> int:
    try:
        params = compute_params(args.r, args.n)
    except ValueError as exc:
        return _usage(str(exc))
    print(f"p={params.p:.12g} q={params.q:.12g} hard_count={params.hard_input_count:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qperminv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-perm", help="write a permutation file")
    p.add_argument("--family", choices=GEN_FAMILIES, required=True)
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
        p.add_argument("--workers", type=int)
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
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("params", help="failure-budget parameter calculus")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag in ("threshold", "a", "b", "r"):
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            return _usage(f"--{flag} must be a finite number, got {value}")
    return args.func(args)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
