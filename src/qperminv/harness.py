"""Experiment plumbing: deterministic seeds, file emission, and sweeps.

Every output byte is a pure function of the configuration and the master
seed. Derived seeds are the first 8 bytes, little-endian, of
SHA-256(LE64(master_seed) || label-utf8 || LE64(x)); randomness everywhere
else comes from numpy's default PCG64 generator seeded with such a value.
Files are written to a temporary name and renamed into place, and every
command emits a manifest with SHA-256 checksums of its outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import sys

import numpy as np

from . import __version__
from .analysis import (
    BOUND_TOL,
    _error_lengths,
    _error_sweeps,
    _margins,
    compute_params,
    contradiction_check,
    inversion_residual_stats,
    sample_xs,
)
from .invert import Runs, _deficit_column, _levels, _success_residual
from .invert import run_batch  # noqa: F401 (the CLI's entry)
from .ops import (
    ANGLE_MODES,
    BAD_MODES,
    PseudoIdentity,
    _checked_bad_lut,
    _draw_operator,
    _sines,
    build_pseudo_identity,
)
from .perm import DEFAULT_MAX_BITS, FAMILIES, Permutation, build_permutation

ENV_OUT_DIR = "QPERMINV_OUT_DIR"
ENV_WORKERS = "QPERMINV_WORKERS"

ARTIFACT_NAME = "qperminv"

RUN_CSV_COLUMNS = (
    "n", "family", "perm_seed", "a", "b", "bad_size", "j_seed",
    "x", "success_prob", "v2_norm", "first_failing_stage",
)

SWEEP_CSV_COLUMNS = (
    "n", "family", "perm_seed", "k", "a", "b", "bad_size", "j_seed",
    "x_mode", "x_count", "mean_success_prob", "mean_v2_norm", "max_v2_norm",
    "exceed_threshold", "exceed_count", "mean_error_len_tagged", "mean_error_len_plain",
)


def derive_seed(master_seed: int, label: str, x: int = 0) -> int:
    payload = struct.pack("<Q", master_seed & (2**64 - 1))
    payload += label.encode("utf-8")
    payload += struct.pack("<Q", x & (2**64 - 1))
    digest = hashlib.sha256(payload).digest()
    return struct.unpack("<Q", digest[:8])[0]


def fmt17(value) -> str:
    return format(float(value), ".17g")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    """Write a uniquely named, fsynced temporary beside `path`, then rename it
    into place. O_EXCL rather than mkstemp, whose mode 0600 would override the
    umask on the output."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def resolve_out_dir(flag_value: str | None) -> str:
    env = os.environ.get(ENV_OUT_DIR)
    return env if env else (flag_value if flag_value else ".")


def resolve_workers(flag_value: int | None) -> int:
    """QPERMINV_WORKERS, else the flag, clamped to [1, CPU count]."""
    env = os.environ.get(ENV_WORKERS)
    requested = flag_value or 1
    if env:
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(f"{ENV_WORKERS} must be an integer, got {env!r}") from None
    return max(1, min(requested, os.cpu_count() or 1))


def write_manifest(command: str, config_echo: dict, derived_seeds: dict, outputs: dict, manifest_path: str) -> None:
    """outputs maps basename -> file text (already written)."""
    manifest = {
        "artifact": ARTIFACT_NAME,
        "version": __version__,
        "command": command,
        "config": config_echo,
        "derived_seeds": derived_seeds,
        "outputs": {name: f"sha256:{sha256_text(text)}" for name, text in outputs.items()},
    }
    atomic_write_text(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def run_reports_to_csv(perm: Permutation, jop: PseudoIdentity | None, runs: Runs) -> str:
    """One row per run, in x order, after the permutation and operator columns
    that every row shares (empty for an exact run); the first failing stage is
    empty where there is none or the runs are untraced."""
    meta = (None,) * 4 if jop is None else (jop.a, jop.b, jop.bad_size, jop.seed)
    prefix = ",".join(_cell(v) for v in (perm.n, perm.family, perm.seed, *meta))
    failing = runs.first_failing_stage
    failing = ([""] * runs.x.size if failing is None
               else np.where(failing < 0, "", failing.astype(str)).tolist())
    lines = [",".join(RUN_CSV_COLUMNS)]
    lines.extend(f"{prefix},{x},{s:.17g},{v:.17g},{f}" for x, s, v, f in zip(
        runs.x.tolist(), runs.success_prob.tolist(), runs.v2_norm.tolist(), failing))
    return "\n".join(lines) + "\n"


SWEEP_DEFAULTS = {
    "k": 1,
    "bad_mode": "full-rotation",
    "angle_mode": "worst-case",
    "x_mode": "all",
    "exceed_threshold": 0.5,
}


def _is_int(value) -> bool:
    """A JSON integer: 4.0 and true are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _at_least(low: int) -> tuple:
    return lambda v: _is_int(v) and v >= low, f"an integer >= {low}"


def _one_of(choices: tuple) -> tuple:
    return lambda v: v in choices, f"one of {', '.join(choices)}"


# key -> (test, rule) of a top-level value, or of each item of a grid list;
# numbers are JSON numbers that a float holds (NaN and Infinity fail every range)
_SWEEP_RULES = {
    "master_seed": _at_least(0),
    "grid": (lambda v: isinstance(v, dict), "an object"),
    "k": _at_least(1),
    "perm_seed": _at_least(0),
    "j_seed": _at_least(0),
    "bad_mode": _one_of(BAD_MODES),
    "angle_mode": _one_of(ANGLE_MODES),
    "x_mode": (lambda v: v == "all" or (isinstance(v, dict) and v.keys() == {"sample"}
                                        and _is_int(v["sample"]) and v["sample"] >= 1),
               '"all" or {"sample": <integer >= 1>}'),
    "exceed_threshold": (lambda v: _is_number(v) and 0 < v <= sys.float_info.max,
                         "a finite number > 0"),
    "out": (lambda v: isinstance(v, str), "a string"),
}
_GRID_RULES = {
    "n": (lambda v: _is_int(v) and 2 <= v <= DEFAULT_MAX_BITS and v % 2 == 0,
          f"even integers in [2, {DEFAULT_MAX_BITS}]"),
    "family": _one_of(tuple(f for f in FAMILIES if f != "from-table")),
    "a": (lambda v: _is_number(v) and 0 <= v <= 1, "numbers in [0, 1]"),
    "bad_size": _at_least(0),
}


def _check_keys(where: str, obj: dict, rules: dict, required) -> None:
    for fault, keys in (("unknown", [key for key in obj if key not in rules]),
                        ("missing", [key for key in required if key not in obj])):
        if keys:
            raise ValueError(f"{fault} {where}key {keys[0]!r}")


def validate_sweep_config(config: dict) -> dict:
    """The config merged over SWEEP_DEFAULTS; ValueError naming the first key
    that breaks its rule."""
    if not isinstance(config, dict):
        raise ValueError(f"config must be an object, got {config!r}")
    _check_keys("", config, _SWEEP_RULES, ("master_seed", "grid"))
    for key, value in config.items():
        test, rule = _SWEEP_RULES[key]
        if not test(value):
            raise ValueError(f"{key} must be {rule}, got {value!r}")
    grid = config["grid"]
    _check_keys("grid ", grid, _GRID_RULES, _GRID_RULES)
    for key, (test, rule) in _GRID_RULES.items():
        if not isinstance(grid[key], list):
            raise ValueError(f"grid {key} must be a list, got {grid[key]!r}")
        for value in grid[key]:
            if not test(value):
                raise ValueError(f"grid {key} values must be {rule}, got {value!r}")
    merged = dict(SWEEP_DEFAULTS)
    merged.update(config)
    return merged


def load_sweep_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_sweep_config(json.load(fh))


def sweep_rows(config: dict) -> tuple[list[list[str]], dict]:
    """Evaluate a sweep grid in closed form; rows come in grid (lexicographic) order.

    A grid point draws its operator's cosines and checks them as
    `PseudoIdentity` does, but builds no operator. One complex level pass
    over the rotation vectors gives the last stage's deficits, and so success
    and residual, as in `inversion_residual_stats`. One real level pass over
    the gaps 2 - 2c gives each level's mean error length, as in
    `expected_error_sweep`: the tagged stages j = 0 .. n/2 - 1 and the plain
    j = 1 .. n/2 are the levels 0 .. n/2."""
    master = config["master_seed"]
    k = config["k"]
    grid = config["grid"]
    threshold = float(config["exceed_threshold"])
    derived: dict[str, int] = {}
    rows = []
    for n in grid["n"]:
        j_seed = config.get("j_seed")
        if j_seed is None:
            label = f"pseudo-identity/n={n}"
            j_seed = derive_seed(master, label)
            derived[label] = j_seed
        if config["x_mode"] == "all":
            xs = np.arange(1 << n)
            x_mode = "all"
        else:
            label = f"xs/n={n}"
            xs_seed = derive_seed(master, label)
            derived[label] = xs_seed
            xs = np.array(sample_xs(n, config["x_mode"]["sample"], xs_seed), dtype=np.int64)
            x_mode = "sample"
        for family in grid["family"]:
            perm_seed = config.get("perm_seed")
            if perm_seed is None:
                label = f"perm/{family}/n={n}"
                perm_seed = derive_seed(master, label)
                derived[label] = perm_seed
            perm = build_permutation(family, n, seed=perm_seed)
            for a in grid["a"]:
                for bad_size in grid["bad_size"]:
                    if bad_size > (1 << n):
                        raise ValueError(f"bad_size {bad_size} exceeds 2^{n}")
                    b = bad_size / (1 << n)
                    bad, cosines = _draw_operator(n, a, b, config["bad_mode"],
                                                  config["angle_mode"], j_seed)
                    _checked_bad_lut(cosines, bad, a)
                    vectors = _levels(perm, cosines + 1j * _sines(cosines))
                    success, v2 = _success_residual(_deficit_column(vectors, n // 2 - 1, xs))
                    gaps = _levels(perm, 2.0 - 2.0 * cosines)
                    lengths = [float(_error_lengths(gaps[i][0], xs >> (n - 2 * i)).mean())
                               for i in range(n // 2 + 1)]
                    rows.append([
                        _cell(n), family, _cell(perm_seed), _cell(k), _cell(float(a)),
                        _cell(b), _cell(bad_size), _cell(j_seed), x_mode, _cell(xs.size),
                        _cell(float(success.mean())), _cell(float(v2.mean())),
                        _cell(float(v2.max())), _cell(threshold),
                        _cell(int(np.count_nonzero(v2 > threshold))),
                        _cell(float(np.mean(lengths[:-1]))), _cell(float(np.mean(lengths[1:]))),
                    ])
    return rows, derived


def sweep_to_csv(rows: list[list[str]]) -> str:
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _check_entry(name: str, measured: float, bound: float, passed: bool) -> dict:
    return {
        "name": name,
        "measured": float(measured),
        "bound": float(bound),
        "margin": float(bound - measured),
        "pass": bool(passed),
    }


# Cosines the randomized suite holds at once. Per-chunk cost is small from
# about 2^12 on, and a larger chunk raises the peak memory of `check-lemmas`.
SUITE_CHUNK = 1 << 12


def _suite_chunk(ns, a, cosines, bads, supports, flips) -> tuple[np.ndarray, ...]:
    """|S|, |S ∩ bad| and d = mean_S (1 - c) for a chunk of randomized
    instances, given per instance as n, a, cosines, sorted bad set, S and T.

    Each instance's members are offset by its base in the concatenated
    cosines, and every instance is checked at once as `_checked_bad_lut` and
    `signed_support` check one; S must also hold no member twice. Each d is a
    reduce over its own sorted segment, so it equals `np.mean` on that S."""
    sizes = np.left_shift(1, np.asarray(ns, dtype=np.int64))
    base = np.cumsum(sizes) - sizes
    values = np.concatenate(cosines)
    bad_keys = np.concatenate(bads) + np.repeat(base, [bad.size for bad in bads])
    lut = _checked_bad_lut(values, bad_keys, a, base)
    s_size = np.array([support.size for support in supports])
    if not s_size.all():
        raise ValueError("support must be nonempty")
    owner = np.repeat(np.arange(sizes.size), s_size)
    members = np.concatenate(supports)
    outside = (members < 0) | (members >= sizes[owner])
    if outside.any():
        raise ValueError(f"support member out of range for {ns[owner[outside.argmax()]]} bits")
    keys = np.sort(members + base[owner])
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("support members must be distinct")
    in_support = np.zeros(values.size, dtype=bool)
    in_support[keys] = True
    owner = np.repeat(np.arange(sizes.size), [flipped.size for flipped in flips])
    flipped = np.concatenate(flips)
    if not (((flipped >= 0) & (flipped < sizes[owner])).all()
            and in_support[flipped + base[owner]].all()):
        raise ValueError("flipped set must be a subset of the support")
    starts = np.cumsum(s_size) - s_size
    s_bad = np.add.reduceat(lut[keys], starts, dtype=np.int64)
    gaps = 1.0 - values[keys]
    ends = starts + s_size
    sums = [np.add.reduce(gaps[lo:hi]) for lo, hi in zip(starts.tolist(), ends.tolist())]
    return s_size, s_bad, np.array(sums) / s_size


def lemma_battery(n_max: int = 8, count: int = 200, seed: int = 0, k: int = 1) -> list[dict]:
    """The check-lemmas battery: randomized bound suites, exhaustive
    expectation identities, residual aggregates, and the parameter calculus.

    A randomized instance builds no operator. The loop makes its draws, in a
    fixed order, and holds them until the next instance would take the held
    cosines past SUITE_CHUNK (a larger instance is a chunk alone). Each chunk
    is checked and reduced at once (`_suite_chunk`) to the a, |S|,
    |S ∩ bad| and d from which `_margins` gives both entries, as it does in
    `check_error_length_bound` and `check_residual_bound`. Only each entry's
    first least-margin instance and pass flag are kept. The exhaustive sweeps'
    tagged stages j = 0 .. n/2 - 1 and plain j = 1 .. n/2 are the levels
    0 .. n/2 of one pass per operator."""
    rng = np.random.default_rng(derive_seed(seed, "lemma-suite"))
    a_choices = (0.0, 1e-6, 1e-3)
    b_choices = (0.0, 1.0 / 16.0, 1.0 / 4.0)
    # n / 2, a, b, bad mode, angle mode and operator seed in one call: the same
    # stream as one call per parameter
    low, high = np.array((1, 0, 0, 0, 0, 0)), np.array((n_max // 2 + 1, 3, 3, 2, 2, 2**32))
    chunk = ([], [], [], [], [], [])  # n, a, cosines, bad set, S, T
    held = 0
    worst = [None, None]  # (measured, bound, margin) per entry
    passed = [True, True]

    def fold(entry, measured, bound):
        margin = bound - measured
        i = int(np.argmin(margin))
        if worst[entry] is None or margin[i] < worst[entry][2]:
            worst[entry] = (measured[i], bound[i], margin[i])
        passed[entry] = passed[entry] and bool(np.all(margin >= -BOUND_TOL))

    def reduce_chunk():
        s_size, s_bad, d = _suite_chunk(*chunk)
        length, bound, perp = _margins(np.array(chunk[1]), s_size, s_bad, d)
        fold(0, length, bound)
        fold(1, perp, length)
        for part in chunk:
            part.clear()

    for _ in range(count):
        half, a_at, b_at, bad_at, angle_at, op_seed = rng.integers(low, high).tolist()
        n = 2 * half
        size = 1 << n
        if held and held + size > SUITE_CHUNK:
            reduce_chunk()
            held = 0
        held += size
        a = a_choices[a_at]
        bad, cosines = _draw_operator(n, a, b_choices[b_at], BAD_MODES[bad_at],
                                      ANGLE_MODES[angle_at], op_seed)
        s_size = int(rng.integers(1, size + 1))
        support = rng.choice(size, size=s_size, replace=False)
        flipped = rng.choice(support, size=int(rng.integers(0, s_size + 1)), replace=False)
        for part, value in zip(chunk, (n, a, cosines, bad, support, flipped)):
            part.append(value)
    reduce_chunk()
    checks = [_check_entry(name, *worst[entry][:2], passed[entry])
              for entry, name in enumerate(("error-length-bound", "orthogonal-residual-bound"))]

    n = n_max
    a_small = 2.0 ** (-2 * n)
    perm = build_permutation("random", n, seed=derive_seed(seed, f"battery-perm/n={n}"))
    sweeps = []
    for bad_size in (1, 2, 4):
        jop = build_pseudo_identity(
            n, k, a=a_small, b=bad_size / (1 << n),
            seed=derive_seed(seed, f"battery-jop/n={n}/bad={bad_size}"),
        )
        sweeps.extend(_error_sweeps(perm, jop, None, range(n // 2 + 1)))
    checks.append(_check_entry(
        "overlap-ratio-identity", max(abs(float(s.mean_ratio - s.expected_ratio)) for s in sweeps),
        1e-12, all(s.ratio_exact for s in sweeps)))
    worst_mean = min(sweeps, key=lambda s: s.error_bound - s.mean_error_len)
    checks.append(_check_entry("mean-error-length-bound", worst_mean.mean_error_len,
                               worst_mean.error_bound, all(s.error_bound_ok for s in sweeps)))

    residuals = []
    for bad_size in (1, 2, 4):
        b = bad_size / (1 << n)
        q = (1.0 / b) ** 0.25 / math.sqrt(2.0 * n)
        jop = build_pseudo_identity(
            n, k, a=0.0, b=b, seed=derive_seed(seed, f"battery-jop/n={n}/bad={bad_size}"),
        )
        residuals.append(inversion_residual_stats(perm, jop, q))
    worst_res = min(residuals, key=lambda s: s.residual_bound - s.mean_v2)
    checks.append(_check_entry("mean-residual-bound", worst_res.mean_v2, worst_res.residual_bound,
                               all(s.residual_bound_ok for s in residuals
                                   if s.residual_bound_applicable)))
    worst_markov = min(residuals, key=lambda s: s.markov_limit - s.markov_count)
    checks.append(_check_entry("residual-markov-count", worst_markov.markov_count,
                               worst_markov.markov_limit, all(s.markov_ok for s in residuals)))

    worst_q_err = 0.0
    for r in range(1, 21):
        for n_p in range(2, 21, 2):
            worst_q_err = max(worst_q_err, abs(compute_params(r, n_p).q - (r + 1)))
    checks.append(_check_entry("parameter-identity", worst_q_err, 1e-12, worst_q_err <= 1e-12))
    all_contra = all(contradiction_check(r) for r in range(1, 101))
    checks.append(_check_entry("failure-count-inequality", 0.0 if all_contra else 1.0, 0.5,
                               all_contra))
    return checks
