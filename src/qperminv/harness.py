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
    IDENTITY_TOL,
    _error_lengths,
    _error_sweeps,
    _holds,
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
    _bad_fraction,
    _checked_bad_lut,
    _draw_operator,
    _sines,
    bad_set_capacity,
    build_pseudo_identity,
)
from .perm import (DEFAULT_MAX_BITS, FAMILIES, Permutation, _check_bits, _read_capped,
                   build_permutation)

ENV_OUT_DIR = "QPERMINV_OUT_DIR"

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


def _is_bits(v) -> bool:
    """An integer that `perm._check_bits`, the one register-size rule, takes."""
    try:
        return _is_int(v) and _check_bits(v) is None
    except ValueError:
        return False


def _at_least(low: int) -> tuple:
    return lambda v: _is_int(v) and v >= low, f"an integer >= {low}"


def _one_of(choices: tuple) -> tuple:
    return lambda v: v in choices, f"one of {', '.join(choices)}"


# key -> (test, rule) of a top-level value, or of each item of a grid list;
# numbers are JSON numbers that a float holds (NaN and Infinity fail every range).
# The CLI checks its flags against the same pairs.
_SWEEP_RULES = {
    # derive_seed reads a master seed as 64 bits
    "master_seed": (lambda v: _is_int(v) and 0 <= v < 2**64, "an integer in [0, 2^64)"),
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
    "n": (_is_bits, f"an even integer in [2, {DEFAULT_MAX_BITS}]"),
    "family": _one_of(FAMILIES),
    "a": (lambda v: _is_number(v) and 0 <= v <= 1, "numbers in [0, 1]"),
    "bad_size": _at_least(0),
}
# `sweep_rows` keeps every row as its CSV line, about 0.22 KB each (tracemalloc,
# 20,000 rows at n = 2), so a grid holds at most about 22 MB of rows.
SWEEP_MAX_POINTS = 10**5


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
    points = math.prod(len(grid[key]) for key in _GRID_RULES)
    if points > SWEEP_MAX_POINTS:
        raise ValueError(f"grid has {points} points, more than {SWEEP_MAX_POINTS}")
    merged = dict(SWEEP_DEFAULTS)
    merged.update(config)
    return merged


def load_sweep_config(path: str) -> dict:
    try:  # the JSON reader and the repr in a rule's message both recurse
        return validate_sweep_config(json.loads(_read_capped(path).decode("utf-8")))
    except RecursionError:
        raise ValueError("config is nested too deeply") from None


def sweep_rows(config: dict) -> tuple[list[str], dict]:
    """Evaluate a sweep grid in closed form; rows come in grid (lexicographic)
    order, each as its CSV line.

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
                    b = _bad_fraction(n, bad_size)
                    bad, cosines = _draw_operator(n, a, b, config["bad_mode"],
                                                  config["angle_mode"], j_seed)
                    _checked_bad_lut(cosines, bad, a)
                    vectors = _levels(perm, cosines + 1j * _sines(cosines))
                    success, v2 = _success_residual(_deficit_column(vectors, n // 2 - 1, xs))
                    gaps = _levels(perm, 2.0 - 2.0 * cosines)
                    lengths = [float(_error_lengths(gaps[i][0], xs >> (n - 2 * i)).mean())
                               for i in range(n // 2 + 1)]
                    rows.append(",".join([
                        _cell(n), family, _cell(perm_seed), _cell(k), _cell(float(a)),
                        _cell(b), _cell(bad_size), _cell(j_seed), x_mode, _cell(xs.size),
                        _cell(float(success.mean())), _cell(float(v2.mean())),
                        _cell(float(v2.max())), _cell(threshold),
                        _cell(int(np.count_nonzero(v2 > threshold))),
                        _cell(float(np.mean(lengths[:-1]))), _cell(float(np.mean(lengths[1:]))),
                    ]))
    return rows, derived


def sweep_to_csv(rows: list[str]) -> str:
    return "\n".join([",".join(SWEEP_CSV_COLUMNS), *rows]) + "\n"


def _check_entry(name: str, measured: float, bound: float, slack: float) -> dict:
    """A `check-lemmas` entry, whose pass is `_holds` on the floats it prints."""
    measured, bound = float(measured), float(bound)
    return {"name": name, "measured": measured, "bound": bound, "margin": bound - measured,
            "pass": bool(_holds(measured, bound, slack))}


# Cosines the suite holds at once, and instances whose parameters it draws at once (a block's
# n = 2 instances fill a chunk). They fix the draw stream, so are not tuning constants. At n = 8,
# 2^14 took 0.54x the suite time of 2^12 at +0.9 MB tracemalloc peak, 2^15 0.51x at +2 MB.
SUITE_CHUNK = 1 << 14
SUITE_BLOCK = SUITE_CHUNK >> 2
SUITE_A = (0.0, 1e-6, 1e-3)
SUITE_B = (0.0, 1.0 / 16.0, 1.0 / 4.0)


def _suite_chunk(a, values, in_bad, in_s, in_t) -> tuple[np.ndarray, ...]:
    """|S|, |S ∩ bad| and d = mean_S (1 - c) for a group of randomized
    instances of one size n: (count, 2^n) rows of cosines and of bad, S and T
    masks. Every row is checked at once, as `_checked_bad_lut` and
    `signed_support` check one instance, against its own a[i]; each d is one
    row reduce of (1 - c) * [y in S], as `analysis._deficit` sums one S."""
    _checked_bad_lut(values, in_bad, a)
    s_size = np.count_nonzero(in_s, axis=1)
    if not s_size.all():
        raise ValueError("support must be nonempty")
    if (in_t > in_s).any():
        raise ValueError("flipped set must be a subset of the support")
    d = np.add.reduce((1.0 - values) * in_s, axis=1)
    return s_size, np.count_nonzero(in_s & in_bad, axis=1), d / s_size


def _least(keys: np.ndarray, order: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Row i's taken[i] least keys as a mask, from the sorted rows `order`; ties go by index."""
    kth = np.where(taken > 0, order[np.arange(taken.size), taken - 1], -1.0)[:, None]
    mask = keys <= kth
    if np.count_nonzero(mask) > taken.sum():
        tied = keys == kth
        mask &= ~tied | (np.cumsum(tied, axis=1) <= (taken - (keys < kth).sum(axis=1))[:, None])
    return mask


def _suite_group(rng, n: int, params: np.ndarray) -> tuple:
    """A group of instances of one size n, with the given parameter rows, as
    `_suite_chunk` takes them: a, then the cosines and the bad, S and T masks
    with one row per instance. After |S| and |T|, one call draws the cosines'
    uniforms and the key rows: S and T are the |S| and |T| least keys of one
    row, the bad set (if any) the capacity least of another (`_least`)."""
    size = 1 << n
    count = params.shape[0]
    a = np.take(SUITE_A, params[:, 1])
    capacity = np.take([bad_set_capacity(n, b) for b in SUITE_B], params[:, 2])
    s_size = rng.integers(1, size + 1, size=count)
    t_size = rng.integers(0, s_size + 1)
    uniform, keys = np.split(rng.random((2 * count + np.count_nonzero(capacity), size)), (count,))
    order = np.sort(keys, axis=1)  # the S key rows, then the bad sets'
    in_s, in_t = (_least(keys[:count], order[:count], taken) for taken in (s_size, t_size))
    in_bad = np.zeros((count, size), dtype=bool)
    in_bad[capacity > 0] = _least(keys[count:], order[count:], capacity[capacity > 0])
    # good cosines 1 - a u (random) or 1 - a (worst-case), bad ones 2u - 1 (random-angle) or 0
    values = uniform * a[:, None]
    np.copyto(values, a[:, None], where=params[:, 4, None] == ANGLE_MODES.index("worst-case"))
    np.subtract(1.0, values, out=values)
    values *= ~in_bad
    uniform *= 2.0
    uniform -= 1.0
    uniform[params[:, 3] == BAD_MODES.index("full-rotation")] = 0.0
    uniform *= in_bad
    values += uniform
    return a, values, in_bad, in_s, in_t


def _suite_draws(n_max: int, count: int, seed: int):
    """The randomized suite, one group at a time: the instances' indices in
    draw order, their parameter rows (n/2, a, b, bad mode and angle mode as
    indices into their choices) and their `_suite_chunk` input.

    One generator draws everything. Per block of SUITE_BLOCK instances, one
    call draws the parameter rows; then each size class n = 2, 4, .., n_max in
    turn draws its instances in groups of at most SUITE_CHUNK cosines (an
    instance with n >= 14 is a group alone), with `_suite_group`."""
    rng = np.random.default_rng(derive_seed(seed, "lemma-suite"))
    low, high = (1, 0, 0, 0, 0), (n_max // 2 + 1, len(SUITE_A), len(SUITE_B), 2, 2)
    for first in range(0, count, SUITE_BLOCK):
        params = rng.integers(low, high, size=(min(SUITE_BLOCK, count - first), 5))
        for half in range(1, n_max // 2 + 1):
            members = np.flatnonzero(params[:, 0] == half)
            step = max(1, SUITE_CHUNK >> 2 * half)
            for lo in range(0, members.size, step):
                at = members[lo:lo + step]
                yield first + at, params[at], _suite_group(rng, 2 * half, params[at])


def lemma_battery(n_max: int = 8, count: int = 200, seed: int = 0) -> list[dict]:
    """The check-lemmas battery: randomized bound suites, exhaustive
    expectation identities, residual aggregates, and the parameter calculus.

    A randomized instance builds no operator. `_suite_draws` draws the
    instances in bulk, a group of one size at a time, and each group is
    checked and reduced at once (`_suite_chunk`) to the a, |S|, |S ∩ bad| and
    d from which `_margins` gives both entries, as it does in
    `check_error_length_bound` and `check_residual_bound`. Only each entry's
    first least-margin instance, in draw order, is kept: the entry passes when
    it does. The exhaustive sweeps' tagged stages j = 0 .. n/2 - 1 and plain
    j = 1 .. n/2 are the levels 0 .. n/2 of one pass per operator."""
    worst = [None, None]  # (margin, index, measured, bound) per entry

    def fold(entry, index, measured, bound):
        margin = bound - measured
        i = int(np.argmin(margin))  # the first least margin of the group
        least = (float(margin[i]), int(index[i]), float(measured[i]), float(bound[i]))
        if worst[entry] is None or least[:2] < worst[entry][:2]:
            worst[entry] = least

    for index, _, chunk in _suite_draws(n_max, count, seed):
        length, bound, perp = _margins(chunk[0], *_suite_chunk(*chunk))
        fold(0, index, length, bound)
        fold(1, index, perp, length)
    checks = [_check_entry(name, *worst[entry][2:], BOUND_TOL)
              for entry, name in enumerate(("error-length-bound", "orthogonal-residual-bound"))]

    n = n_max
    perm = build_permutation("random", n, seed=derive_seed(seed, f"battery-perm/n={n}"))
    sweeps, residuals = [], []
    for bad_size in (1, 2, 4):
        b = _bad_fraction(n, bad_size)
        j_seed = derive_seed(seed, f"battery-jop/n={n}/bad={bad_size}")
        jop = build_pseudo_identity(n, a=2.0 ** (-2 * n), b=b, seed=j_seed)
        sweeps.extend(_error_sweeps(perm, jop, None, range(n // 2 + 1)))
        jop = build_pseudo_identity(n, a=0.0, b=b, seed=j_seed)
        residuals.append(inversion_residual_stats(perm, jop, (1.0 / b) ** 0.25 / math.sqrt(2 * n)))
    ratio_error = max(abs(float(s.mean_ratio - s.expected_ratio)) for s in sweeps)
    checks.append(_check_entry("overlap-ratio-identity", ratio_error, IDENTITY_TOL, 0.0))
    # a residual is at most 1, so a mean-residual bound above 1 (not applicable) has margin > 0
    for name, runs, pair in (
            ("mean-error-length-bound", sweeps, lambda s: (s.mean_error_len, s.error_bound)),
            ("mean-residual-bound", residuals, lambda s: (s.mean_v2, s.residual_bound)),
            ("residual-markov-count", residuals, lambda s: (s.markov_count, s.markov_limit))):
        measured, bound = min(map(pair, runs), key=lambda mb: mb[1] - mb[0])
        checks.append(_check_entry(name, measured, bound, BOUND_TOL))

    worst_q_err = 0.0
    for r in range(1, 21):
        for n_p in range(2, 21, 2):
            worst_q_err = max(worst_q_err, abs(compute_params(r, n_p).q - (r + 1)))
    checks.append(_check_entry("parameter-identity", worst_q_err, IDENTITY_TOL, 0.0))
    all_contra = all(contradiction_check(r) for r in range(1, 101))
    checks.append(_check_entry("failure-count-inequality", 0.0 if all_contra else 1.0, 0.5, 0.0))
    return checks
