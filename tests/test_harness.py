"""CLI surface: file formats, CSV schemas, manifests, exit codes, determinism."""

import json
import hashlib
import inspect
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qperminv import (
    PseudoIdentity,
    build_permutation,
    build_pseudo_identity,
    check_error_length_bound,
    check_residual_bound,
    derive_seed,
    expected_error_sweep,
    inversion_residual_stats,
    run_batch,
    sample_xs,
    serialize_pseudo_identity,
)
from qperminv import harness
from qperminv import perm as perm_module
from qperminv.analysis import _deficit
from qperminv.cli import build_parser, main
from qperminv.harness import (
    RUN_CSV_COLUMNS,
    SUITE_A,
    SUITE_B,
    SUITE_CHUNK,
    SWEEP_CSV_COLUMNS,
    _suite_chunk,
    _suite_draws,
    _suite_group,
    atomic_write_text,
    fmt17,
    lemma_battery,
)
from qperminv.ops import (ANGLE_MODES, BAD_MODES, SCALAR_SLACK, _checked_bad_lut,
                          bad_set_capacity)
from qperminv.perm import _MAX_FILE_BYTES, load_permutation
from qperminv.qstate import StateVector, signed_support


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QPERMINV_OUT_DIR", raising=False)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_derive_seed_is_a_pure_function():
    assert derive_seed(7, "perm/random/n=4") == derive_seed(7, "perm/random/n=4")
    assert derive_seed(7, "perm/random/n=4") != derive_seed(8, "perm/random/n=4")
    assert derive_seed(7, "a") != derive_seed(7, "b")
    assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)
    assert 0 <= derive_seed(0, "") < 2**64


def test_fmt17_round_trips():
    for v in (1.0, 0.1, 2.0 ** -37, 0.9999999999999999, 1 / 3):
        assert float(fmt17(v)) == v
    assert fmt17(1.0) == "1"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "x.txt"
    atomic_write_text(str(path), "hello\n")
    assert read(path) == b"hello\n"
    assert os.listdir(tmp_path) == ["x.txt"]


def test_atomic_write_concurrent_writers(tmp_path):
    path = str(tmp_path / "shared.txt")
    texts = ["a" * 5000 + "\n", "b" * 7000 + "\n"]
    errors = []

    def writer(text):
        try:
            for _ in range(300):
                atomic_write_text(path, text)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    with open(path, encoding="utf-8") as fh:
        assert fh.read() in texts
    assert os.listdir(tmp_path) == ["shared.txt"]


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    path = tmp_path / "x.txt"
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(str(path), "\ud800")
    assert os.listdir(tmp_path) == []


def test_atomic_write_permissions_follow_umask(tmp_path):
    atomic_write_text(str(tmp_path / "atomic.txt"), "x\n")
    with open(tmp_path / "plain.txt", "w") as fh:
        fh.write("x\n")
    assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(tmp_path / "plain.txt").st_mode


def test_gen_perm_bytes_and_manifest(tmp_path, capsys):
    out = tmp_path / "id2.txt"
    assert main(["gen-perm", "--family", "identity", "--n", "2", "--out", str(out)]) == 0
    assert read(out) == b"n=2\n0\n1\n2\n3\n"
    assert capsys.readouterr().out.strip() == str(out)
    manifest = json.loads(read(tmp_path / "id2.txt.manifest.json"))
    digest = hashlib.sha256(read(out)).hexdigest()
    assert manifest["outputs"]["id2.txt"] == f"sha256:{digest}"
    assert manifest["command"] == "gen-perm"


def test_gen_perm_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["gen-perm", "--family", "random", "--n", "4", "--seed", "7",
                     "--out", str(out)]) == 0
    assert read(a) == read(b)


def test_gen_perm_rejects_odd_n(tmp_path, capsys):
    assert main(["gen-perm", "--family", "identity", "--n", "3",
                 "--out", str(tmp_path / "x.txt")]) == 2
    assert "even" in capsys.readouterr().err


def test_gen_perm_rejects_unknown_family(capsys):
    assert main(["gen-perm", "--family", "nope", "--n", "2"]) == 2


def test_run_inv_csv(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["run-inv", "--family", "identity", "--n", "2", "--out", str(out)]) == 0
    lines = read(out).decode().splitlines()
    assert lines[0] == ",".join(RUN_CSV_COLUMNS)
    assert len(lines) == 5
    for x, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == "2" and cells[1] == "identity"
        assert cells[7] == str(x)
        assert cells[8] == "1"          # success_prob
        assert cells[9] == "0"          # v2_norm
        assert cells[10] == ""          # no failing stage
        assert cells[2] == cells[3] == cells[4] == cells[5] == cells[6] == ""


def test_run_inv_loads_perm_file(tmp_path):
    pfile = tmp_path / "p.txt"
    assert main(["gen-perm", "--family", "random", "--n", "4", "--seed", "3",
                 "--out", str(pfile)]) == 0
    out = tmp_path / "r.csv"
    assert main(["run-inv", "--perm-file", str(pfile), "--out", str(out)]) == 0
    assert len(read(out).decode().splitlines()) == 17


def test_run_inv_rejects_bad_perm_file(tmp_path, capsys):
    pfile = tmp_path / "bad.txt"
    pfile.write_text("n=2\n0\n0\n1\n2\n")
    assert main(["run-inv", "--perm-file", str(pfile), "--out", str(tmp_path / "r.csv")]) == 1
    assert "table lists main value 0 twice" in capsys.readouterr().err


def test_run_inv_refuses_an_all_blank_table_in_one_line(tmp_path, capsys, recwarn):
    pfile = tmp_path / "blank.txt"
    pfile.write_text("n=2\n\n\n\n\n")
    assert main(["run-inv", "--perm-file", str(pfile), "--out", str(tmp_path / "r.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not recwarn.list
    assert captured.err == "error: table rows must be decimal integers, one per line\n"


def test_run_inv_usage_errors(tmp_path, capsys):
    assert main(["run-inv", "--out", str(tmp_path / "r.csv")]) == 2
    assert main(["run-inv", "--family", "identity", "--out", str(tmp_path / "r.csv")]) == 2
    assert main(["run-inv", "--family", "identity", "--n", "2", "--x", "9",
                 "--out", str(tmp_path / "r.csv")]) == 2


# Errors that argparse itself finds: an unknown flag, a value of the wrong
# type, a flag without its value and a value that reads as a flag.
@pytest.mark.parametrize("argv", [
    pytest.param(["run-inv", "--family", "random", "--n", "4", "--bogus"], id="unknown-flag"),
    pytest.param(["run-inv", "--family", "random", "--n", "3.5"], id="n-3.5"),
    pytest.param(["test-stages", "--family", "random", "--n", "4", "--j-seed"],
                 id="trailing-j-seed"),
    pytest.param(["run-inv", "--family", "random", "--n", "4", "--threshold", "-inf"],
                 id="threshold--inf"),
    pytest.param(["check-lemmas", "--count", "many"], id="count-many"),
    pytest.param(["gen-perm", "--n", "4"], id="missing-family"),
    pytest.param([], id="no-command"),
])
def test_parse_errors_print_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert "usage:" not in captured.err


def test_run_avinv_trivial_matches_run_inv(tmp_path):
    exact = tmp_path / "exact.csv"
    approx = tmp_path / "approx.csv"
    args = ["--family", "random", "--n", "4", "--seed", "5"]
    assert main(["run-inv", *args, "--k", "1", "--out", str(exact)]) == 0
    assert main(["run-avinv", *args, "--a", "0", "--b", "0", "--out", str(approx)]) == 0
    exact_rows = [l.split(",") for l in read(exact).decode().splitlines()[1:]]
    approx_rows = [l.split(",") for l in read(approx).decode().splitlines()[1:]]
    assert [r[8] for r in exact_rows] == [r[8] for r in approx_rows]


def test_run_avinv_records_operator_metadata(tmp_path):
    out = tmp_path / "av.csv"
    assert main(["run-avinv", "--family", "random", "--n", "4", "--seed", "5",
                 "--bad-size", "2", "--j-seed", "11", "--out", str(out)]) == 0
    row = read(out).decode().splitlines()[1].split(",")
    assert row[1:3] == ["random", "5"]  # family, perm_seed
    assert row[3] == "0"                # a
    assert row[4] == fmt17(2 / 16)      # b
    assert row[5] == "2"                # bad_size
    assert row[6] == "11"               # j_seed


def test_run_avinv_accepts_serialized_operator(tmp_path):
    from qperminv import build_pseudo_identity, serialize_pseudo_identity

    jop = build_pseudo_identity(4, 1, a=0.0, b=2 / 16, seed=11)
    j_path = tmp_path / "op.txt"
    j_path.write_text(serialize_pseudo_identity(jop))
    args = ["--family", "random", "--n", "4", "--seed", "5"]
    by_file, by_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert main(["run-avinv", *args, "--j-file", str(j_path), "--out", str(by_file)]) == 0
    assert main(["run-avinv", *args, "--bad-size", "2", "--j-seed", "11",
                 "--out", str(by_flags)]) == 0
    assert read(by_file) == read(by_flags)
    # dimension mismatch against the permutation is a validation failure
    assert main(["run-avinv", "--family", "random", "--n", "6", "--seed", "5",
                 "--j-file", str(j_path), "--out", str(tmp_path / "bad.csv")]) == 1


def test_run_csv_identical_across_worker_counts(tmp_path):
    outs = []
    for workers, name in ((1, "w1.csv"), (8, "w8.csv")):
        out = tmp_path / name
        assert main(["run-avinv", "--family", "random", "--n", "6", "--seed", "2",
                     "--bad-size", "2", "--workers", str(workers), "--out", str(out)]) == 0
        outs.append(read(out))
    assert outs[0] == outs[1]


def test_check_lemmas_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "checks.json"
    code = main(["check-lemmas", "--n", "6", "--count", "60", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(read(out))
    assert report["all_pass"]
    names = [c["name"] for c in report["checks"]]
    assert "error-length-bound" in names and "parameter-identity" in names
    for check in report["checks"]:
        assert set(check) == {"name", "measured", "bound", "margin", "pass"}


def _suite_instances(n_max, count, seed):
    """Every randomized instance of the suite as `_suite_draws` draws it, in
    draw order: its parameter row, n, a, bad set, cosines, S and T, with the
    members as main values."""
    instances = {}
    for index, params, chunk in _suite_draws(n_max, count, seed):
        a, values, in_bad, in_s, in_t = chunk
        n = values.shape[1].bit_length() - 1
        for i in range(index.size):
            instances[int(index[i])] = (
                params[i], n, float(a[i]), np.flatnonzero(in_bad[i]), values[i],
                np.flatnonzero(in_s[i]), np.flatnonzero(in_t[i]))
    assert sorted(instances) == list(range(count))
    return [instances[i] for i in range(count)]


def _per_instance_entries(n_max, count, seed, k):
    """The randomized suite's two entries from one operator and both public
    bound checks per drawn instance, in draw order."""
    worst_len = worst_perp = None
    len_ok = perp_ok = True
    for params, n, a, bad, cosines, support, flipped in _suite_instances(n_max, count, seed):
        _, _, b_at, bad_at, angle_at = params.tolist()
        jop = PseudoIdentity(n, k, a, SUITE_B[b_at], bad, cosines, BAD_MODES[bad_at],
                             ANGLE_MODES[angle_at])
        rep = check_error_length_bound(jop, support, flipped)
        len_ok = len_ok and rep.passed
        if worst_len is None or rep.margin < worst_len.margin:
            worst_len = rep
        res = check_residual_bound(jop, support, flipped)
        perp_ok = perp_ok and res.passed
        if worst_perp is None or res.margin < worst_perp.margin:
            worst_perp = res

    def entry(name, measured, bound, passed):
        return {"name": name, "measured": measured, "bound": bound,
                "margin": bound - measured, "pass": passed}

    return [entry("error-length-bound", worst_len.measured, worst_len.bound, len_ok),
            entry("orthogonal-residual-bound", worst_perp.perp_norm, worst_perp.error_len,
                  perp_ok)]


# With many instances the least margin is 0, met by an instance whose cosines
# on S are all 1; the short suites (4, 3, 1, 1) and (16, 5, 1, 1) have no such
# instance, so a changed draw or fold order shows in their entries. In the
# second, the two entries come from different instances.
@pytest.mark.parametrize("n_max,count,seed,k", [(2, 50, 0, 1), (6, 400, 1, 1),
                                                 (8, 300, 2, 2), (16, 5, 4, 1),
                                                 (4, 3, 1, 1), (8, 4, 0, 2),
                                                 (16, 30, 3, 1), (8, 777, 5, 1),
                                                 (16, 5, 1, 1)])
def test_randomized_suite_matches_per_instance_checks(n_max, count, seed, k):
    assert lemma_battery(n_max, count, seed)[:2] == _per_instance_entries(n_max, count, seed, k)


def test_randomized_suite_draws_follow_the_instance_rules():
    combinations, n2_extremes = set(), set()
    for params, n, a, bad, cosines, support, flipped in _suite_instances(8, 10000, 0):
        half, a_at, b_at, bad_at, angle_at = params.tolist()
        assert n == 2 * half and a == SUITE_A[a_at] and cosines.size == 1 << n
        assert bad.size == bad_set_capacity(n, SUITE_B[b_at]) == np.unique(bad).size
        good = np.delete(cosines, bad)
        if ANGLE_MODES[angle_at] == "worst-case":
            assert (good == 1.0 - a).all()
        else:
            assert ((good >= 1.0 - a) & (good <= 1.0)).all()
        if BAD_MODES[bad_at] == "full-rotation":
            assert (cosines[bad] == 0.0).all()
        else:
            assert ((cosines[bad] >= -1.0) & (cosines[bad] <= 1.0)).all()
        assert 1 <= support.size == np.unique(support).size
        assert support.min() >= 0 and support.max() < 1 << n
        assert np.unique(flipped).size == flipped.size and np.isin(flipped, support).all()
        combinations.add((n, a_at, b_at, bad_at, angle_at))
        if n == 2:
            n2_extremes.update(name for name, met in (
                ("|S| = 1", support.size == 1), ("|S| = 2^n", support.size == 4),
                ("|T| = 0", flipped.size == 0), ("|T| = |S|", flipped.size == support.size))
                if met)
    assert len(combinations) == 4 * len(SUITE_A) * len(SUITE_B) * len(BAD_MODES) * len(ANGLE_MODES)
    assert n2_extremes == {"|S| = 1", "|S| = 2^n", "|T| = 0", "|T| = |S|"}


@pytest.mark.parametrize("n_max,count", [(8, 5000), (12, 5000), (16, 800)])
def test_randomized_suite_groups_keep_to_the_cosine_budget(n_max, count):
    for index, _, chunk in _suite_draws(n_max, count, 0):
        assert index.size == 1 or chunk[1].size <= SUITE_CHUNK


class _TiedKeys:
    """A generator whose uniforms take only `levels` values, so that keys tie
    at the thresholds; it keeps the integers it draws (|S|, then |T|)."""

    def __init__(self, seed, levels):
        self.rng, self.levels, self.drawn = np.random.default_rng(seed), levels, []

    def integers(self, *args, **kwargs):
        self.drawn.append(self.rng.integers(*args, **kwargs))
        return self.drawn[-1]

    def random(self, shape):
        return np.floor(self.rng.random(shape) * self.levels) / self.levels


@pytest.mark.parametrize("n,levels", [(2, 1), (2, 3), (4, 1), (4, 5), (8, 2), (8, 7)])
def test_suite_group_handles_key_ties(n, levels):
    count = max(1, SUITE_CHUNK >> n)
    # every a, b and mode combination in turn
    params = np.stack([np.full(count, n // 2), *np.unravel_index(
        np.arange(count) % 36, (len(SUITE_A), len(SUITE_B), 2, 2))], axis=1)
    rng = _TiedKeys(n, levels)
    chunk = _suite_group(rng, n, params)
    s_size = _suite_chunk(*chunk)[0]  # every check passes
    in_bad, in_s, in_t = chunk[2:]
    drawn_s, drawn_t = rng.drawn
    capacity = np.take([bad_set_capacity(n, b) for b in SUITE_B], params[:, 2])

    def members(mask):  # members per instance
        return np.count_nonzero(mask, axis=1)

    assert (s_size == drawn_s).all() and (members(in_s) == drawn_s).all()
    assert (members(in_t) == drawn_t).all() and not (in_t & ~in_s).any()
    assert (members(in_bad) == capacity).all()
    if levels == 1:  # every key ties: each set is the lowest main values of its row
        for mask, taken in ((in_s, drawn_s), (in_t, drawn_t), (in_bad, capacity)):
            assert np.array_equal(mask, np.arange(1 << n) < taken[:, None])


def test_randomized_suite_subsets_are_uniform():
    """At n = 2 and 4, each main value's count in S given (n, |S|), in T
    given (n, |T|) and in the bad set given (n, capacity) is within 5 sigma of
    N k / 2^n, for the N instances of that class. Given (|S|, |T|), a value
    is in T with probability |T| / 2^n whatever |S| is, so T's classes pool
    over |S|."""
    hits, total = {}, {}

    def tally(key, n, members):
        hits.setdefault(key, np.zeros(1 << n, dtype=np.int64))[members] += 1
        total[key] = total.get(key, 0) + 1

    for _, n, _, bad, _, support, flipped in _suite_instances(4, 20000, 7):
        tally(("S", n, support.size), n, support)
        tally(("T", n, flipped.size), n, flipped)
        tally(("bad", n, bad.size), n, bad)
    assert {(set_, n) for set_, n, _ in hits} == {(s, n) for s in ("S", "T", "bad") for n in (2, 4)}
    for (set_, n, k), counts in hits.items():
        p = k / (1 << n)
        expected, sigma = total[set_, n, k] * p, math.sqrt(total[set_, n, k] * p * (1 - p))
        assert (np.abs(counts - expected) <= 5 * sigma).all(), (set_, n, k, counts, expected)


# The battery's exhaustive residual runs at n_max, bad sizes 1, 2 and 4 with
# q = b^(-1/4) / sqrt(2 n): the entry is the run whose count{v2 > 1/q} comes
# nearest its Markov limit. (n_max, seed, k) -> (measured, bound) pins it.
@pytest.mark.parametrize("n_max,seed,k,pinned", [(8, 0, 1, (0.0, 23.516999492776478)),
                                                  (16, 0, 1, (1.0, 1026.8088959265708)),
                                                  (4, 9, 2, (0.0, 4.396665552857799))])
def test_markov_entry_is_the_residual_run_nearest_its_limit(n_max, seed, k, pinned):
    perm = build_permutation("random", n_max, seed=derive_seed(seed, f"battery-perm/n={n_max}"))
    runs = []
    for bad_size in (1, 2, 4):
        b = bad_size / (1 << n_max)
        jop = build_pseudo_identity(n_max, k, a=0.0, b=b, seed=derive_seed(
            seed, f"battery-jop/n={n_max}/bad={bad_size}"))
        runs.append(inversion_residual_stats(perm, jop, (1.0 / b) ** 0.25 / math.sqrt(2.0 * n_max)))
    worst = min(runs, key=lambda run: run.markov_limit - run.markov_count)
    entry = next(c for c in lemma_battery(n_max, 1, seed) if c["name"] == "residual-markov-count")
    assert entry == {"name": "residual-markov-count", "measured": float(worst.markov_count),
                     "bound": worst.markov_limit, "margin": worst.markov_limit - worst.markov_count,
                     "pass": all(run.markov_ok for run in runs)}
    assert (entry["measured"], entry["bound"]) == pinned


# Each entry's slack: BOUND_TOL for the bounds, 0 for the two identities (bound
# IDENTITY_TOL) and for the failure-count inequality (measured 0 or 1, bound 0.5).
ENTRY_SLACK = {"error-length-bound": 1e-9, "orthogonal-residual-bound": 1e-9,
               "overlap-ratio-identity": 0.0, "mean-error-length-bound": 1e-9,
               "mean-residual-bound": 1e-9, "residual-markov-count": 1e-9,
               "parameter-identity": 0.0, "failure-count-inequality": 0.0}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_max", range(2, 17, 2))
def test_every_entry_passes_by_its_own_printed_margin(n_max, seed, monkeypatch):
    residuals = []

    def recorded(*args):
        residuals.append(inversion_residual_stats(*args))
        return residuals[-1]

    monkeypatch.setattr(harness, "inversion_residual_stats", recorded)
    checks = lemma_battery(n_max, 50, seed)
    assert [c["name"] for c in checks] == list(ENTRY_SLACK)
    for c in checks:
        assert c["margin"] == c["bound"] - c["measured"]
        assert c["pass"] is (c["margin"] >= -ENTRY_SLACK[c["name"]]), c
    # The mean-residual entry reads every run, also those whose bound is above 1
    # and so does not apply: a residual is at most 1, so their margin is positive.
    assert len(residuals) == 3
    assert any(run.residual_bound > 1 for run in residuals) == (n_max <= 10)
    for run in residuals:
        assert run.residual_bound <= 1 or run.residual_bound - run.mean_v2 > 0


def _valid_chunk():
    """Three instances of one size n = 2, given per instance after n: a,
    cosines, sorted bad set, S and T."""
    cosines = [np.array([0.9995, 0.0, 1.0, 0.999]), np.ones(4),
               np.array([1.0 - 1e-6, 1.0, 1.0, -0.5])]
    return (2, [1e-3, 0.0, 1e-6], cosines,
            [np.array([1]), np.array([], dtype=np.int64), np.array([3])],
            [np.array([3, 1, 0]), np.array([2, 3]), np.array([0, 3])],
            [np.array([1]), np.array([], dtype=np.int64), np.array([3, 0])])


def _packed(n, a, cosines, bads, supports, flips):
    """Per-instance lists as `_suite_chunk` takes them: a, the cosines
    stacked, and each member set as a mask with one row per instance."""

    def masks(sets):
        mask = np.zeros((len(sets), 1 << n), dtype=bool)
        for row, members in zip(mask, sets):
            row[members] = True
        return mask

    return np.array(a), np.stack(cosines), masks(bads), masks(supports), masks(flips)


def test_suite_chunk_reduces_each_instance_as_alone():
    n, a, cosines, bads, supports, flips = _valid_chunk()
    s_size, s_bad, d = _suite_chunk(*_packed(n, a, cosines, bads, supports, flips))
    for i in range(len(a)):
        members = signed_support(supports[i], flips[i], n)[0]
        lut = _checked_bad_lut(cosines[i], bads[i], a[i])
        assert s_size[i] == members.size and s_bad[i] == lut[members].sum()
        assert d[i] == _deficit(SimpleNamespace(n=n, cosines=cosines[i]), supports[i], flips[i])[1]
    assert s_bad.tolist() == [1, 0, 1]


@pytest.mark.parametrize("n_max,count,seed", [(8, 300, 2), (16, 30, 3)])
def test_suite_chunk_d_is_the_per_instance_deficit(n_max, count, seed):
    """Every drawn instance's d equals `_deficit` on it with ==, also where
    summing S alone (np.mean) would round otherwise."""
    instances = _suite_instances(n_max, count, seed)
    for index, _, chunk in _suite_draws(n_max, count, seed):
        for i, d in zip(index.tolist(), _suite_chunk(*chunk)[2].tolist()):
            _, n, _, _, cosines, support, flipped = instances[i]
            assert d == _deficit(SimpleNamespace(n=n, cosines=cosines), support, flipped)[1]


# case number -> (field, instance, new value, message); fields index
# `_valid_chunk`'s tuple, and each T member given is a neighbour's S member.
# A mask cannot hold a member twice or out of range, so those faults have no
# case; the numbers are stable test ids.
CHUNK_CORRUPTIONS = {
    0: (2, 0, [0.9995, 0.0, 1.5, 0.999], "cosines must lie in"),
    1: (2, 2, [1.0, np.nan, 1.0, -0.5], "cosines must lie in"),
    2: (2, 1, [1.0, 1.0, 1.0, 1.0 - 1e-6], "good-state cosines"),
    3: (2, 2, [1.0 - 2e-6, 1.0, 1.0, -0.5], "good-state cosines"),
    4: (4, 2, [], "support must be nonempty"),
    9: (5, 2, [1], "flipped set must be a subset of the support"),
    10: (5, 0, [2], "flipped set must be a subset of the support"),
    11: (5, 1, [0], "flipped set must be a subset of the support"),
    12: (2, 2, [1.0 - 1e-6, 1.0, 1.0, np.nan], "cosines must lie in"),  # NaN on a bad entry
}


@pytest.mark.parametrize("field,instance,value,match", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-value{number}-{case[3]}")
    for number, case in CHUNK_CORRUPTIONS.items()])
def test_suite_chunk_refuses_corrupt_instances(field, instance, value, match):
    chunk = _valid_chunk()
    chunk[field][instance] = np.array(value, dtype=chunk[field][instance].dtype)
    with pytest.raises(ValueError, match=match):
        _suite_chunk(*_packed(*chunk))


def test_suite_chunk_checks_each_good_cosine_against_its_own_a():
    chunk = _valid_chunk()
    chunk[2][0][2] = 1.0 - 1e-3  # at 1 - a for instance 0
    _suite_chunk(*_packed(*chunk))
    chunk[2][1][2] = 1.0 - 1e-3  # below 1 - a = 1 for instance 1
    with pytest.raises(ValueError, match="good-state"):
        _suite_chunk(*_packed(*chunk))


# instance 1 of `_valid_chunk` (a = 0, S = {2, 3}, T = {}) -> its new cosines and bad set
CHUNK_EDGES = {
    "bad-at-minus-one-minus-slack": ([1.0, 1.0, -(1.0 + SCALAR_SLACK), 1.0], [2]),
    "good-above-one-on-S": ([1.0, 1.0, 1.0 + SCALAR_SLACK, 1.0], []),
    "good-above-one-off-S": ([1.0 + SCALAR_SLACK, 1.0, 1.0, 1.0], []),
    "ones-on-S-above-one-off-S": ([1.0 + SCALAR_SLACK, 1.0 + SCALAR_SLACK, 1.0, 1.0], []),
}


@pytest.mark.parametrize("cosines,bad", CHUNK_EDGES.values(), ids=CHUNK_EDGES)
def test_suite_chunk_accepts_edge_cosines_and_reduces_them_as_alone(cosines, bad):
    n, a, all_cosines, bads, supports, flips = _valid_chunk()
    all_cosines[1], bads[1] = np.array(cosines), np.array(bad, dtype=np.int64)
    d = _suite_chunk(*_packed(n, a, all_cosines, bads, supports, flips))[2]
    for i in range(len(a)):
        alone = _deficit(SimpleNamespace(n=n, cosines=all_cosines[i]), supports[i], flips[i])[1]
        assert d[i] == alone and math.copysign(1.0, d[i]) == math.copysign(1.0, alone)
    if (all_cosines[1][supports[1]] == 1.0).all():
        assert d[1] == 0.0 and math.copysign(1.0, d[1]) == 1.0


def test_randomized_suite_memory_does_not_grow_with_count():
    lemma_battery(8, 20, 1)  # one-time allocations (imports, caches) out of the way

    def peak(count):
        tracemalloc.start()
        try:
            lemma_battery(8, count, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20000) <= 1.5 * peak(2000)


def test_randomized_suite_builds_no_operator(monkeypatch):
    built = []

    def counting_build(*args, **kwargs):
        built.append(args)
        return build_pseudo_identity(*args, **kwargs)

    monkeypatch.setattr(harness, "build_pseudo_identity", counting_build)
    lemma_battery(4, 100, 0)
    assert len(built) == 6  # the exhaustive tail's three bad sizes, twice


def test_cached_parser_answers_as_a_fresh_one(capsys):
    argvs = [
        ["check-lemmas", "--n", "4", "--count", "20", "--seed", "3", "--k", "2"],
        ["params", "--r", "3", "--n", "10"],
        ["params", "--r", "3"],
        ["check-lemmas", "--n", "6", "--count", "10"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    in_one_parser = [run(argv) for argv in argvs]
    assert build_parser() is build_parser()
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert in_one_parser == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]


# Every command with a value that breaks one flag's rule, after valid flags
# that the later value overrides: (argv, flag, value, rule).
_N, _NON_NEG, _MASTER = "an even integer in [2, 16]", "an integer >= 0", "an integer in [0, 2^64)"
_FINITE, _COUNT = "a finite number", "an integer in [1, 1000000]"
_FAMILY_N4 = ["--family", "identity", "--n", "4"]
BAD_FLAGS = [
    *[(["gen-perm", *_FAMILY_N4], flag, value, rule) for flag, value, rule in (
        ("--n", "3", _N), ("--n", "18", _N), ("--seed", "-1", _NON_NEG))],
    *[([command, *_FAMILY_N4], flag, value, rule)
      for command in ("run-inv", "run-avinv", "test-stages") for flag, value, rule in (
          ("--n", "0", _N), ("--n", "7", _N), ("--n", "18", _N), ("--seed", "-1", _NON_NEG),
          ("--master-seed", "-1", _MASTER), ("--master-seed", str(2**64), _MASTER),
          ("--threshold", "nan", _FINITE), ("--threshold", "inf", _FINITE))],
    # operator flags are checked where no operator is built from them
    *[([command, *_FAMILY_N4], flag, value, rule)
      for command in ("run-avinv", "test-stages") for flag, value, rule in (
          ("--j-seed", "-1", _NON_NEG), ("--a", "nan", _FINITE), ("--b", "inf", _FINITE),
          ("--bad-size", "-3", _NON_NEG))],
    # checked before any file is opened, and before --k
    (["run-inv", "--perm-file", "missing.txt"], "--n", "3", _N),
    (["run-avinv", *_FAMILY_N4, "--j-file", "missing.txt"], "--j-seed", "-2", _NON_NEG),
    (["run-inv", "--family", "identity", "--k", "-1"], "--n", "5", _N),
    *[(["params", "--r", "1", "--n", "4"], "--r", value, _FINITE) for value in ("nan", "inf")],
    *[(["check-lemmas", "--n", "2", "--count", "1"], flag, value, rule) for flag, value, rule in (
        ("--count", "0", _COUNT), ("--n", "1", _N), ("--n", "7", _N),
        ("--n", "18", _N), ("--k", "0", "at least 1"), ("--seed", "-1", _MASTER),
        ("--seed", str(2**64), _MASTER))],
    # --mask is checked where no xor-mask permutation reads it
    *[([command, *_FAMILY_N4], "--mask", "-1", _NON_NEG)
      for command in ("gen-perm", "run-inv", "run-avinv", "test-stages")],
    # refused before the battery runs, whose time grows with --count
    *[(["check-lemmas", "--n", "2", "--count", "1"], "--count", value, _COUNT)
      for value in ("1000001", "99999999999999999999")],
]


def _flag_rows(lemmas: bool):
    return [pytest.param(argv, flag, value, rule, id=f"{flag[2:]}-{value}" if lemmas
                         else f"{argv[0]}-{flag[2:]}-{value}")
            for argv, flag, value, rule in BAD_FLAGS if (argv[0] == "check-lemmas") == lemmas]


def _assert_bad_flag(argv, flag, value, rule, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [*argv, flag, value] + ([] if argv[0] == "params" else ["--out", str(out)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {flag} must be {rule}, got {value}\n"


@pytest.mark.parametrize("argv, flag, value, rule", _flag_rows(lemmas=True))
def test_check_lemmas_rejects_bad_flags(argv, flag, value, rule, tmp_path, capsys):
    _assert_bad_flag(argv, flag, value, rule, tmp_path, capsys)


@pytest.mark.parametrize("argv, flag, value, rule", _flag_rows(lemmas=False))
def test_bad_flag_values_are_usage_errors(argv, flag, value, rule, tmp_path, capsys):
    _assert_bad_flag(argv, flag, value, rule, tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    pytest.param(["gen-perm", "--family", "identity", "--n", "2"], id="gen-perm-n2"),
    pytest.param(["gen-perm", "--family", "random", "--n", "16", "--seed", "0"], id="gen-perm-n16"),
    pytest.param(["gen-perm", "--family", "random", "--n", "2", "--seed", str(2**70)],
                 id="gen-perm-seed-2**70"),
    pytest.param(["run-inv", "--family", "random", "--n", "16", "--seed", "0", "--x", "0,1",
                  "--master-seed", str(2**64 - 1)], id="run-inv-n16"),
    pytest.param(["run-avinv", "--family", "random", "--n", "2", "--seed", "0", "--j-seed", "0",
                  "--a", "1", "--b", "1", "--bad-size", "0", "--master-seed", str(2**64 - 1),
                  "--x", "sample:2", "--workers", "-3"], id="run-avinv-edges"),
    pytest.param(["test-stages", "--family", "random", "--n", "2", "--seed", "0",
                  "--master-seed", "0", "--threshold", "0"], id="test-stages-seed-0"),
    pytest.param(["check-lemmas", "--n", "2", "--count", "1", "--seed", str(2**64 - 1)],
                 id="check-lemmas-seed-2**64-1"),
    pytest.param(["check-lemmas", "--n", "2", "--count", "1", "--seed", "0"],
                 id="check-lemmas-seed-0"),
])
def test_edge_flag_values_are_accepted(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == "" and out.exists()


def test_grid_and_flag_n_rule_is_perms_size_rule(monkeypatch):
    test, rule = harness._GRID_RULES["n"]
    assert rule == _N and [v for v in range(-2, 21) if test(v)] == list(range(2, 17, 2))
    assert not any(test(v) for v in (True, 4.0, "4", None, [4]))
    monkeypatch.setattr(perm_module, "DEFAULT_MAX_BITS", 20)  # the one cap
    assert [v for v in range(14, 24) if test(v)] == [14, 16, 18, 20]


def test_params_n_keeps_its_own_rule(capsys):
    assert main(["params", "--r", "1", "--n", "18"]) == 0
    assert main(["params", "--r", "1", "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: n must be even and >= 2, got 3\n"


def test_sweep_config_keys_share_the_flag_rules(tmp_path, capsys):
    cfg = sweep_config(tmp_path, master_seed=2**64 - 1)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
    assert capsys.readouterr().err == ""
    for overrides, message in (
            ({"master_seed": 2**64},
             "master_seed must be an integer in [0, 2^64), got 18446744073709551616"),
            ({"master_seed": -1}, "master_seed must be an integer in [0, 2^64), got -1"),
            ({"grid": {"n": [5], "family": [], "a": [], "bad_size": []}},
             "grid n values must be an even integer in [2, 16], got 5")):
        cfg = sweep_config(tmp_path, **overrides)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == f"error: invalid sweep config: {message}\n"


def test_workers_env_is_not_read(tmp_path, monkeypatch):
    monkeypatch.setenv("QPERMINV_WORKERS", "abc")
    assert main(["run-inv", "--family", "identity", "--n", "2",
                 "--out", str(tmp_path / "r.csv")]) == 0


@pytest.mark.parametrize("command", ["run-avinv", "test-stages"])
def test_j_file_with_out_of_range_cosine_line(tmp_path, command, capsys):
    jop = build_pseudo_identity(4, 1, a=1e-3, b=0.125, angle_mode="random",
                                bad_mode="random-angle", seed=5)
    lines = serialize_pseudo_identity(jop).splitlines()
    lines[-1] = "99 0.5"
    j_path = tmp_path / "op.txt"
    j_path.write_text("\n".join(lines) + "\n")
    argv = [command, "--family", "random", "--n", "4", "--seed", "5", "--j-file", str(j_path)]
    if command == "test-stages":
        argv += ["--provider", "pseudo"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "99" in err


def test_test_stages_exact_passes(tmp_path, capsys):
    code = main(["test-stages", "--family", "random", "--n", "6", "--seed", "4",
                 "--x", "sample:16"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] and payload["first_failing_stage"] is None


@pytest.mark.parametrize("corrupt", [0, 2])
def test_test_stages_corrupted_fails_at_stage(tmp_path, corrupt, capsys):
    code = main(["test-stages", "--family", "random", "--n", "6", "--seed", "4",
                 "--provider", "corrupted", "--corrupt-stage", str(corrupt)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["first_failing_stage"] == corrupt


def test_test_stages_usage_errors(capsys):
    for argv in (["--provider", "corrupted"],
                 ["--provider", "corrupted", "--corrupt-stage", "5"],
                 ["--provider", "exact", "--corrupt-stage", "9"],
                 ["--provider", "pseudo", "--corrupt-stage", "9"]):
        assert main(["test-stages", "--family", "random", "--n", "6", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert captured.err.startswith("error:") and "--corrupt-stage" in captured.err, argv


def sweep_config(tmp_path, **overrides):
    config = {
        "master_seed": 5,
        "grid": {"n": [6], "family": ["random"], "a": [0.0], "bad_size": [0, 2]},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_sweep_empty_grid(tmp_path):
    cfg = sweep_config(tmp_path, grid={"n": [], "family": [], "a": [], "bad_size": []})
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert read(out).decode() == ",".join(SWEEP_CSV_COLUMNS) + "\n"


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg = sweep_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(b)]) == 0
    assert read(a) == read(b)
    ma = json.loads(read(tmp_path / "a.csv.manifest.json"))
    mb = json.loads(read(tmp_path / "b.csv.manifest.json"))
    assert ma["outputs"]["a.csv"] == mb["outputs"]["b.csv"]


def test_sweep_invalid_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"master_seed": 5}))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 2
    path.write_text(json.dumps({"master_seed": 5, "grid": {"n": [5], "family": ["random"],
                                                           "a": [0.0], "bad_size": [0]}}))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 2


def test_sweep_grid_past_the_point_cap_is_refused(tmp_path, capsys):
    cap = harness.SWEEP_MAX_POINTS
    grid = {"n": [2] * 10, "family": ["identity"] * 10, "a": [0.0] * 10,
            "bad_size": [0] * (cap // 1000)}
    assert harness.validate_sweep_config({"master_seed": 0, "grid": grid})  # at the cap
    # four lists of 1000 values: 10^12 points
    config = {"master_seed": 0, "grid": {"n": [2] * 1000, "family": ["identity"] * 1000,
                                         "a": [0.0] * 1000, "bad_size": [0] * 1000}}
    with pytest.raises(ValueError, match="points"):  # so the CLI call below does no work
        harness.validate_sweep_config(config)
    path, out = tmp_path / "config.json", tmp_path / "s.csv"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("error: invalid sweep config: grid has 1000000000000 points, "
                            f"more than {cap}\n")


def test_sweep_sampled_x_mode(tmp_path):
    cfg = sweep_config(tmp_path, x_mode={"sample": 12},
                       grid={"n": [6], "family": ["random"], "a": [0.0], "bad_size": [1]})
    out = tmp_path / "sampled.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    row = read(out).decode().splitlines()[1].split(",")
    cols = dict(zip(SWEEP_CSV_COLUMNS, row))
    assert cols["x_mode"] == "sample" and cols["x_count"] == "12"
    manifest = json.loads(read(tmp_path / "sampled.csv.manifest.json"))
    assert "xs/n=6" in manifest["derived_seeds"]


def test_sweep_mean_residual_column_monotone_in_bad_size(tmp_path):
    cfg = sweep_config(tmp_path, grid={"n": [10], "family": ["random"], "a": [0.0],
                                       "bad_size": [0, 1, 2, 4]})
    out = tmp_path / "mono.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [l.split(",") for l in read(out).decode().splitlines()[1:]]
    col = SWEEP_CSV_COLUMNS.index("mean_v2_norm")
    means = [float(r[col]) for r in rows]
    assert means == sorted(means)
    assert means[0] == 0.0


def _valid_sweep_config():
    return {"master_seed": 5, "grid": {"n": [4], "family": ["random"], "a": [0.0],
                                       "bad_size": [1]}}


def _broken(change):
    config = _valid_sweep_config()
    change(config)
    return config


# (key the error must name, config that breaks one rule)
SWEEP_CONFIG_FAULTS = [
    ("master_seed", _broken(lambda c: c.pop("master_seed"))),
    ("grid", _broken(lambda c: c.pop("grid"))),
    ("extra", _broken(lambda c: c.update(extra=1))),
    ("depth", _broken(lambda c: c["grid"].update(depth=[1]))),
    ("bad_size", _broken(lambda c: c["grid"].pop("bad_size"))),
    ("master_seed", _broken(lambda c: c.update(master_seed=4.0))),
    ("k", _broken(lambda c: c.update(k=True))),
    ("bad_size", _broken(lambda c: c["grid"].update(bad_size=[4.0]))),
    ("n", _broken(lambda c: c["grid"].update(n=[True]))),
    ("n", _broken(lambda c: c["grid"].update(n=[5]))),
    ("n", _broken(lambda c: c["grid"].update(n=[18]))),
    ("family", _broken(lambda c: c["grid"].update(family=["gray-code"]))),
    ("family", _broken(lambda c: c["grid"].update(family="random"))),
    ("a", _broken(lambda c: c["grid"].update(a=[1.5]))),
    ("a", _broken(lambda c: c["grid"].update(a=[-0.25]))),
    ("a", _broken(lambda c: c["grid"].update(a=[math.nan]))),
    ("bad_size", _broken(lambda c: c["grid"].update(bad_size=[-1]))),
    ("x_mode", _broken(lambda c: c.update(x_mode="some"))),
    ("x_mode", _broken(lambda c: c.update(x_mode={"sample": 0}))),
    ("x_mode", _broken(lambda c: c.update(x_mode={"sample": 3, "x": 1}))),
    ("exceed_threshold", _broken(lambda c: c.update(exceed_threshold=0))),
    ("exceed_threshold", _broken(lambda c: c.update(exceed_threshold=math.inf))),
    ("exceed_threshold", _broken(lambda c: c.update(exceed_threshold=10**400))),
    ("perm_seed", _broken(lambda c: c.update(perm_seed=-1))),
    ("perm_seed", _broken(lambda c: (c.update(perm_seed=-1),
                                      c["grid"].update(family=["identity", "random"])))),
    ("j_seed", _broken(lambda c: c.update(j_seed=-3))),
    ("config", [_valid_sweep_config()]),
    ("master_seed", _broken(lambda c: c.update(master_seed=-1))),
    ("master_seed", _broken(lambda c: c.update(master_seed=2**64))),
]


@pytest.mark.parametrize("key, config", SWEEP_CONFIG_FAULTS,
                         ids=[f"{i}-{key}" for i, (key, _) in enumerate(SWEEP_CONFIG_FAULTS)])
def test_sweep_config_fault_names_its_key(key, config, tmp_path, capsys):
    with pytest.raises(ValueError, match=rf"\b{key}\b") as raised:
        harness.validate_sweep_config(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid sweep config: {raised.value}\n"
    assert not out.exists()


def _closed_form_rows(config):
    """Sweep rows rebuilt from the public closed forms on built operators, the
    x count and threshold count from the columns of the runs."""
    master, grid, threshold = config["master_seed"], config["grid"], config["exceed_threshold"]
    rows = []
    for n in grid["n"]:
        j_seed = derive_seed(master, f"pseudo-identity/n={n}")
        xs = None
        if config["x_mode"] != "all":
            xs = sample_xs(n, config["x_mode"]["sample"], derive_seed(master, f"xs/n={n}"))
        run_xs = np.arange(1 << n) if xs is None else xs
        for family in grid["family"]:
            perm_seed = derive_seed(master, f"perm/{family}/n={n}")
            perm = build_permutation(family, n, seed=perm_seed)
            for a in grid["a"]:
                for bad_size in grid["bad_size"]:
                    jop = build_pseudo_identity(n, config["k"], a, bad_size / (1 << n),
                                                config["bad_mode"], config["angle_mode"], j_seed)
                    stats = inversion_residual_stats(perm, jop, 1.0 / threshold, xs)
                    v2 = run_batch(perm, jop, run_xs, False, 0.0).v2_norm
                    tagged = [expected_error_sweep(perm, jop, j, True, xs).mean_error_len
                              for j in range(n // 2)]
                    plain = [expected_error_sweep(perm, jop, j, False, xs).mean_error_len
                             for j in range(1, n // 2 + 1)]
                    rows.append(",".join([
                        str(n), family, str(perm_seed), str(config["k"]), fmt17(a),
                        fmt17(jop.b), str(bad_size), str(j_seed),
                        "all" if xs is None else "sample", str(v2.size),
                        fmt17(stats.mean_success), fmt17(stats.mean_v2), fmt17(stats.max_v2),
                        fmt17(threshold), str(np.count_nonzero(v2 > threshold)),
                        fmt17(np.mean(tagged)), fmt17(np.mean(plain)),
                    ]))
    return rows


@pytest.mark.parametrize("x_mode", ["all", {"sample": 7}])
@pytest.mark.parametrize("modes", [("worst-case", "full-rotation"), ("random", "random-angle")])
@pytest.mark.parametrize("n", [2, 4, 6, 10])
def test_sweep_rows_match_public_closed_forms(n, modes, x_mode):
    config = harness.validate_sweep_config({
        "master_seed": n, "k": 2, "angle_mode": modes[0], "bad_mode": modes[1], "x_mode": x_mode,
        "exceed_threshold": 0.01,
        "grid": {"n": [n], "family": ["identity", "bit-reversal", "xor-mask", "affine-gf2",
                                      "random"], "a": [0.0, 0.3], "bad_size": [0, 3]},
    })
    got = harness.sweep_to_csv(harness.sweep_rows(config)[0])
    assert got == harness.sweep_to_csv(_closed_form_rows(config))


def test_sweep_builds_no_operator(tmp_path, monkeypatch):
    built = []
    init = PseudoIdentity.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PseudoIdentity, "__init__", counting_init)
    cfg = sweep_config(tmp_path, angle_mode="random", bad_mode="random-angle",
                       grid={"n": [4, 6], "family": ["random", "affine-gf2"], "a": [0.0, 1e-3],
                             "bad_size": [0, 2]})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
    assert built == []
    build_pseudo_identity(4, b=0.25)
    assert len(built) == 1


def test_no_command_calls_the_dense_simulator(tmp_path, monkeypatch, capsys):
    """Every `qperminv.qstate` function, wherever a qperminv module binds it,
    and `StateVector.__init__` count their calls: no command makes one."""
    perm, op = tmp_path / "perm.txt", tmp_path / "op.txt"
    op.write_text(serialize_pseudo_identity(build_pseudo_identity(4, a=1e-3, b=2 / 16, seed=3)))
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for key, module in list(sys.modules.items()):
        if key == "qperminv" or key.startswith("qperminv."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == "qperminv.qstate":
                    monkeypatch.setattr(module, attr, counting(attr, value))
    monkeypatch.setattr(StateVector, "__init__", counting("StateVector", StateVector.__init__))
    source = ["--family", "random", "--n", "4", "--seed", "7"]
    for argv, code in [
        (["gen-perm", *source, "--out", str(perm)], 0),
        (["run-inv", *source], 0),
        (["run-avinv", *source, "--bad-size", "2", "--a", "1e-3"], 0),
        (["run-avinv", "--perm-file", str(perm), "--bad-size", "2"], 0),
        (["run-avinv", *source, "--j-file", str(op)], 0),
        (["test-stages", *source], 0),
        (["test-stages", *source, "--provider", "pseudo", "--a", "1e-6"], 0),
        (["test-stages", *source, "--provider", "corrupted", "--corrupt-stage", "1"], 1),
        (["check-lemmas", "--n", "4", "--count", "50"], 0),
        (["sweep", "--config", str(sweep_config(tmp_path))], 0),
        (["params", "--r", "1", "--n", "4"], 0),
    ]:
        if argv[0] in ("run-inv", "run-avinv", "sweep"):
            argv = [*argv, "--out", str(tmp_path / "out.csv")]
        assert main(argv) == code, capsys.readouterr().err
        assert calls == [], argv
    sys.modules["qperminv.qstate"].make_signed_uniform([0], n=2)  # the wrappers count
    assert calls == ["make_signed_uniform", "signed_support", "support_members",
                     "support_members", "StateVector"]


def test_sweep_process_imports_no_jsonschema(tmp_path):
    cfg, out = sweep_config(tmp_path), tmp_path / "s.csv"
    code = ("import sys\n"
            "from qperminv.cli import main\n"
            f"assert main(['sweep', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
            "assert 'qperminv.harness' in sys.modules\n"
            "assert 'jsonschema' not in sys.modules, 'sweep imported jsonschema'\n")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_params_output(capsys):
    assert main(["params", "--r", "1", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "p=1024" in out and "q=2" in out and "hard_count=16" in out
    assert main(["params", "--r", "2", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "p=5184" in out and "q=3" in out and "hard_count=7" in out


def test_params_rejects_small_r(capsys):
    assert main(["params", "--r", "0.5", "--n", "4"]) == 2


def test_env_overrides_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QPERMINV_OUT_DIR", str(tmp_path))
    assert main(["gen-perm", "--family", "identity", "--n", "2"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith(str(tmp_path))
    assert os.path.exists(printed)


@pytest.mark.parametrize("argv", [
    ["run-inv", "--family", "identity", "--n", "4", "--threshold", "nan"],
    ["run-avinv", "--family", "identity", "--n", "4", "--a", "nan"],
    ["test-stages", "--family", "identity", "--n", "4", "--provider", "pseudo", "--b", "inf"],
    ["params", "--r", "nan", "--n", "4"],
    ["params", "--r", "1e200", "--n", "2"],
    ["params", "--r", "2", "--n", "2000"],
], ids=["threshold", "a", "b", "r", "r-overflow", "n-overflow"])
def test_non_finite_flags_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, *(["--out", str(out)] if argv[0] != "params" else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert "finite" in captured.err


def test_non_integer_sample_count_is_a_usage_error(tmp_path, capsys):
    assert main(["run-inv", "--family", "identity", "--n", "4", "--x", "sample:abc",
                 "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "sample:abc" in err


def _ends_small(argv, match, capsys, code=1):
    """Exit `code` with no large allocation on the way: with one error line
    holding `match`, or with none when the code is 0."""
    tracemalloc.start()
    try:
        got = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert got == code
    if code:
        assert err.count("\n") == 1 and err.startswith("error:") and match in err
    else:
        assert err == ""
    assert peak < 16 << 20


# No command builds a state vector, so --k is checked only for its least
# value and echoed in the manifest: no size of it is refused.
@pytest.mark.parametrize("argv, k", [
    pytest.param(["run-avinv", "--family", "identity", "--n", "16", "--k", "11", "--x", "0"], 11,
                 id="run-avinv-n16-k11"),
    pytest.param(["run-inv", "--family", "identity", "--n", "2", "--k", "40"], 40,
                 id="run-inv-k40"),
    pytest.param(["test-stages", "--family", "identity", "--n", "4", "--provider", "pseudo",
                  "--k", "40"], 40, id="test-stages-k40"),
    pytest.param(["check-lemmas", "--n", "2", "--count", "1", "--k", "40"], 40,
                 id="check-lemmas-k40"),
])
def test_any_ancilla_count_runs_and_is_echoed(argv, k, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["config"].get("k") == k


@pytest.mark.parametrize("head, code, match", [("40 1", 1, "error: bit length 40 exceeds the cap of 16\n"),
                                               ("4 0", 1, "error: pseudo-identity needs at least one ancilla qubit\n"),
                                               ("4 1000000000", 0, "")],
                         ids=["n-40", "k-0", "k-1e9"])
def test_operator_header_is_checked_before_allocation(head, code, match, tmp_path, capsys):
    j_path = tmp_path / "op.txt"
    j_path.write_text(f"{head} 0 0 worst-case/full-rotation -\nbad 0\nangles 0\n")
    _ends_small(["run-avinv", "--family", "random", "--n", "4", "--j-file", str(j_path),
                 "--out", str(tmp_path / "r.csv")], match, capsys, code)


# sizes compared by exponent, bounded before a division or only echoed (k):
# none builds an integer or float in proportion to its value (k or n of 10^9
# would build a 125 MB integer)
@pytest.mark.parametrize("argv, code, match", [
    pytest.param(["run-inv", "--family", "identity", "--n", "2", "--k", "1000000000"], 0, "",
                 id="run-inv-k-1e9"),
    pytest.param(["run-inv", "--family", "identity", "--n", "2", "--k", str(10**20)], 0, "",
                 id="run-inv-k-1e20"),
    pytest.param(["check-lemmas", "--k", "1000000000"], 0, "", id="check-lemmas-k-1e9"),
    pytest.param(["params", "--r", "1", "--n", "1000000000"], 2, "finite float range",
                 id="params-n-1e9"),
    pytest.param(["run-avinv", "--family", "random", "--n", "4", "--bad-size", str(10**400)], 1,
                 "exceeds 2^4", id="bad-size-1e400"),
    pytest.param(["run-avinv", "--family", "random", "--n", "4", "--bad-size", "-3"], 2,
                 "--bad-size must be an integer >= 0, got -3", id="bad-size-negative"),
    pytest.param(["run-avinv", "--family", "random", "--n", "4", "--bad-size", "17"], 1,
                 "bad_size 17 exceeds 2^4", id="bad-size-17"),
])
def test_huge_sizes_fail_small(argv, code, match, tmp_path, capsys):
    out = tmp_path / "out"
    _ends_small([*argv, *(["--out", str(out)] if argv[0] != "params" else [])], match, capsys,
                code)
    assert out.exists() == (code == 0)


def test_cli_fuzz_ends_every_call_in_an_exit_code(tmp_path):
    """tests/cli_fuzz.py, run in one child capped at 1 GiB of address space."""
    work = tmp_path / "work"
    work.mkdir()
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ, "PYTHONPATH": src, "QPERMINV_OUT_DIR": "out",
           "HYPOTHESIS_STORAGE_DIRECTORY": str(tmp_path / "hypothesis")}
    proc = subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__), "cli_fuzz.py")],
                          cwd=work, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.mark.parametrize("argv", [
    pytest.param(["run-inv", "--k", "-1"], id="run-inv"),
    pytest.param(["run-avinv", "--k", "-1"], id="run-avinv"),
    pytest.param(["test-stages", "--k", "-1"], id="test-stages"),
    # a pseudo-identity needs at least one ancilla qubit
    pytest.param(["run-avinv", "--k", "0"], id="run-avinv-k0"),
    pytest.param(["test-stages", "--provider", "pseudo", "--k", "0"], id="test-stages-pseudo-k0"),
])
def test_negative_k_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--family", "identity", "--n", "4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert "--k" in captured.err


def test_v2_norm_is_summed_off_the_target(tmp_path):
    # no bad set and one rotation for every y: the run is exact, so the
    # residual must not pick up the rounding of sqrt(1 - success)
    out = tmp_path / "r.csv"
    assert main(["run-avinv", "--family", "random", "--n", "8", "--seed", "3", "--a", "1e-3",
                 "--x", "0,1,2", "--out", str(out)]) == 0
    rows = read(out).decode().splitlines()[1:]
    col = RUN_CSV_COLUMNS.index("v2_norm")
    assert len(rows) == 3
    assert all(float(row.split(",")[col]) <= 1e-12 for row in rows)


@pytest.mark.parametrize("where", ["directory", "under-a-file"])
@pytest.mark.parametrize("command", ["run-inv", "gen-perm", "check-lemmas", "sweep"])
def test_unwritable_output_path_fails_cleanly(command, where, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    if where == "directory":
        blocker.mkdir()
        out = blocker
    else:
        blocker.write_text("taken\n")
        out = blocker / "sub.csv"
    argv = {
        "run-inv": ["run-inv", "--family", "identity", "--n", "2", "--out", str(out)],
        "gen-perm": ["gen-perm", "--family", "identity", "--n", "2", "--out", str(out)],
        "check-lemmas": ["check-lemmas", "--n", "2", "--count", "1", "--out", str(out)],
        "sweep": ["sweep", "--config", str(sweep_config(tmp_path, out=str(out)))],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert str(out) in captured.err
    assert not [name for _, _, names in os.walk(tmp_path) for name in names
                if name.endswith(".tmp")]


_OPERATOR_TEXT = serialize_pseudo_identity(build_pseudo_identity(4, 1, a=1e-3, b=2 / 16, seed=3))


def _operator_with(old, new):
    # one edit of '4 1 0.001 0.125 worst-case/full-rotation 3\nbad 2\n11\n15\nangles 0\n'
    assert _OPERATOR_TEXT.count(old) == 1
    return _OPERATOR_TEXT.replace(old, new)


# (exit code, message the one error line holds, input file name, its text)
REFUSED_INPUTS = {
    "deep-config": (2, "invalid sweep config: config is nested too deeply",
                    "config.json", "[" * 100_000 + "]" * 100_000),
    "perm-n-separator": (1, "'0_4'", "perm.txt",
                         "n=0_4\n" + "".join(f"{y}\n" for y in range(16))),
    "op-n-separator": (1, "'0_4'", "op.txt", _operator_with("4 1 ", "0_4 1 ")),
    "op-a-separator": (1, "'1_0e-1'", "op.txt", _operator_with(" 0.001 ", " 1_0e-1 ")),
    "op-seed-separator": (1, "'1_0'", "op.txt", _operator_with("rotation 3", "rotation 1_0")),
    "op-bad-member-separator": (1, "'1_1'", "op.txt", _operator_with("\n11\n", "\n1_1\n")),
    "op-bad-count-separator": (1, "'0_2'", "op.txt", _operator_with("bad 2", "bad 0_2")),
    "op-angles-count-separator": (1, "'0_0'", "op.txt", _operator_with("angles 0", "angles 0_0")),
    "op-negative-seed": (1, "operator seed must be non-negative, got -7", "op.txt",
                         _operator_with("rotation 3", "rotation -7")),
    "op-unknown-angle-mode": (1, "unknown angle mode 'bogus'", "op.txt",
                              _operator_with("worst-case/", "bogus/")),
    "op-unknown-bad-mode": (1, "unknown bad mode 'bogus'", "op.txt",
                            _operator_with("/full-rotation", "/bogus")),
    "perm-non-ascii": (1, "permutation file must be ASCII", "perm.txt", "n=2\n0\n1\n\u00d92\n3\n"),
    "op-non-ascii": (1, "pseudo-identity file must be ASCII", "op.txt",
                     _operator_with("angles 0", "angles\u00a00")),
    "op-n-odd": (1, "error: bit length must be an even integer >= 2, got 3\n", "op.txt",
                 _operator_with("4 1 ", "3 1 ")),
    "sweep-bad-size-past-2^n": (1, "bad_size 5 exceeds 2^2", "config.json", json.dumps(
        {"master_seed": 5, "grid": {"n": [2], "family": ["random"], "a": [0.0], "bad_size": [5]}})),
}


def _assert_refused_input(name, text, code, match, tmp_path, capsys):
    path, out = tmp_path / name, tmp_path / "out.csv"
    path.write_bytes(text.encode())
    argv = {"config.json": ["sweep", "--config", str(path)],
            "perm.txt": ["run-inv", "--perm-file", str(path)],
            "op.txt": ["run-avinv", "--family", "random", "--n", "4", "--j-file", str(path)]}[name]
    assert main([*argv, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert match in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("case", REFUSED_INPUTS)
def test_refused_input_files_give_one_error_line(case, tmp_path, capsys):
    code, match, name, text = REFUSED_INPUTS[case]
    _assert_refused_input(name, text, code, match, tmp_path, capsys)


@pytest.mark.parametrize("name,code", [("perm.txt", 1), ("op.txt", 1), ("config.json", 2)])
def test_input_files_past_the_cap_are_refused(name, code, tmp_path, capsys):
    text = " " * _MAX_FILE_BYTES + "\n"
    _assert_refused_input(name, text, code, f"is longer than {_MAX_FILE_BYTES} bytes",
                          tmp_path, capsys)


# files within the cap in characters, as universal newlines read them, but
# past it in UTF-8 bytes
CAP_IN_BYTES = {
    "non-ascii-config": ("config.json", 2, '{"out": "' + "\u00e9" * (_MAX_FILE_BYTES // 2) + '"}'),
    "crlf-operator": ("op.txt", 1, _OPERATOR_TEXT.replace("\n", "\r\n")
                      + "\r\n" * (_MAX_FILE_BYTES // 2)),
}


@pytest.mark.parametrize("case", CAP_IN_BYTES)
def test_input_files_past_the_cap_in_bytes_are_refused(case, tmp_path, capsys):
    name, code, text = CAP_IN_BYTES[case]
    assert len(text.replace("\r\n", "\n")) <= _MAX_FILE_BYTES < len(text.encode())
    _assert_refused_input(name, text, code, f"is longer than {_MAX_FILE_BYTES} bytes",
                          tmp_path, capsys)


def test_a_permutation_file_at_the_cap_is_read(tmp_path):
    rows = "n=2\n0\n1\n2\n3"
    path = tmp_path / "perm.txt"
    path.write_text(rows + " " * (_MAX_FILE_BYTES - len(rows) - 1) + "\n")
    assert load_permutation(path).table.tolist() == [0, 1, 2, 3]
    path.write_text(rows + " " * (_MAX_FILE_BYTES - len(rows)) + "\n")
    with pytest.raises(ValueError, match="longer than"):
        load_permutation(path)
