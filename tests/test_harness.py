"""CLI surface: file formats, CSV schemas, manifests, exit codes, determinism."""

import json
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc

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
    sample_xs,
    serialize_pseudo_identity,
)
from qperminv import harness
from qperminv.cli import build_parser, main
from qperminv.harness import (
    RUN_CSV_COLUMNS,
    SWEEP_CSV_COLUMNS,
    _suite_chunk,
    atomic_write_text,
    fmt17,
    lemma_battery,
    resolve_workers,
)
from qperminv.ops import _checked_bad_lut
from qperminv.qstate import signed_support


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QPERMINV_OUT_DIR", raising=False)
    monkeypatch.delenv("QPERMINV_WORKERS", raising=False)


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


def test_resolve_workers_clamps_to_cpu_count(monkeypatch):
    cpus = os.cpu_count() or 1
    monkeypatch.setenv("QPERMINV_WORKERS", "100000")
    assert resolve_workers(None) == cpus
    monkeypatch.setenv("QPERMINV_WORKERS", "0")
    assert resolve_workers(4) == 1
    monkeypatch.delenv("QPERMINV_WORKERS")
    assert resolve_workers(100000) == cpus
    assert resolve_workers(None) == 1


def test_bad_workers_env_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QPERMINV_WORKERS", "abc")
    assert main(["run-inv", "--family", "identity", "--n", "2",
                 "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "QPERMINV_WORKERS" in err
    assert not (tmp_path / "r.csv").exists()


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
    assert "bijection" in capsys.readouterr().err


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


def _per_instance_entries(n_max, count, seed, k):
    """The randomized suite's two entries from one built operator and both
    public bound checks per instance, drawn in the battery's order."""
    rng = np.random.default_rng(derive_seed(seed, "lemma-suite"))
    worst_len = worst_perp = None
    len_ok = perp_ok = True
    for _ in range(count):
        n = 2 * int(rng.integers(1, n_max // 2 + 1))
        a = (0.0, 1e-6, 1e-3)[rng.integers(0, 3)]
        b = (0.0, 1.0 / 16.0, 1.0 / 4.0)[rng.integers(0, 3)]
        jop = build_pseudo_identity(
            n, k, a=a, b=b,
            bad_mode=("full-rotation", "random-angle")[rng.integers(0, 2)],
            angle_mode=("worst-case", "random")[rng.integers(0, 2)],
            seed=int(rng.integers(0, 2**32)),
        )
        size = 1 << n
        s_size = int(rng.integers(1, size + 1))
        support = rng.choice(size, size=s_size, replace=False)
        flipped = rng.choice(support, size=int(rng.integers(0, s_size + 1)), replace=False)
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
# on S are all 1; the short suites have no such instance, so a changed draw
# order shows in their entries.
@pytest.mark.parametrize("n_max,count,seed,k", [(2, 50, 0, 1), (6, 400, 1, 1),
                                                 (8, 300, 2, 2), (16, 5, 4, 1),
                                                 (4, 3, 1, 1), (8, 4, 0, 2),
                                                 (16, 30, 3, 1), (8, 777, 5, 1)])
def test_randomized_suite_matches_per_instance_checks(n_max, count, seed, k):
    assert lemma_battery(n_max, count, seed, k)[:2] == _per_instance_entries(n_max, count, seed, k)


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
    entry = next(c for c in lemma_battery(n_max, 1, seed, k) if c["name"] == "residual-markov-count")
    assert entry == {"name": "residual-markov-count", "measured": float(worst.markov_count),
                     "bound": worst.markov_limit, "margin": worst.markov_limit - worst.markov_count,
                     "pass": all(run.markov_ok for run in runs)}
    assert (entry["measured"], entry["bound"]) == pinned


def _valid_chunk():
    """Three instances (n = 2, 4, 2) as `_suite_chunk` takes them: n, a,
    cosines, sorted bad set, S and T."""
    cosines = [np.array([0.9995, 0.0, 1.0, 0.999]), np.ones(16),
               np.array([1.0 - 1e-6, 1.0, 1.0, -0.5])]
    return ([2, 4, 2], [1e-3, 0.0, 1e-6], cosines,
            [np.array([1]), np.array([], dtype=np.int64), np.array([3])],
            [np.array([3, 1, 0]), np.array([15, 2, 7]), np.array([0, 3])],
            [np.array([1]), np.array([], dtype=np.int64), np.array([3, 0])])


def test_suite_chunk_reduces_each_instance_as_alone():
    ns, a, cosines, bads, supports, flips = _valid_chunk()
    s_size, s_bad, d = _suite_chunk(ns, a, cosines, bads, supports, flips)
    for i, n in enumerate(ns):
        members = signed_support(supports[i], flips[i], n)[0]
        lut = _checked_bad_lut(cosines[i], bads[i], a[i])
        assert s_size[i] == members.size and s_bad[i] == lut[members].sum()
        assert d[i] == np.mean(1.0 - cosines[i][members])
    assert s_bad.tolist() == [1, 0, 1]


# (field, instance, new value, message); fields index `_valid_chunk`'s tuple.
# Once offset, S member 4 of instance 0 falls in instance 1's range, and T
# members 6 of instance 0 and -1 of instance 1 fall on a neighbour's S member.
CHUNK_CORRUPTIONS = [
    (2, 0, [0.9995, 0.0, 1.5, 0.999], "cosines must lie in"),
    (2, 2, [1.0, np.nan, 1.0, -0.5], "cosines must lie in"),
    (2, 1, [1.0] * 15 + [1.0 - 1e-6], "good-state cosines"),
    (2, 2, [1.0 - 2e-6, 1.0, 1.0, -0.5], "good-state cosines"),
    (4, 2, [], "support must be nonempty"),
    (4, 1, [15, 2, 15], "support members must be distinct"),
    (4, 0, [3, 1, 4], "support member out of range for 2 bits"),
    (4, 1, [15, 16, 7], "support member out of range for 4 bits"),
    (4, 1, [-1, 2, 7], "support member out of range for 4 bits"),
    (5, 2, [1], "flipped set must be a subset of the support"),
    (5, 0, [6], "flipped set must be a subset of the support"),
    (5, 1, [-1], "flipped set must be a subset of the support"),
]


@pytest.mark.parametrize("field,instance,value,match", CHUNK_CORRUPTIONS)
def test_suite_chunk_refuses_corrupt_instances(field, instance, value, match):
    chunk = _valid_chunk()
    chunk[field][instance] = np.array(value, dtype=chunk[field][instance].dtype)
    with pytest.raises(ValueError, match=match):
        _suite_chunk(*chunk)


def test_suite_chunk_checks_each_good_cosine_against_its_own_a():
    chunk = _valid_chunk()
    chunk[2][0][2] = 1.0 - 1e-3  # at 1 - a for instance 0
    _suite_chunk(*chunk)
    chunk[2][1][2] = 1.0 - 1e-3  # below 1 - a = 1 for instance 1
    with pytest.raises(ValueError, match="good-state"):
        _suite_chunk(*chunk)


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


@pytest.mark.parametrize(
    "flags,match",
    [
        (["--count", "0"], "--count"),
        (["--n", "1"], "--n"),
        (["--n", "7"], "--n"),
        (["--n", "18"], "--n"),
        (["--k", "0"], "--k"),
    ],
    ids=["count-0", "n-1", "n-7", "n-18", "k-0"],
)
def test_check_lemmas_rejects_bad_flags(flags, match, capsys):
    assert main(["check-lemmas", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert match in captured.err


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
    """Sweep rows rebuilt from the public closed forms on built operators."""
    master, grid, threshold = config["master_seed"], config["grid"], config["exceed_threshold"]
    rows = []
    for n in grid["n"]:
        j_seed = derive_seed(master, f"pseudo-identity/n={n}")
        xs = None
        if config["x_mode"] != "all":
            xs = sample_xs(n, config["x_mode"]["sample"], derive_seed(master, f"xs/n={n}"))
        for family in grid["family"]:
            perm_seed = derive_seed(master, f"perm/{family}/n={n}")
            perm = build_permutation(family, n, seed=perm_seed)
            for a in grid["a"]:
                for bad_size in grid["bad_size"]:
                    jop = build_pseudo_identity(n, config["k"], a, bad_size / (1 << n),
                                                config["bad_mode"], config["angle_mode"], j_seed)
                    stats = inversion_residual_stats(perm, jop, 1.0 / threshold, xs)
                    tagged = [expected_error_sweep(perm, jop, j, True, xs).mean_error_len
                              for j in range(n // 2)]
                    plain = [expected_error_sweep(perm, jop, j, False, xs).mean_error_len
                             for j in range(1, n // 2 + 1)]
                    rows.append([
                        str(n), family, str(perm_seed), str(config["k"]), fmt17(a),
                        fmt17(jop.b), str(bad_size), str(j_seed),
                        "all" if xs is None else "sample", str(stats.v2_values.size),
                        fmt17(stats.mean_success), fmt17(stats.mean_v2), fmt17(stats.max_v2),
                        fmt17(threshold), str(stats.markov_check(threshold)[0]),
                        fmt17(np.mean(tagged)), fmt17(np.mean(plain)),
                    ])
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


def _fails_small(argv, match, capsys):
    """Exit 1 with one error line, and no large allocation on the way."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error:") and match in err
    assert peak < 16 << 20


def test_oversized_ancilla_is_refused_before_allocation(tmp_path, capsys):
    _fails_small(["run-inv", "--family", "identity", "--n", "2", "--k", "40",
                  "--out", str(tmp_path / "r.csv")], "cap", capsys)
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("head", ["40 1", "4 0"], ids=["n-40", "k-0"])
def test_operator_header_is_checked_before_allocation(head, tmp_path, capsys):
    j_path = tmp_path / "op.txt"
    j_path.write_text(f"{head} 0 0 worst-case/full-rotation -\nbad 0\nangles 0\n")
    _fails_small(["run-avinv", "--family", "random", "--n", "4", "--j-file", str(j_path),
                  "--out", str(tmp_path / "r.csv")], "header", capsys)


def test_test_stages_oversized_ancilla_fails_cleanly(capsys):
    _fails_small(["test-stages", "--family", "identity", "--n", "4", "--provider", "pseudo",
                  "--k", "40"], "cap", capsys)


def test_check_lemmas_oversized_ancilla_fails_cleanly(tmp_path, capsys):
    _fails_small(["check-lemmas", "--k", "40", "--out", str(tmp_path / "c.json")], "cap", capsys)
    assert not (tmp_path / "c.json").exists()


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
