"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math

import numpy as np
from qperminv import (
    EXACT_THRESHOLD,
    build_permutation,
    build_pseudo_identity,
    check_error_length_bound,
    check_residual_bound,
    compute_params,
    contradiction_check,
    expected_error_sweep,
    inversion_residual_stats,
    run_batch,
    run_stepwise_test,
)
from qperminv.cli import main
from qperminv.ops import (
    apply_pseudo_identity,
    apply_reflection_exact,
    apply_tagging,
    reflect_about_uniform,
)
from qperminv.qstate import StateVector, make_signed_uniform


def record(criterion: str, ok: bool) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion failed: {criterion}"


def family_instances(n):
    yield build_permutation("identity", n)
    yield build_permutation("bit-reversal", n)
    yield build_permutation("xor-mask", n, seed=101)
    yield build_permutation("affine-gf2", n, seed=17)
    for seed in (7, 8, 9):
        yield build_permutation("random", n, seed=seed)


def test_criterion_1_exact_inversion_with_stage_oracles():
    ok = True
    for n in (2, 4, 6, 8, 10):
        for perm in family_instances(n):
            # every x in one batch: the distance after stage j's reflection is
            # sqrt(2 d_j), after its tag the one after the previous reflection
            runs = run_batch(perm, None, range(perm.size), True, EXACT_THRESHOLD)
            after_reflect = np.sqrt(2.0 * runs.deficits)
            after_tag = np.pad(after_reflect[:, :-1], ((0, 0), (1, 0)))
            ok = ok and runs.x.tolist() == list(range(perm.size))
            ok = ok and runs.success_prob.min() >= 1.0 - 1e-9
            ok = ok and after_tag.max() <= 1e-9
            ok = ok and after_reflect.max() <= 1e-9
    record("1 exact inversion, all families, exhaustive x", ok)


def test_criterion_2_quarter_marked_reflection_is_exact():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        n = int(2 * rng.integers(1, 7))  # 2..12
        size = 1 << n
        s_size = 4 * int(rng.integers(1, size // 4 + 1))
        support = rng.choice(size, size=s_size, replace=False)
        flipped = rng.choice(support, size=s_size // 4, replace=False)
        state = make_signed_uniform(support, flipped, k=0, n=n)
        reflect_about_uniform(state, support)
        ok = ok and state.distance_to(make_signed_uniform(flipped, k=0, n=n)) <= 1e-12
    record("2 quarter-marked reflection lands exactly", ok)


def random_state(n, k, rng):
    amps = rng.normal(size=1 << (n + k)) + 1j * rng.normal(size=1 << (n + k))
    amps /= np.linalg.norm(amps)
    return StateVector(n, k, amps)


def test_criterion_3_operator_algebra():
    rng = np.random.default_rng(3)
    ok = True
    for n in (4, 8, 12):
        perm = build_permutation("random", n, seed=n)
        jop = build_pseudo_identity(n, 1, a=1e-3, b=1 / 16, angle_mode="random",
                                    bad_mode="random-angle", seed=n)
        x = int(rng.integers(0, 1 << n))
        j = n // 4
        for _ in range(100):
            state = random_state(n, 1, rng)
            before = state.amps.copy()
            apply_tagging(state, perm, x, j)
            ok = ok and abs(state.norm() - 1.0) <= 1e-9
            apply_tagging(state, perm, x, j)
            ok = ok and np.linalg.norm(state.amps - before) <= 1e-9

            apply_reflection_exact(state, perm, x, j)
            ok = ok and abs(state.norm() - 1.0) <= 1e-9
            apply_reflection_exact(state, perm, x, j)
            ok = ok and np.linalg.norm(state.amps - before) <= 1e-9

            apply_pseudo_identity(state, jop)
            ok = ok and abs(state.norm() - 1.0) <= 1e-9
            apply_pseudo_identity(state, jop, adjoint=True)
            ok = ok and np.linalg.norm(state.amps - before) <= 1e-9
    record("3 operator algebra: involutions, unitarity, norms", ok)


def test_criterion_4_randomized_bound_suite():
    rng = np.random.default_rng(4)
    a_choices = (0.0, 1e-6, 1e-3)
    b_choices = (0.0, 1 / 16, 1 / 4)
    violations = 0
    for _ in range(1000):
        n = int(2 * rng.integers(1, 5))  # 2..8
        size = 1 << n
        jop = build_pseudo_identity(
            n, 1,
            a=a_choices[rng.integers(0, 3)],
            b=b_choices[rng.integers(0, 3)],
            bad_mode=("full-rotation", "random-angle")[rng.integers(0, 2)],
            angle_mode=("worst-case", "random")[rng.integers(0, 2)],
            seed=int(rng.integers(0, 2**32)),
        )
        s_size = int(rng.integers(1, size + 1))
        support = rng.choice(size, size=s_size, replace=False)
        flipped = rng.choice(support, size=int(rng.integers(0, s_size + 1)), replace=False)
        if not check_error_length_bound(jop, support, flipped).passed:
            violations += 1
        if not check_residual_bound(jop, support, flipped).passed:
            violations += 1
    record("4 error-length and residual bounds, 1000 instances", violations == 0)


def test_criterion_5_exhaustive_expectation_identities():
    ok = True
    for n in (6, 8, 10):
        perm = build_permutation("random", n, seed=1)
        for bad_size in (1, 2, 4):
            jop = build_pseudo_identity(n, 1, a=2.0 ** (-2 * n), b=bad_size / (1 << n), seed=5)
            for with_tagged, j_values in ((True, range(n // 2)), (False, range(1, n // 2 + 1))):
                for j in j_values:
                    summary = expected_error_sweep(perm, jop, j, with_tagged=with_tagged)
                    ok = ok and summary.ratio_exact
                    ok = ok and summary.mean_error_len <= summary.error_bound + 1e-9
    record("5 exhaustive overlap identity and mean error bounds", ok)


def test_criterion_6_residual_aggregate_n10():
    n = 10
    perm = build_permutation("random", n, seed=11)
    ok = True
    for bad_size in (1, 2, 4):
        jop = build_pseudo_identity(n, 1, a=0.0, b=bad_size / 1024, seed=23)
        summary = inversion_residual_stats(perm, jop, q=2.0)
        bound = 2.0 * n * math.sqrt(bad_size / 1024)
        ok = ok and summary.mean_v2 <= bound + 1e-9
        markov = inversion_residual_stats(perm, jop, q=1 / (10 * summary.mean_v2))
        ok = ok and markov.markov_ok and markov.markov_count <= (1 << n) / 10
    empty = build_pseudo_identity(n, 1, a=0.0, b=0.0)
    ok = ok and inversion_residual_stats(perm, empty, q=2.0).mean_v2 <= 1e-9
    record("6 mean residual within 2n*sqrt(b), empirical averaging count", ok)


def test_criterion_7_parameter_calculus(capsys):
    ok = True
    for r in range(1, 101):
        ok = ok and contradiction_check(r)
        for n in range(2, 21, 2):
            ok = ok and abs(compute_params(r, n).q - (r + 1)) <= 1e-12
    assert main(["params", "--r", "1", "--n", "4"]) == 0
    out = capsys.readouterr().out
    ok = ok and "p=1024" in out and "q=2" in out
    with capsys.disabled():
        record("7 parameter identity, strict inequality, CLI output", ok)


def test_criterion_8_stepwise_harness(capsys):
    perm = build_permutation("random", 8, seed=7)
    ok = run_stepwise_test(perm, range(256)).all_pass
    for corrupt in (0, 1, 2, 3):
        report = run_stepwise_test(perm, range(256), corrupt_stage=corrupt)
        ok = ok and report.first_failing_stage == corrupt
        ok = ok and all(run_stepwise_test(perm, [x], corrupt_stage=corrupt).first_failing_stage
                        == corrupt for x in range(256))
    # exit codes through the CLI
    ok = ok and main(["test-stages", "--family", "random", "--n", "8", "--seed", "7",
                      "--x", "sample:8"]) == 0
    ok = ok and main(["test-stages", "--family", "random", "--n", "8", "--seed", "7",
                      "--provider", "corrupted", "--corrupt-stage", "2",
                      "--x", "sample:8"]) == 1
    ok = ok and main(["test-stages", "--family", "random", "--n", "8", "--seed", "7",
                      "--provider", "corrupted"]) == 2
    capsys.readouterr()
    with capsys.disabled():
        record("8 stepwise tester localizes the failing stage", ok)


def test_criterion_9_sweep_determinism_across_workers(tmp_path, monkeypatch):
    monkeypatch.delenv("QPERMINV_OUT_DIR", raising=False)
    config = {
        "master_seed": 99,
        "grid": {"n": [6], "family": ["random"], "a": [0.0], "bad_size": [0, 1, 2]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    payloads = []
    for workers, tag in ((1, "w1"), (8, "w8")):
        out = tmp_path / f"{tag}.csv"
        assert main(["sweep", "--config", str(cfg_path), "--workers", str(workers),
                     "--out", str(out)]) == 0
        with open(out, "rb") as fh:
            csv_bytes = fh.read()
        manifest = json.loads((tmp_path / f"{tag}.csv.manifest.json").read_text())
        payloads.append((csv_bytes, manifest["outputs"][f"{tag}.csv"], manifest["config"],
                         manifest["derived_seeds"]))
    ok = payloads[0][0] == payloads[1][0]
    ok = ok and payloads[0][1:] == payloads[1][1:]
    record("9 sweep outputs byte-identical across worker counts", ok)
