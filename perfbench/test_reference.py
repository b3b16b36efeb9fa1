"""The benchmark's reference against the program, exhaustively at small n.

Run from the repository root with
    PYTHONPATH=src python3 -m pytest -q perfbench/test_reference.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
from qperminv import analysis, harness, invert, ops, perm  # noqa: E402

SMALL_N = (2, 4, 6)


def _random_operator(n: int, seed: int) -> ops.PseudoIdentity:
    return ops.build_pseudo_identity(n, 1, a=1e-2, b=0.25, bad_mode="random-angle",
                                     angle_mode="random", seed=seed)


@pytest.mark.parametrize("n", SMALL_N)
def test_simulator_matches_dense_run_for_every_x(n):
    p = perm.build_permutation("random", n, seed=11 + n)
    jop = _random_operator(n, 5 + n)
    xs = np.arange(1 << n)
    success, fidelity = reference.simulate(p.table, jop.cosines, xs, chunk=5)
    for x in xs:
        report = invert.run_av_inv(p, int(x), jop, trace=True)
        assert abs(report.success_prob - success[x]) <= 1e-12
        assert np.allclose(report.trace.stage_fidelity, fidelity[x], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", SMALL_N)
def test_closed_form_error_length_matches_dense_for_every_x(n):
    p = perm.build_permutation("random", n, seed=3 * n)
    jop = _random_operator(n, n)
    for prefix_len in range(0, n + 1, 2):
        closed = reference.error_lengths(p.table, jop.cosines, prefix_len)
        for x in range(1 << n):
            support = perm.prefix_members(p, x, prefix_len)
            flipped = perm.prefix_members(p, x, prefix_len + 2) if prefix_len < n else ()
            assert abs(analysis.error_length(jop, support, flipped) - closed[x]) <= 1e-12


@pytest.mark.parametrize("n", SMALL_N)
def test_mean_error_lengths_match_sweep(n):
    p = perm.build_permutation("random", n, seed=n)
    jop = ops.build_pseudo_identity(n, 1, a=1e-3, b=1 / (1 << n), seed=9)
    tagged, plain = reference.mean_error_lengths(p.table, jop.cosines)
    want_tagged = np.mean([analysis.expected_error_sweep(p, jop, j).mean_error_len
                           for j in range(n // 2)])
    want_plain = np.mean([analysis.expected_error_sweep(p, jop, j, with_tagged=False).mean_error_len
                          for j in range(1, n // 2 + 1)])
    assert abs(tagged - want_tagged) <= 1e-12
    assert abs(plain - want_plain) <= 1e-12


@pytest.mark.parametrize("n", SMALL_N + (10,))
def test_seeded_constructions_match_program(n):
    for master in (0, 7, 2**40 + 3):
        seed = reference.derive_seed(master, f"perm/random/n={n}")
        assert seed == harness.derive_seed(master, f"perm/random/n={n}")
        assert np.array_equal(reference.fisher_yates(n, seed),
                              perm.build_permutation("random", n, seed=seed).table)
        for bad_size in (0, 1, 3):
            jop = ops.build_pseudo_identity(n, 1, a=1e-4, b=bad_size / (1 << n), seed=seed)
            assert np.array_equal(reference.worst_case_cosines(n, 1e-4, bad_size, seed),
                                  jop.cosines)
        assert list(reference.sample_xs(n, 3, seed)) == analysis.sample_xs(n, 3, seed)
