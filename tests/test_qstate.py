"""Statevector layout and signed uniform constructors."""

import numpy as np
import pytest

from qperminv import build_permutation
from qperminv.perm import prefix_members
from qperminv.qstate import StateVector, make_signed_uniform, support_members


def test_index_layout():
    state = StateVector(2, 1)
    assert state.dim == 8
    assert state.index_of(3, 1) == 7
    assert state.index_of(2, 0) == 4
    state.amps[state.index_of(1, 1)] = 0.5
    assert state.grid()[1, 1] == 0.5


def test_index_range_checks():
    state = StateVector(2, 1)
    with pytest.raises(ValueError, match="main"):
        state.index_of(4, 0)
    with pytest.raises(ValueError, match="ancilla"):
        state.index_of(0, 2)


def test_amplitude_vector_must_match_dims():
    with pytest.raises(ValueError, match="length"):
        StateVector(2, 0, np.zeros(5))


def test_signed_uniform_singleton():
    state = make_signed_uniform({5}, k=1, n=3)
    assert state.amps[state.index_of(5, 0)] == 1.0
    assert state.norm() == 1.0


def test_signed_uniform_example():
    state = make_signed_uniform({0, 1, 2, 3}, {3}, k=0, n=2)
    assert state.amps.tolist() == [0.5, 0.5, 0.5, -0.5]


def test_signed_uniform_norm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(2 * rng.integers(1, 5))
        size = 1 << n
        support = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
        flipped = rng.choice(support, size=int(rng.integers(0, len(support) + 1)), replace=False)
        state = make_signed_uniform(support, flipped, k=1, n=n)
        assert abs(state.norm() - 1.0) <= 1e-12


def test_signed_uniform_accepts_prefix_sets():
    perm = build_permutation("identity", 4)
    members = prefix_members(perm, 0b1010, 2)
    state = make_signed_uniform(members, n=4)
    assert abs(state.amps[8] - 0.5) < 1e-15


def test_support_members_sorts_and_dedupes():
    expected = [1, 3, 5]
    for support in ({5, 1, 3}, [3, 5, 1, 3], (v for v in (5, 5, 1, 3)),
                    np.array([5, 1, 3, 1], dtype=np.int32), np.array([1, 3, 5])):
        members = support_members(support)
        assert members.dtype == np.int64
        assert members.tolist() == expected
    assert support_members(()).tolist() == []
    assert support_members(np.array([7])).tolist() == [7]


def test_signed_uniform_rejects_bad_sets():
    with pytest.raises(ValueError, match="subset"):
        make_signed_uniform({0, 1}, {2}, n=2)
    # flipped members below, between and above the support, alone or with members of it
    for flipped in ([1], [5], [0, 3], [7, 9], [2, 4, 6, 8, 11]):
        with pytest.raises(ValueError, match="subset"):
            make_signed_uniform([2, 4, 6, 8, 10], flipped, n=4)
    with pytest.raises(ValueError, match="nonempty"):
        make_signed_uniform(set(), n=2)
    with pytest.raises(ValueError, match="range"):
        make_signed_uniform({4}, n=2)
    with pytest.raises(ValueError, match="required"):
        make_signed_uniform({1})


def test_state_size_is_capped_before_allocation():
    with pytest.raises(ValueError, match="cap"):
        StateVector(2, 40)
    with pytest.raises(ValueError, match="cap"):
        StateVector(16, 11)
    assert StateVector(16, 1).dim == 1 << 17
