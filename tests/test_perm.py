"""Permutation families, prefix sets, and the permutation file format."""

import numpy as np
import pytest

from qperminv import (
    Permutation,
    build_permutation,
    permutation_from_text,
    permutation_to_text,
)
from qperminv.ops import apply_tagging
from qperminv.perm import prefix_members
from qperminv.qstate import StateVector

FAMILY_CASES = [
    ("identity", {}),
    ("bit-reversal", {}),
    ("xor-mask", {"mask": 5}),
    ("affine-gf2", {"seed": 3}),
    ("random", {"seed": 7}),
]


def test_identity_table():
    perm = build_permutation("identity", 2)
    assert perm.table.tolist() == [0, 1, 2, 3]


def test_xor_mask_table():
    # each y XORed with the mask, enumerated by hand
    perm = build_permutation("xor-mask", 2, mask=0b01)
    assert perm.table.tolist() == [1, 0, 3, 2]
    assert perm.forward(2) == 3
    assert perm.inverse(3) == 2


def test_bit_reversal():
    perm = build_permutation("bit-reversal", 4)
    assert perm.forward(0b0001) == 0b1000
    assert perm.forward(0b1010) == 0b0101
    # reversing twice is the identity
    assert all(perm.forward(perm.forward(y)) == y for y in range(16))


def test_random_is_seed_deterministic():
    a = build_permutation("random", 4, seed=7)
    b = build_permutation("random", 4, seed=7)
    assert a.table.tolist() == b.table.tolist()
    c = build_permutation("random", 4, seed=8)
    assert a.table.tolist() != c.table.tolist()


def _fisher_yates_per_draw(size, seed):
    # the family's definition: one rng.integers(0, i + 1) call per swap
    rng = np.random.default_rng(seed)
    table = np.arange(size, dtype=np.int64)
    for i in range(size - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        table[i], table[j] = table[j], table[i]
    return table


@pytest.mark.parametrize("seed", [0, 7, 12345678901234567, 2**63 + 5])
def test_random_family_matches_one_draw_per_swap(seed):
    for n in range(2, 17, 2):
        perm = build_permutation("random", n, seed=seed)
        assert np.array_equal(perm.table, _fisher_yates_per_draw(1 << n, seed)), n


def test_affine_explicit_matrix():
    # identity matrix with offset 1 is the xor-mask-1 permutation
    perm = build_permutation("affine-gf2", 2, matrix=[0b10, 0b01], offset=1)
    assert perm.table.tolist() == [1, 0, 3, 2]


def test_affine_rejects_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        build_permutation("affine-gf2", 2, matrix=[0b11, 0b11])


def test_affine_seeded_is_bijection():
    perm = build_permutation("affine-gf2", 6, seed=11)
    assert sorted(perm.table.tolist()) == list(range(64))
    again = build_permutation("affine-gf2", 6, seed=11)
    assert perm.table.tolist() == again.table.tolist()


def test_from_table_rejects_non_bijection():
    with pytest.raises(ValueError, match="bijection"):
        build_permutation("from-table", 2, table=[0, 0, 1, 2])


def test_odd_and_oversized_n_rejected():
    with pytest.raises(ValueError, match="even"):
        build_permutation("identity", 3)
    with pytest.raises(ValueError, match="cap"):
        build_permutation("identity", 18)
    build_permutation("identity", 18, max_bits=18)  # cap is configurable


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown"):
        build_permutation("no-such-family", 2)


def test_forward_and_inverse_lookups():
    perm = build_permutation("xor-mask", 2, mask=1)
    assert perm.forward(3) == 2
    assert perm.inverse(2) == 3
    with pytest.raises(ValueError, match="range"):
        perm.forward(4)
    with pytest.raises(ValueError, match="range"):
        perm.inverse(-1)


@pytest.mark.parametrize("family,kwargs", FAMILY_CASES)
def test_roundtrip_is_identity(family, kwargs):
    perm = build_permutation(family, 6, **kwargs)
    for y in range(perm.size):
        assert perm.inverse(perm.forward(y)) == y


def test_prefix_set_empty_prefix_is_everything():
    perm = build_permutation("random", 4, seed=1)
    assert prefix_members(perm, 0b0110, 0).tolist() == list(range(16))


def test_prefix_set_identity_example():
    # top two bits of y equal to 10
    perm = build_permutation("identity", 4)
    members = prefix_members(perm, 0b1010, 2)
    assert members.dtype == np.int64
    assert members.tolist() == [8, 9, 10, 11]


@pytest.mark.parametrize("family,kwargs", FAMILY_CASES)
def test_prefix_set_sizes(family, kwargs):
    perm = build_permutation(family, 6, **kwargs)
    for x in (0, 13, 63):
        for prefix_len in (0, 2, 4, 6):
            assert prefix_members(perm, x, prefix_len).size == 2 ** (6 - prefix_len)


def test_prefix_set_rejects_bad_args():
    perm = build_permutation("identity", 4)
    with pytest.raises(ValueError, match="even"):
        prefix_members(perm, 0, 3)
    with pytest.raises(ValueError, match="range"):
        prefix_members(perm, 16, 2)
    with pytest.raises(ValueError):
        prefix_members(perm, 0, 6)
    with pytest.raises(ValueError):
        prefix_members(perm, 0, -2)


def test_nesting_and_quarter_ratio():
    perm = build_permutation("random", 8, seed=3)
    for x in (0, 77, 255):
        for j in range(4):
            stage = prefix_members(perm, x, 2 * j)
            tagged = prefix_members(perm, x, 2 * j + 2)
            assert np.isin(tagged, stage).all()
            assert tagged.size * 4 == stage.size


def test_tagged_set_is_next_stage_set():
    # the stage-j tag, restricted to the stage-j set, marks exactly the y
    # with the next (two bits longer) prefix
    perm = build_permutation("random", 6, seed=9)
    for x in (5, 40):
        for j in range(3):
            state = StateVector(6, 0)
            state.amps[prefix_members(perm, x, 2 * j)] = 1.0
            apply_tagging(state, perm, x, j)
            marked = np.nonzero(state.amps.real < 0)[0]
            assert marked.tolist() == prefix_members(perm, x, 2 * j + 2).tolist()


def test_prefix_sets_partition_domain():
    perm = build_permutation("random", 6, seed=4)
    for j in (1, 2, 3):
        seen = []
        for prefix in range(2 ** (2 * j)):
            x = prefix << (6 - 2 * j)
            seen.extend(prefix_members(perm, x, 2 * j).tolist())
        assert sorted(seen) == list(range(64))


@pytest.mark.parametrize("family,kwargs", FAMILY_CASES)
def test_membership_stats_exact(family, kwargs):
    # each y lies in the stage-j set of exactly 2^n / 4^j of the x
    perm = build_permutation(family, 4, **kwargs)
    for j in range(3):
        counts = np.zeros(16, dtype=np.int64)
        for x in range(16):
            counts[prefix_members(perm, x, 2 * j)] += 1
        assert counts.tolist() == [16 >> 2 * j] * 16


def test_permutation_file_bytes():
    perm = build_permutation("identity", 2)
    assert permutation_to_text(perm) == "n=2\n0\n1\n2\n3\n"


def test_permutation_file_roundtrip():
    perm = build_permutation("random", 6, seed=12)
    text = permutation_to_text(perm)
    loaded = permutation_from_text(text)
    assert loaded.n == 6
    assert loaded.table.tolist() == perm.table.tolist()
    assert permutation_to_text(loaded) == text


@pytest.mark.parametrize(
    "text,match",
    [
        ("n=2\n0\n1\n2\n3", "newline"),
        ("m=2\n0\n1\n2\n3\n", "n=<int>"),
        ("n=2\n0\n1\n2\n", "rows"),
        ("n=2\n0\n1\n2\n3\n4\n", "rows"),
        ("n=2\n0\n1\nx\n3\n", "decimal"),
        ("n=2\n0\n1\n2\n7\n", "range"),
        ("n=2\n0\n0\n2\n3\n", "bijection"),
        ("n=3\n0\n", "even"),
    ],
)
def test_permutation_file_strictness(text, match):
    with pytest.raises(ValueError, match=match):
        permutation_from_text(text)


def _table_text(rows, n=2, eol="\n"):
    return eol.join([f"n={n}", *rows]) + eol


_SIXTEEN = [str(v) for v in range(16)]


# Each file is accepted with the table 0, 1, ... or refused with the message.
# Rows are read by numpy's text reader: decimal integers with an optional
# sign, spaces or tabs around them, LF or CRLF line ends.
@pytest.mark.parametrize(
    "text,expected",
    [
        (_table_text(["0", "1", "2", "3"], eol="\r\n"), None),
        (_table_text(["+0", "1", "+2", "3"]), None),
        (_table_text([" 0", "1 ", "\t2\t", " \t3"]), None),
        (_table_text(["\r0", "1\r", "2", "3"]), None),
        (_table_text(["\x0c0", "1\x0b", "2", "3"]), None),
        (_table_text(["0", "-0", "2", "3"]), "bijection"),
        (_table_text(["0", "", "2", "3"]), "decimal integers, one per line"),
        (_table_text(["0", "1", "", "2", "3"]), "expected 4 table rows, found 5"),
        (_table_text(["", "", "", ""]), "decimal integers, one per line"),
        (_table_text([" ", "\t", " \t", ""]), "decimal integers, one per line"),
        (_table_text(["#0", "1", "2", "3"]), "decimal integers"),
        (_table_text(["0", "1 # one", "2", "3"]), "decimal integers"),
        (_table_text(["0", "1 1", "2", "3"]), "decimal integers"),
        (_table_text(["0 0", "1 1", "2 2", "3 3"]), "decimal integers, one per line"),
        (_table_text(["0\r1", "2", "3", "3"]), "decimal integers"),
        (_table_text(["0", "1", "2.0", "3"]), "decimal integers"),
        (_table_text(["0", "1", "2", "99999999999999999999"]), "decimal integers"),
        (_table_text(["0", "1", "2", "-3"]), "out of range"),
        (_table_text(['"0"', "1", "2", "3"]), "decimal integers"),
        (_table_text(["0", "1\x00", "2", "3"]), "decimal integers"),
        (_table_text(["0", "\x00", "2", "3"]), "decimal integers"),
        (_table_text([*_SIXTEEN[:10], "1_0", *_SIXTEEN[11:]], n=4), "decimal integers"),
        (_table_text(["0", "1\x1c", "2", "3"]), "decimal integers"),
        (_table_text([*_SIXTEEN[:4], "\u0664", *_SIXTEEN[5:]], n=4), "ASCII"),
    ],
    ids=["crlf", "plus-sign", "spaces-and-tabs", "stray-cr", "form-feed-and-vtab",
         "minus-zero", "blank-row", "extra-blank-row", "all-blank", "all-whitespace",
         "comment-row", "trailing-comment", "two-tokens", "two-columns", "cr-inside-row",
         "float-row", "int64-overflow", "negative", "quoted", "nul-after-digit",
         "nul-row", "digit-separator", "file-separator", "non-ascii-digit"],
)
def test_permutation_file_parity(text, expected, recwarn):
    if expected is None:
        assert permutation_from_text(text).table.tolist() == list(range(4))
    else:
        with pytest.raises(ValueError, match=expected):
            permutation_from_text(text)
    assert not recwarn.list


def test_direct_construction_checks_table_shape():
    with pytest.raises(ValueError, match="entries"):
        Permutation(2, [0, 1, 2])
