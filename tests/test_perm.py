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
from qperminv.perm import _affine_table, _gf2_rank, prefix_members
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
    assert perm.inverse_table.tolist() == [1, 0, 3, 2]


def test_bit_reversal():
    perm = build_permutation("bit-reversal", 4)
    assert perm.table[0b0001] == 0b1000
    assert perm.table[0b1010] == 0b0101
    # reversing twice is the identity
    assert np.array_equal(perm.table[perm.table], np.arange(16))


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
    perm = Permutation(2, _affine_table([0b10, 0b01], 1, 2))
    assert perm.table.tolist() == [1, 0, 3, 2]


def _affine_per_bit(rows, offset, n):
    # the family's definition: one bit count per image bit, most significant first
    table = []
    for y in range(1 << n):
        v = 0
        for i, row in enumerate(rows):
            v = (v << 1) | (((y & row).bit_count() + (offset >> (n - 1 - i))) & 1)
        table.append(v)
    return np.array(table)


def _span_size(rows):
    span = np.zeros(1, dtype=np.int64)
    for row in rows:
        span = np.union1d(span, span ^ row)
    return span.size


def _seeded_affine_draw(n, seed):
    # the seeded family's draws: n row masks until they span all 2^n values, then the offset
    rng = np.random.default_rng(seed)
    while True:
        rows = [int(rng.integers(0, 1 << n)) for _ in range(n)]
        if _span_size(rows) == 1 << n:
            return rows, int(rng.integers(0, 1 << n))


def test_gf2_rank_is_the_span_dimension():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6, 8):
        for _ in range(300):
            # the and of two draws has few bits, so many row sets are dependent
            rows = (rng.integers(0, 1 << n, size=n) & rng.integers(0, 1 << n, size=n)).tolist()
            assert 1 << _gf2_rank(rows) == _span_size(rows), rows


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_affine_tables_match_the_per_bit_definition(seed):
    for n in range(2, 17, 2):
        rows, offset = _seeded_affine_draw(n, seed)
        perm = build_permutation("affine-gf2", n, seed=seed)
        assert np.array_equal(perm.table, _affine_per_bit(rows, offset, n)), n
        # explicit: the same rows in reverse order, the offset's complement
        offset = (1 << n) - 1 - offset
        assert np.array_equal(_affine_table(rows[::-1], offset, n),
                              _affine_per_bit(rows[::-1], offset, n)), n


@pytest.mark.parametrize("n", [2, 8, 16])
def test_doubled_tables_match_a_per_y_bit_loop(n):
    reversed_bits = [sum(((y >> k) & 1) << (n - 1 - k) for k in range(n)) for y in range(1 << n)]
    assert build_permutation("bit-reversal", n).table.tolist() == reversed_bits
    for seed in (1, 4):
        rows, offset = _seeded_affine_draw(n, seed)
        assert np.array_equal(build_permutation("affine-gf2", n, seed=seed).table,
                              _affine_per_bit(rows, offset, n)), seed


def test_bit_reversal_tables_match_string_reversal():
    for n in range(2, 17, 2):
        want = [int(format(y, f"0{n}b")[::-1], 2) for y in range(1 << n)]
        assert build_permutation("bit-reversal", n).table.tolist() == want, n


def test_affine_seeded_is_bijection():
    perm = build_permutation("affine-gf2", 6, seed=11)
    assert sorted(perm.table.tolist()) == list(range(64))
    again = build_permutation("affine-gf2", 6, seed=11)
    assert perm.table.tolist() == again.table.tolist()


# 2^n entries, each in range and none listed twice, form a bijection; the
# table is refused by the rule of every listing of main values
def test_from_table_rejects_non_bijection():
    with pytest.raises(ValueError, match="^table lists main value 0 twice$"):
        Permutation(2, [0, 0, 1, 2])


@pytest.mark.parametrize("table", [
    [-1, 0, 1, 2],  # as an index, -1 would be 3, the one value missing
    [3, 1, 2, -4],  # as an index, -4 would be 0, the one value missing
    [0, 1, 2, 4],  # an entry equal to 2^n
])
def test_from_table_rejects_entries_out_of_range(table):
    outside = next(v for v in table if not 0 <= v < 4)
    with pytest.raises(ValueError, match=f"^main value {outside} out of range for 2 bits$"):
        Permutation(2, table)


def test_odd_and_oversized_n_rejected():
    with pytest.raises(ValueError, match="even"):
        build_permutation("identity", 3)
    with pytest.raises(ValueError, match="cap"):
        build_permutation("identity", 18)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown"):
        build_permutation("no-such-family", 2)


def test_forward_and_inverse_lookups():
    perm = Permutation(2, [2, 0, 3, 1])
    assert perm.family == "from-table" and perm.seed is None
    assert perm.table[3] == 1
    assert perm.inverse_table.tolist() == [1, 3, 0, 2]


@pytest.mark.parametrize("family,kwargs", FAMILY_CASES)
def test_roundtrip_is_identity(family, kwargs):
    perm = build_permutation(family, 6, **kwargs)
    assert np.array_equal(perm.inverse_table[perm.table], np.arange(perm.size))
    assert np.array_equal(perm.table[perm.inverse_table], np.arange(perm.size))


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
        ("n=2\n0\n0\n2\n3\n", "twice"),
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
# sign, spaces or tabs around them. Lines end only at LF, the last one too;
# CR, vertical tab and form feed read as spaces; \x1c-\x1f are refused.
@pytest.mark.parametrize(
    "text,expected",
    [
        (_table_text(["0", "1", "2", "3"], eol="\r\n"), None),
        (_table_text(["+0", "1", "+2", "3"]), None),
        (_table_text([" 0", "1 ", "\t2\t", " \t3"]), None),
        (_table_text(["\r0", "1\r", "2", "3"]), None),
        (_table_text(["\x0c0", "1\x0b", "2", "3"]), None),
        (_table_text(["0", "-0", "2", "3"]), "table lists main value 0 twice"),
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
        (_table_text(["0", "1\x1c", "2", "3"]), "separator"),
        (_table_text([*_SIXTEEN[:4], "\u0664", *_SIXTEEN[5:]], n=4), "ASCII"),
        (_table_text(_SIXTEEN, n="0_4"), "invalid literal"),
        (_table_text(["0", "1\x1d", "2", "3"]), "separator"),
        (_table_text(["0\x1e", "1", "2", "3"]), "separator"),
        (_table_text(["0", "1", "2", "3"], eol="\r"), "must end with a newline"),
        (_table_text(["0", "1", "2", "3"])[:-1], "must end with a newline"),
        (_table_text(["0", "1", "2", "3", ""]), "expected 4 table rows, found 5"),
        (_table_text(["0", "1", "2", "3", "junk"]), "expected 4 table rows, found 5"),
    ],
    ids=["crlf", "plus-sign", "spaces-and-tabs", "stray-cr", "form-feed-and-vtab",
         "minus-zero", "blank-row", "extra-blank-row", "all-blank", "all-whitespace",
         "comment-row", "trailing-comment", "two-tokens", "two-columns", "cr-inside-row",
         "float-row", "int64-overflow", "negative", "quoted", "nul-after-digit",
         "nul-row", "digit-separator", "file-separator", "non-ascii-digit",
         "header-digit-separator", "group-separator", "record-separator", "cr-line-ends",
         "no-final-newline", "blank-line-after", "junk-line-after"],
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
