"""Bit-string permutations and the prefix sets that drive the staged inversion.

Bits are indexed from the most significant side: a prefix of length L means
the top L bits of the integer encoding.
"""

from __future__ import annotations

import numpy as np

DEFAULT_MAX_BITS = 16

FAMILIES = ("identity", "bit-reversal", "xor-mask", "affine-gf2", "random", "from-table")


def _check_bits(n: int, max_bits: int) -> None:
    if n < 2 or n % 2 != 0:
        raise ValueError(f"bit length must be an even integer >= 2, got {n}")
    if n > max_bits:
        raise ValueError(f"bit length {n} exceeds the cap of {max_bits}")


def _check_value(v: int, n: int) -> None:
    if not 0 <= v < (1 << n):
        raise ValueError(f"value {v} out of range for {n} bits")


def _check_values(xs, n: int) -> np.ndarray:
    """xs as a nonempty int64 array of values in [0, 2^n)."""
    xs = np.asarray(xs, dtype=np.int64).reshape(-1)
    if xs.size == 0:
        raise ValueError("need at least one x value")
    _check_value(int(xs.min()), n)
    _check_value(int(xs.max()), n)
    return xs


class Permutation:
    """Explicit bijection on n-bit values with a precomputed inverse table."""

    __slots__ = ("n", "table", "inverse_table", "family", "seed")

    def __init__(
        self,
        n: int,
        table,
        family: str = "from-table",
        seed: int | None = None,
        max_bits: int = DEFAULT_MAX_BITS,
    ):
        _check_bits(n, max_bits)
        table = np.array(table, dtype=np.int64)
        size = 1 << n
        if table.shape != (size,):
            raise ValueError(f"table must have exactly {size} entries, got shape {table.shape}")
        if not np.array_equal(np.sort(table), np.arange(size)):
            raise ValueError("table is not a bijection on [0, 2^n)")
        inverse = np.empty(size, dtype=np.int64)
        inverse[table] = np.arange(size, dtype=np.int64)
        self.n = int(n)
        self.table = table
        self.inverse_table = inverse
        self.family = family
        self.seed = seed

    @property
    def size(self) -> int:
        return 1 << self.n

    def forward(self, v: int) -> int:
        _check_value(v, self.n)
        return int(self.table[v])

    def inverse(self, v: int) -> int:
        _check_value(v, self.n)
        return int(self.inverse_table[v])

    def __repr__(self) -> str:
        return f"Permutation(family={self.family!r}, n={self.n}, seed={self.seed})"


def _reverse_bits(v: int, n: int) -> int:
    return int(format(v, f"0{n}b")[::-1], 2)


def _gf2_rank(rows: list[int], n: int) -> int:
    rows = [int(r) for r in rows]
    rank = 0
    for bit in range(n - 1, -1, -1):
        pivot = None
        for i in range(rank, len(rows)):
            if (rows[i] >> bit) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> bit) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def _affine_table(rows: list[int], offset: int, n: int) -> np.ndarray:
    size = 1 << n
    out = np.empty(size, dtype=np.int64)
    for y in range(size):
        v = 0
        for i, row in enumerate(rows):
            bit = ((y & row).bit_count() + (offset >> (n - 1 - i))) & 1
            v = (v << 1) | bit
        out[y] = v
    return out


def _fisher_yates(size: int, seed: int) -> np.ndarray:
    """Swap i with rng.integers(0, i + 1) for i = size-1 .. 1; the draws come
    from one call with an array of upper bounds, the same stream as one call
    per i."""
    rng = np.random.default_rng(seed)
    table = list(range(size))
    draws = rng.integers(0, np.arange(size, 1, -1)).tolist()
    for i, j in zip(range(size - 1, 0, -1), draws):
        table[i], table[j] = table[j], table[i]
    return np.array(table, dtype=np.int64)


def build_permutation(
    family: str,
    n: int,
    *,
    seed: int | None = None,
    mask: int | None = None,
    matrix: list[int] | None = None,
    offset: int | None = None,
    table=None,
    max_bits: int = DEFAULT_MAX_BITS,
) -> Permutation:
    """Construct a permutation from one of the built-in families.

    identity       y -> y
    bit-reversal   y -> its n-bit string reversed
    xor-mask       y -> y ^ mask (mask drawn from the seed when omitted)
    affine-gf2     y -> A.bits(y) + c over GF(2); A given as n row masks,
                   MSB row first, or drawn invertible from the seed
    random         seeded Fisher-Yates shuffle
    from-table     explicit table, validated
    """
    _check_bits(n, max_bits)
    size = 1 << n
    if family == "identity":
        return Permutation(n, np.arange(size), family, None, max_bits)
    if family == "bit-reversal":
        return Permutation(n, [_reverse_bits(y, n) for y in range(size)], family, None, max_bits)
    if family == "xor-mask":
        if mask is None:
            rng = np.random.default_rng(0 if seed is None else seed)
            mask = int(rng.integers(0, size))
        _check_value(mask, n)
        return Permutation(n, np.arange(size) ^ mask, family, seed, max_bits)
    if family == "affine-gf2":
        if matrix is not None:
            rows = [int(r) for r in matrix]
            if len(rows) != n or any(not 0 <= r < size for r in rows):
                raise ValueError(f"matrix must be {n} row masks in [0, 2^n)")
            if _gf2_rank(rows, n) != n:
                raise ValueError("affine matrix is singular over GF(2)")
            c = 0 if offset is None else int(offset)
        else:
            rng = np.random.default_rng(0 if seed is None else seed)
            while True:
                rows = [int(rng.integers(0, size)) for _ in range(n)]
                if _gf2_rank(rows, n) == n:
                    break
            c = int(rng.integers(0, size))
        _check_value(c, n)
        return Permutation(n, _affine_table(rows, c, n), family, seed, max_bits)
    if family == "random":
        return Permutation(n, _fisher_yates(size, 0 if seed is None else seed), family, seed, max_bits)
    if family == "from-table":
        if table is None:
            raise ValueError("from-table requires an explicit table")
        return Permutation(n, table, family, seed, max_bits)
    raise ValueError(f"unknown permutation family {family!r}")


def prefix_members(perm: Permutation, x: int, prefix_len: int) -> np.ndarray:
    """Sorted array of y with f(y) and x equal on the top prefix_len bits."""
    _check_value(x, perm.n)
    if prefix_len % 2 != 0 or not 0 <= prefix_len <= perm.n:
        raise ValueError(f"prefix length must be even in [0, {perm.n}], got {prefix_len}")
    shift = perm.n - prefix_len
    return np.nonzero((perm.table >> shift) == (x >> shift))[0].astype(np.int64)


def _check_stage(perm: Permutation, j: int) -> None:
    if not 0 <= j <= perm.n // 2 - 1:
        raise ValueError(f"stage index {j} out of range [0, {perm.n // 2 - 1}]")


# File format: line 1 is "n=<int>", then one decimal image per line in row
# order y = 0, 1, ...; trailing newline required; no comments.

def permutation_to_text(perm: Permutation) -> str:
    return "\n".join([f"n={perm.n}", *map(str, perm.table.tolist())]) + "\n"


def permutation_from_text(text: str, max_bits: int = DEFAULT_MAX_BITS) -> Permutation:
    if not text.endswith("\n"):
        raise ValueError("permutation file must end with a newline")
    if not text.isascii():  # numpy's reader mishandles some other code points
        raise ValueError("permutation file must be ASCII")
    # int() reads \r as a space and refuses \x1c-\x1f; numpy's reader ends a
    # line at \r and reads \x1c-\x1f as spaces
    if any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        raise ValueError("table rows must be decimal integers, one per line")
    lines = text.replace("\r", " ").split("\n")[:-1]
    if not lines[0].startswith("n="):
        raise ValueError("permutation file must start with 'n=<int>'")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise ValueError("permutation file must start with 'n=<int>'") from exc
    _check_bits(n, max_bits)
    size = 1 << n
    if len(lines) != size + 1:
        raise ValueError(f"expected {size} table rows, found {len(lines) - 1}")
    table = _read_rows(lines[1:], np.int64, "table rows must be decimal integers, one per line")
    if table.min() < 0 or table.max() >= size:
        raise ValueError("table entry out of range")
    return Permutation(n, table, "from-table", None, max_bits)


def _read_rows(rows: list[str], dtype, message: str) -> np.ndarray:
    """One record of `dtype` per row, read by numpy's text reader: tokens
    split by spaces or tabs, no comments, no quotes. A blank row, a wrong
    token count or a token numpy cannot read raises ValueError(message)."""
    if not rows[0].strip():  # numpy skips blank rows, and warns when all are
        raise ValueError(message)
    try:
        records = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"{message}: {exc}") from None
    if records.shape != (len(rows),):  # a skipped blank row, or extra columns
        raise ValueError(message)
    return records


def load_permutation(path, max_bits: int = DEFAULT_MAX_BITS) -> Permutation:
    with open(path, "r", encoding="ascii", newline="") as fh:
        return permutation_from_text(fh.read(), max_bits)
