"""Bit-string permutations and the prefix sets that drive the staged inversion.

Bits are indexed from the most significant side: a prefix of length L means
the top L bits of the integer encoding.
"""

from __future__ import annotations

import numpy as np

DEFAULT_MAX_BITS = 16

FAMILIES = ("identity", "bit-reversal", "xor-mask", "affine-gf2", "random")


def _check_bits(n: int) -> None:
    if n < 2 or n % 2 != 0:
        raise ValueError(f"bit length must be an even integer >= 2, got {n}")
    if n > DEFAULT_MAX_BITS:
        raise ValueError(f"bit length {n} exceeds the cap of {DEFAULT_MAX_BITS}")


def _check_value(v: int, n: int) -> None:
    if not 0 <= v < (1 << n):
        raise ValueError(f"value {v} out of range for {n} bits")


def _check_values(xs, n: int) -> np.ndarray:
    """xs as a nonempty `_check_listing` of main values: int64, each in
    [0, 2^n) and listed once."""
    xs = _check_listing(xs, n, "xs")
    if xs.size == 0:
        raise ValueError("need at least one x value")
    return xs


class Permutation:
    """Explicit bijection on n-bit values with a precomputed inverse table."""

    __slots__ = ("n", "table", "inverse_table", "family", "seed")

    def __init__(self, n: int, table, family: str = "from-table", seed: int | None = None):
        _check_bits(n)
        table = _check_listing(table, n, "table")
        size = 1 << n
        if table.size != size:  # 2^n values in range, none listed twice: a bijection
            raise ValueError(f"table must have exactly {size} entries, got shape {table.shape}")
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

    def __repr__(self) -> str:
        return f"Permutation(family={self.family!r}, n={self.n}, seed={self.seed})"


def _gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2): each row, reduced by the basis rows in the order they
    joined (none has an earlier one's leading bit), joins them if nonzero."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)  # clears b's leading bit where row has it
        if row:
            basis.append(row)
    return len(basis)


def _affine_table(rows: list[int], offset: int, n: int) -> np.ndarray:
    """Image bit i, most significant first, is the parity of y & rows[i] plus
    bit i of the offset. The linear part doubles the table once per bit k of
    y: the upper half is the lower half XOR the image of 1 << k."""
    table = np.zeros(1, dtype=np.int64)
    for k in range(n):
        column = sum(((row >> k) & 1) << (n - 1 - i) for i, row in enumerate(rows))
        table = np.concatenate((table, table ^ column))
    return table ^ offset


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


def build_permutation(family: str, n: int, *, seed: int | None = None,
                      mask: int | None = None) -> Permutation:
    """Construct a permutation from one of the built-in FAMILIES.

    identity       y -> y
    bit-reversal   y -> its n-bit string reversed
    xor-mask       y -> y ^ mask (mask drawn from the seed when omitted)
    affine-gf2     y -> A.bits(y) + c over GF(2), A drawn invertible from the seed
    random         seeded Fisher-Yates shuffle

    A table loaded from a file is a Permutation with the label "from-table".
    """
    _check_bits(n)
    size = 1 << n
    if family == "identity":
        return Permutation(n, np.arange(size), family)
    if family == "bit-reversal":
        return Permutation(n, _affine_table([1 << i for i in range(n)], 0, n), family)
    if family == "xor-mask":
        if mask is None:
            rng = np.random.default_rng(0 if seed is None else seed)
            mask = int(rng.integers(0, size))
        _check_value(mask, n)
        return Permutation(n, np.arange(size) ^ mask, family, seed)
    if family == "affine-gf2":
        rng = np.random.default_rng(0 if seed is None else seed)
        while True:
            rows = [int(rng.integers(0, size)) for _ in range(n)]
            if _gf2_rank(rows) == n:
                break
        return Permutation(n, _affine_table(rows, int(rng.integers(0, size)), n), family, seed)
    if family == "random":
        return Permutation(n, _fisher_yates(size, 0 if seed is None else seed), family, seed)
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
# order y = 0, 1, ...; no comments. Lines follow `_file_lines`.

def permutation_to_text(perm: Permutation) -> str:
    return "\n".join([f"n={perm.n}", *map(str, perm.table.tolist())]) + "\n"


def permutation_from_text(text: str) -> Permutation:
    lines = _file_lines(text, "permutation file")
    if not lines[0].startswith("n="):
        raise ValueError("permutation file must start with 'n=<int>'")
    n = _number(lines[0][2:])
    _check_bits(n)
    size = 1 << n
    if len(lines) != size + 1:
        raise ValueError(f"expected {size} table rows, found {len(lines) - 1}")
    return Permutation(n, _read_rows(lines[1:], np.int64,
                                     "table rows must be decimal integers, one per line"))


def _file_lines(text: str, what: str) -> list[str]:
    """The lines of either input file: ASCII (numpy's reader mishandles other
    code points), each CR read as a space, each line ended by LF, and no
    \\x1c-\\x1f, which int(), split() and numpy's reader take for spaces."""
    if not text.isascii():
        raise ValueError(f"{what} must be ASCII")
    if not text.endswith("\n"):
        raise ValueError(f"{what} must end with a newline")
    if any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        raise ValueError(f"{what} holds a separator in \\x1c-\\x1f")
    return text.replace("\r", " ").split("\n")[:-1]


_NOT_A_NUMBER = {int: "invalid literal for int() with base 10",
                 float: "could not convert string to float"}


def _number(token: str, kind=int):
    """kind(token), refusing the digit separators that int() and float() take
    and numpy's reader does not, with the message of any non-number."""
    if "_" in token:
        raise ValueError(f"{_NOT_A_NUMBER[kind]}: {token!r}")
    return kind(token)


def _read_rows(rows: list[str], dtype, message: str) -> np.ndarray:
    """One record of `dtype` per row, read by numpy's text reader: tokens
    split by spaces or tabs, no comments, no quotes. A blank row, a wrong
    token count or a token numpy cannot read raises ValueError(message)."""
    if not rows:  # numpy warns on no data
        return np.empty(0, dtype=dtype)
    if not rows[0].strip():  # numpy skips blank rows, and warns when all are
        raise ValueError(message)
    try:
        records = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"{message}: {exc}") from None
    if records.shape != (len(rows),):  # a skipped blank row, or extra columns
        raise ValueError(message)
    return records


def _integers(values, listing: str) -> np.ndarray:
    """values as an array, refused unless 1-D with an integer dtype (an empty
    listing has any dtype); bools are not integers here."""
    values = np.asarray(values)
    if values.ndim != 1 or (values.size and values.dtype.kind not in "iu"):
        raise ValueError(f"{listing} must be a 1-D list of integers, got {values.dtype} {values.shape}")
    return values


def _check_listing(values, n: int, listing: str) -> np.ndarray:
    """The one rule for a listing of main values, from any array-like: an int64
    array, refused unless `_integers` passes it, each value lies in [0, 2^n)
    (compared before the cast, so no value wraps) and none is listed twice."""
    values = _integers(values, listing)
    if values.size and not (values.min() >= 0 and values.max() < 1 << n):
        outside = (values < 0) | (values >= 1 << n)
        raise ValueError(f"main value {values[outside][0]} out of range for {n} bits")
    values = values.astype(np.int64)
    counts = np.bincount(values, minlength=1 << n)
    if counts.max() > 1:
        raise ValueError(f"{listing} lists main value {counts.argmax()} twice")
    return values


def load_permutation(path) -> Permutation:
    return permutation_from_text(_read_input(path))


def _read_input(path) -> str:
    """A permutation or operator file as text that `_file_lines` alone judges:
    each non-ASCII byte reads as a lone surrogate, which it refuses as not ASCII."""
    return _read_capped(path).decode("ascii", "surrogateescape")


# twice the largest valid file: about 2^(n+1) rows of under 32 bytes
_MAX_FILE_BYTES = 128 << DEFAULT_MAX_BITS


def _read_capped(path) -> bytes:
    """The file's bytes, refused unread past _MAX_FILE_BYTES bytes."""
    with open(path, "rb") as fh:
        data = fh.read(_MAX_FILE_BYTES + 1)
    if len(data) > _MAX_FILE_BYTES:
        raise ValueError(f"{path} is longer than {_MAX_FILE_BYTES} bytes")
    return data
