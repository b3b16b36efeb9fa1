"""Stage operators on statevectors.

Three primitives, all block-diagonal in the classical conditioning value x:

* tagging: flip the sign of every y whose image matches x on one two-bit field;
* reflection: 2|u><u| - I about the uniform superposition over a support set,
  applied independently on each ancilla slice;
* pseudo-identity: a unitary built from one 2x2 real rotation per main value z
  acting on span{|z,0>, |z,1>}, identity on every ancilla value w >= 2.

The conjugation J^dag (reflection x I) J gives the approximate (pseudo)
reflection used by the error-tolerant inversion run.
"""

from __future__ import annotations

import numpy as np

from .perm import (DEFAULT_MAX_BITS, Permutation, _check_listing, _check_stage, _check_value,
                   _file_lines, _number, _read_rows, prefix_members)
from .qstate import StateVector, support_members

BAD_MODES = ("full-rotation", "random-angle")
ANGLE_MODES = ("worst-case", "random")

SCALAR_SLACK = 1e-12


def _check_state_matches(state: StateVector, perm: Permutation) -> None:
    if state.n != perm.n:
        raise ValueError(f"state has {state.n} main qubits but permutation acts on {perm.n}")


def apply_tagging(state: StateVector, perm: Permutation, x: int, j: int) -> StateVector:
    """Negate amplitudes of every (y, w) whose f(y) matches x on bits 2j+1..2j+2.

    Bit positions count from 1 at the most significant bit. Involution; exact
    in floating point since it only flips signs.
    """
    _check_state_matches(state, perm)
    _check_value(x, perm.n)
    _check_stage(perm, j)
    shift = perm.n - 2 * j - 2
    marked = ((perm.table >> shift) & 3) == ((x >> shift) & 3)
    state.grid()[marked, :] *= -1
    return state


def reflect_about_uniform(state: StateVector, support) -> StateVector:
    """Apply 2|u><u| - I per ancilla slice, u uniform over the support set."""
    members = support_members(support)
    if members.size == 0:
        raise ValueError("reflection support must be nonempty")
    if members[0] < 0 or members[-1] >= (1 << state.n):
        raise ValueError(f"support member out of range for {state.n} bits")
    grid = state.grid()
    means = grid[members, :].sum(axis=0) / members.size
    grid *= -1
    grid[members, :] += 2.0 * means
    return state


def apply_reflection_exact(state: StateVector, perm: Permutation, x: int, j: int) -> StateVector:
    """Reflect each ancilla slice about the uniform superposition over the
    stage-j set (preimages consistent with x's top 2j bits)."""
    _check_state_matches(state, perm)
    _check_value(x, perm.n)
    _check_stage(perm, j)
    return reflect_about_uniform(state, prefix_members(perm, x, 2 * j))


class PseudoIdentity:
    """Unitary close to the identity except on an explicit bad set.

    For each main value z the operator rotates (|z,0>, |z,1>) by the 2x2 real
    rotation with cosine cosines[z]; every w >= 2 component is untouched. Good
    z (outside the bad set) have cosine in [1-a, 1], so the overlap defect
    |1 - <z,0|J|z,0>| is at most a. Bad-set cosines are unconstrained. The bad
    set is a flat list or integer array of main values, each in [0, 2^n) and
    listed once, as in the operator file.
    """

    __slots__ = ("n", "k", "a", "b", "bad_set", "cosines", "sines",
                 "bad_mode", "angle_mode", "seed", "_bad_lut")

    def __init__(
        self,
        n: int,
        k: int,
        a: float,
        b: float,
        bad_set,
        cosines,
        bad_mode: str = "full-rotation",
        angle_mode: str = "worst-case",
        seed: int | None = None,
    ):
        if n < 1:
            raise ValueError(f"main register needs at least 1 qubit, got {n}")
        if k < 1:
            raise ValueError("pseudo-identity needs at least one ancilla qubit")
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise ValueError(f"parameters a={a}, b={b} must lie in [0, 1]")
        if angle_mode not in ANGLE_MODES:
            raise ValueError(f"unknown angle mode {angle_mode!r}")
        if bad_mode not in BAD_MODES:
            raise ValueError(f"unknown bad mode {bad_mode!r}")
        cosines = np.asarray(cosines, dtype=np.float64)
        if cosines.shape != (1 << n,):  # before `_check_listing` counts 2^n values
            raise ValueError(f"need one cosine per main value, got shape {cosines.shape}")
        if (bad := np.asarray(bad_set)).ndim != 1 or (bad.size and bad.dtype.kind not in "iu"):
            raise ValueError(f"bad set must be a 1-D list of integers, got {bad.dtype} {bad.shape}")
        bad = np.sort(_check_listing(bad.astype(np.int64), n, "bad set"))
        if bad.size > bad_set_capacity(n, b):
            raise ValueError(
                f"bad set of size {bad.size} exceeds floor(b * 2^n) = {bad_set_capacity(n, b)}"
            )
        self._bad_lut = _checked_bad_lut(cosines, bad, a)
        self.n = int(n)
        self.k = int(k)
        self.a = float(a)
        self.b = float(b)
        self.bad_set = tuple(int(z) for z in bad)
        self.cosines = cosines
        self.sines = _sines(cosines)
        self.bad_mode = bad_mode
        self.angle_mode = angle_mode
        self.seed = seed

    @property
    def bad_size(self) -> int:
        return len(self.bad_set)

    def count_bad(self, members) -> int:
        """|members ∩ bad set|, each member in [0, 2^n) and counted once."""
        members = _check_listing(np.unique(np.asarray(members, dtype=np.int64)), self.n, "members")
        return int(np.count_nonzero(self._bad_lut[members]))

    def __repr__(self) -> str:
        return (
            f"PseudoIdentity(n={self.n}, k={self.k}, a={self.a}, b={self.b}, "
            f"bad_size={self.bad_size}, modes=({self.angle_mode}, {self.bad_mode}))"
        )


def _sines(cosines: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(0.0, 1.0 - cosines * cosines))


def _bad_fraction(n: int, bad_size: int) -> float:
    """b for a bad set of bad_size members, refused past 2^n."""
    if bad_size > 1 << n:
        raise ValueError(f"bad_size {bad_size} exceeds 2^{n}")
    return bad_size / (1 << n)


def bad_set_capacity(n: int, b: float) -> int:
    # tiny slack so b = m / 2^n rounds to exactly m
    return int(np.floor(b * (1 << n) + 1e-9))


def _checked_bad_lut(cosines: np.ndarray, bad: np.ndarray, a) -> np.ndarray:
    """The bad set (members, or a mask that is the table) as a lookup table,
    once the cosines pass: |c| <= 1, and c >= 1 - a (a per row) off the bad
    set, read as the row minimum of c + 3 * table; within SCALAR_SLACK."""
    if not np.abs(cosines).max() <= 1.0 + SCALAR_SLACK:  # a NaN fails too
        raise ValueError("cosines must lie in [-1, 1]")
    lut = bad if bad.dtype == bool else np.bincount(bad, minlength=cosines.size) > 0
    if not ((cosines + 3.0 * lut).min(axis=-1) >= 1.0 - np.asarray(a) - SCALAR_SLACK).all():
        raise ValueError("good-state cosines must lie in [1 - a, 1]")
    return lut


def _check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:  # refused as numpy refuses it, drawn from or not
        raise ValueError(f"operator seed must be non-negative, got {seed}")


def _draw_operator(n: int, a: float, b: float, bad_mode: str, angle_mode: str,
                   seed: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The sorted bad set and the cosines of `build_pseudo_identity`, drawn from
    one generator seeded with `seed` (0 when None). Worst-case angles on an
    empty bad set draw nothing, so no generator is made."""
    _check_seed(seed)
    size = 1 << n
    capacity = bad_set_capacity(n, b)
    if angle_mode == "worst-case" and not capacity:
        return np.empty(0, dtype=np.int64), np.full(size, 1.0 - a, dtype=np.float64)
    rng = np.random.default_rng(0 if seed is None else seed)
    bad = np.sort(rng.permutation(size)[:capacity]).astype(np.int64)
    if angle_mode == "worst-case":
        cosines = np.full(size, 1.0 - a, dtype=np.float64)
    else:
        cosines = rng.uniform(1.0 - a, 1.0, size=size)
    if bad.size:
        if bad_mode == "full-rotation":
            cosines[bad] = 0.0
        else:
            cosines[bad] = rng.uniform(-1.0, 1.0, size=bad.size)
    return bad, cosines


def build_pseudo_identity(
    n: int,
    k: int = 1,
    a: float = 0.0,
    b: float = 0.0,
    bad_mode: str = "full-rotation",
    angle_mode: str = "worst-case",
    seed: int | None = None,
) -> PseudoIdentity:
    """Construct a pseudo-identity with the requested defect parameters.

    The bad set is the first floor(b * 2^n) entries of a seeded shuffle of
    [0, 2^n) (so equal seeds give nested sets across sizes). worst-case angles
    pin good cosines at 1 - a; random draws them uniformly from [1 - a, 1].
    full-rotation bad states get cosine 0 (|z,0> -> |z,1>); random-angle draws
    bad cosines uniformly from [-1, 1].
    """
    if n < 1:
        raise ValueError(f"main register needs at least 1 qubit, got {n}")
    bad, cosines = _draw_operator(n, a, b, bad_mode, angle_mode, seed)
    return PseudoIdentity(n, k, a, b, bad, cosines, bad_mode, angle_mode, seed)


def apply_pseudo_identity(state: StateVector, jop: PseudoIdentity, adjoint: bool = False) -> StateVector:
    """Rotate each (z,0)/(z,1) amplitude pair; adjoint transposes the rotation."""
    if (state.n, state.k) != (jop.n, jop.k):
        raise ValueError(
            f"dimension mismatch: state (n={state.n}, k={state.k}) vs operator (n={jop.n}, k={jop.k})"
        )
    grid = state.grid()
    a0 = grid[:, 0].copy()
    a1 = grid[:, 1].copy()
    c, s = jop.cosines, jop.sines
    if adjoint:
        grid[:, 0] = c * a0 + s * a1
        grid[:, 1] = -s * a0 + c * a1
    else:
        grid[:, 0] = c * a0 - s * a1
        grid[:, 1] = s * a0 + c * a1
    return state


def apply_pseudo_reflection(
    state: StateVector, perm: Permutation, x: int, j: int, jop: PseudoIdentity
) -> StateVector:
    """The conjugated reflection J^dag (Q x I) J for stage j."""
    apply_pseudo_identity(state, jop)
    apply_reflection_exact(state, perm, x, j)
    apply_pseudo_identity(state, jop, adjoint=True)
    return state


# Serialization: header "n k a b angle_mode/bad_mode seed", the sorted bad
# set, then an explicit cosine block whenever either mode was randomized or
# the cosines differ from the ones the header implies (1 - a, 0 on the bad set).
# Lines are read by `perm._file_lines`; none may follow the last block.

def _implied_cosines(n: int, a: float, bad) -> np.ndarray:
    cosines = np.full(1 << n, 1.0 - a, dtype=np.float64)
    cosines[np.asarray(bad, dtype=np.int64)] = 0.0
    return cosines


def serialize_pseudo_identity(jop: PseudoIdentity) -> str:
    seed_tok = "-" if jop.seed is None else str(jop.seed)
    lines = [f"{jop.n} {jop.k} {jop.a:.17g} {jop.b:.17g} {jop.angle_mode}/{jop.bad_mode} {seed_tok}"]
    lines.append(f"bad {jop.bad_size}")
    lines.extend(str(z) for z in jop.bad_set)
    if (jop.angle_mode == "random" or jop.bad_mode == "random-angle"
            or not np.array_equal(jop.cosines, _implied_cosines(jop.n, jop.a, jop.bad_set))):
        lines.append(f"angles {1 << jop.n}")
        lines.extend(f"{z} {c:.17g}" for z, c in enumerate(jop.cosines.tolist()))
    else:
        lines.append("angles 0")
    return "\n".join(lines) + "\n"


def parse_pseudo_identity(text: str) -> PseudoIdentity:
    lines = _file_lines(text, "pseudo-identity file")
    head = lines[0].split()
    if len(head) != 6:
        raise ValueError("header must be 'n k a b mode seed'")
    n, k = _number(head[0]), _number(head[1])
    if not 1 <= n <= DEFAULT_MAX_BITS or k < 1:
        raise ValueError(f"header needs n in [1, {DEFAULT_MAX_BITS}] and k >= 1, got n={n}, k={k}")
    a, b = _number(head[2], float), _number(head[3], float)
    if "/" not in head[4]:
        raise ValueError("mode must be 'angle_mode/bad_mode'")
    angle_mode, bad_mode = head[4].split("/", 1)
    seed = None if head[5] == "-" else _number(head[5])
    _check_seed(seed)

    def block(pos: int, expected_tag: str) -> tuple[int, list[str]]:
        if pos >= len(lines) or len(lines[pos].split()) != 2:
            raise ValueError(f"expected '{expected_tag} <count>' line")
        tag, count = lines[pos].split()
        if tag != expected_tag:
            raise ValueError(f"expected '{expected_tag} <count>' line, got {tag!r}")
        count = _number(count)
        if count < 0:
            raise ValueError(f"{expected_tag} count must be non-negative, got {count}")
        rows = lines[pos + 1:pos + 1 + count]
        if len(rows) < count:
            raise ValueError(f"{expected_tag} block is truncated")
        return pos + 1 + count, rows

    pos, rows = block(1, "bad")
    bad = _check_listing(_read_rows(rows, np.int64, "bad-set lines must be decimal integers"),
                         n, "bad set")
    pos, rows = block(pos, "angles")
    if not rows:
        cosines = _implied_cosines(n, a, bad)
    else:
        if len(rows) != (1 << n):
            raise ValueError(f"cosine block must list all {1 << n} values")
        records = _read_rows(rows, [("z", np.int64), ("c", np.float64)],
                             "cosine lines must be 'z cosine' with a decimal z")
        # 2^n distinct in-range values: every cosine is set once
        cosines = np.empty(1 << n, dtype=np.float64)
        cosines[_check_listing(records["z"], n, "cosine block")] = records["c"]
    if pos < len(lines):
        raise ValueError(f"line {pos + 1} follows the last record")
    return PseudoIdentity(n, k, a, b, bad, cosines, bad_mode, angle_mode, seed)
