"""Dense statevectors over a main register of n qubits plus k ancilla qubits.
No command calls this module; it is the reference the tests check closed forms against.

Amplitudes live at flat index y * 2**k + w, where y is the main-register value
and w the ancilla value. Any classical conditioning value x stays outside the
vector; every operator in this package is block-diagonal in it.
"""

from __future__ import annotations

import numpy as np

MAX_STATE_BYTES = 1 << 30  # no state vector may exceed 1 GiB


class StateVector:
    """Complex amplitudes over the (y, w) basis; dimensions fixed at creation."""

    __slots__ = ("n", "k", "amps")

    def __init__(self, n: int, k: int, amps=None):
        if n < 1 or k < 0:  # register sizes are refused before any allocation
            raise ValueError(f"invalid register sizes n={n}, k={k}")
        # 16 * 2^(n+k) > MAX_STATE_BYTES, compared by exponent so a huge k builds no huge integer
        if n + k > MAX_STATE_BYTES.bit_length() - 5:
            raise ValueError(f"state of 16 * 2^{n + k} bytes exceeds the {MAX_STATE_BYTES}-byte cap")
        dim = 1 << (n + k)
        if amps is None:
            amps = np.zeros(dim, dtype=np.complex128)
        else:
            amps = np.asarray(amps, dtype=np.complex128)
            if amps.shape != (dim,):
                raise ValueError(f"amplitude vector must have length {dim}, got {amps.shape}")
        self.n = int(n)
        self.k = int(k)
        self.amps = amps

    @classmethod
    def basis(cls, n: int, k: int, y: int, w: int = 0) -> "StateVector":
        state = cls(n, k)
        state.amps[state.index_of(y, w)] = 1.0
        return state

    @property
    def dim(self) -> int:
        return self.amps.size

    def index_of(self, y: int, w: int) -> int:
        if not 0 <= y < (1 << self.n):
            raise ValueError(f"main value {y} out of range for {self.n} qubits")
        if not 0 <= w < (1 << self.k):
            raise ValueError(f"ancilla value {w} out of range for {self.k} qubits")
        return (y << self.k) | w

    def grid(self) -> np.ndarray:
        """(2^n, 2^k) view of the amplitudes; writing to it mutates the state."""
        return self.amps.reshape(1 << self.n, 1 << self.k)

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.k, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def inner(self, other: "StateVector") -> complex:
        """<self|other> with the conjugate on self."""
        self._check_same_shape(other)
        return complex(np.vdot(self.amps, other.amps))

    def distance_to(self, other: "StateVector") -> float:
        self._check_same_shape(other)
        return float(np.linalg.norm(self.amps - other.amps))

    def _check_same_shape(self, other: "StateVector") -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError(
                f"dimension mismatch: (n={self.n}, k={self.k}) vs (n={other.n}, k={other.k})"
            )

    def __repr__(self) -> str:
        return f"StateVector(n={self.n}, k={self.k}, norm={self.norm():.6g})"


def support_members(support) -> np.ndarray:
    """A support set as a sorted int64 array of unique members.

    Accepts an array or any iterable of ints.
    """
    if not isinstance(support, np.ndarray):
        support = np.fromiter(support, dtype=np.int64)
    members = np.sort(support.astype(np.int64, copy=False))
    repeated = members[1:] == members[:-1]
    if repeated.any():
        members = members[np.concatenate(([True], ~repeated))]
    return members


def signed_support(support, flipped, n: int) -> tuple[np.ndarray, np.ndarray]:
    """S and T as `support_members` arrays, checked: S nonempty and inside a
    main register of n qubits, T a subset of S."""
    s_members = support_members(support)
    t_members = support_members(flipped)
    if s_members.size == 0:
        raise ValueError("support must be nonempty")
    if s_members[0] < 0 or s_members[-1] >= (1 << n):
        raise ValueError(f"support member out of range for {n} bits")
    if t_members.size:
        pos = np.searchsorted(s_members, t_members)
        if pos[-1] == s_members.size or (s_members[pos] != t_members).any():
            raise ValueError("flipped set must be a subset of the support")
    return s_members, t_members


def make_signed_uniform(support, flipped=(), k: int = 0, n: int | None = None) -> StateVector:
    """Unit vector with +1/sqrt(|S|) on S\\T and -1/sqrt(|S|) on T, at ancilla 0.

    S is `support`, T is `flipped` (must be a subset), both sets of integers
    in a main register of n qubits.
    """
    if n is None:
        raise ValueError("register size n is required")
    s_members, t_members = signed_support(support, flipped, n)
    state = StateVector(n, k)
    grid = state.grid()
    amp = 1.0 / np.sqrt(s_members.size)
    grid[s_members, 0] = amp
    if t_members.size:
        grid[t_members, 0] = -amp
    return state
