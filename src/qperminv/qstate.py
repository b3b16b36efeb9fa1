"""Dense statevector core for a main register of n qubits plus k ancilla qubits.

Amplitudes live at flat index y * 2**k + w, where y is the main-register value
and w the ancilla value. Any classical conditioning value x stays outside the
vector; every operator in this package is block-diagonal in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATE_TOL = 1e-9    # state-level comparisons
SCALAR_TOL = 1e-12  # scalar identities
MAX_STATE_BYTES = 1 << 30  # no state vector may exceed 1 GiB


def check_register_sizes(n: int, k: int) -> None:
    """Refuse register sizes no state vector may have, before any allocation."""
    if n < 1 or k < 0:
        raise ValueError(f"invalid register sizes n={n}, k={k}")
    if 16 << (n + k) > MAX_STATE_BYTES:
        raise ValueError(f"state of 16 * 2^{n + k} bytes exceeds the {MAX_STATE_BYTES}-byte cap")


class StateVector:
    """Complex amplitudes over the (y, w) basis; dimensions fixed at creation."""

    __slots__ = ("n", "k", "amps")

    def __init__(self, n: int, k: int, amps=None):
        check_register_sizes(n, k)
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


def make_signed_uniform(support, flipped=(), k: int = 0, n: int | None = None) -> StateVector:
    """Unit vector with +1/sqrt(|S|) on S\\T and -1/sqrt(|S|) on T, at ancilla 0.

    S is `support`, T is `flipped` (must be a subset), both sets of integers
    in a main register of n qubits.
    """
    if n is None:
        raise ValueError("register size n is required")
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
    state = StateVector(n, k)
    grid = state.grid()
    amp = 1.0 / np.sqrt(s_members.size)
    grid[s_members, 0] = amp
    if t_members.size:
        grid[t_members, 0] = -amp
    return state


@dataclass(frozen=True)
class VectorAlgebra:
    """Inner product, distance, and the decomposition of v along a unit u."""

    inner: complex
    norm_u: float
    norm_v: float
    dist: float
    alpha: complex
    perp_norm: float


def vector_algebra(u: StateVector, v: StateVector) -> VectorAlgebra:
    """Decompose v = alpha*u + perp against a unit vector u.

    alpha = <u|v> and perp_norm = ||v - alpha*u||, so ||v||^2 splits as
    |alpha|^2 + perp_norm^2.
    """
    u._check_same_shape(v)
    norm_u = u.norm()
    if abs(norm_u - 1.0) > STATE_TOL:
        raise ValueError(f"decomposition requires a unit reference vector, got norm {norm_u}")
    inner = complex(np.vdot(u.amps, v.amps))
    perp = v.amps - inner * u.amps
    return VectorAlgebra(
        inner=inner,
        norm_u=norm_u,
        norm_v=v.norm(),
        dist=float(np.linalg.norm(u.amps - v.amps)),
        alpha=inner,
        perp_norm=float(np.linalg.norm(perp)),
    )


def basis_overlap(state: StateVector, y0: int, w0: int = 0) -> float:
    """Squared amplitude magnitude at basis state (y0, w0)."""
    amp = state.amps[state.index_of(y0, w0)]
    return float(abs(amp) ** 2)


def dump_state(state: StateVector) -> str:
    """Rows `y w re im` in index order, 17 significant digits."""
    lines = []
    for y in range(1 << state.n):
        for w in range(1 << state.k):
            amp = state.amps[(y << state.k) | w]
            lines.append(f"{y} {w} {amp.real:.17g} {amp.imag:.17g}")
    return "\n".join(lines) + "\n"
