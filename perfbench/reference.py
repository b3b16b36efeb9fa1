"""Independent reference for the benchmark's output checks.

Plain numpy, real-valued, and free of any import from the program, so a
fault in the program cannot hide in its own checker. It holds:

* the seeded constructions that the program documents (derived seeds,
  Fisher-Yates permutations, nested bad sets, stratified x samples), so that
  permutations and operators can be rebuilt from the seeds in a manifest;
* a simulator of the staged error-tolerant run, batched over x, that returns
  success probabilities and per-stage fidelities against the uniform state
  over the next prefix set;
* the closed form ||(J - I) psi(S, T)||^2 = (1/|S|) sum_{y in S} (2 - 2 c_y)
  of the error length, evaluated for every x at once with a bincount over the
  prefixes of f. The flipped set T does not enter it.

Only ancilla values 0 and 1 are simulated: the pseudo-identity rotates the
(|z,0>, |z,1>) pair and the run starts at ancilla 0, so every other ancilla
slice stays exactly zero whatever the ancilla count.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np


def derive_seed(master_seed: int, label: str, x: int = 0) -> int:
    """First 8 bytes, little-endian, of SHA-256(LE64(seed) || label || LE64(x))."""
    payload = struct.pack("<Q", master_seed % 2**64) + label.encode("utf-8")
    payload += struct.pack("<Q", x % 2**64)
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def fisher_yates(n: int, seed: int) -> np.ndarray:
    """The `random` family: i = size-1 .. 1, swap with rng.integers(0, i+1)."""
    rng = np.random.default_rng(seed)
    table = list(range(1 << n))
    for i in range((1 << n) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        table[i], table[j] = table[j], table[i]
    return np.array(table, dtype=np.int64)


def worst_case_cosines(n: int, a: float, bad_size: int, seed: int) -> np.ndarray:
    """Cosines of a worst-case/full-rotation operator: 1 - a on good values,
    0 on the bad set, which is the first bad_size entries of a seeded shuffle."""
    rng = np.random.default_rng(seed)
    bad = rng.permutation(1 << n)[:bad_size]
    cos = np.full(1 << n, 1.0 - a)
    cos[bad] = 0.0
    return cos


def sample_xs(n: int, count: int, seed: int) -> np.ndarray:
    """Stratified sample: one rng.integers(lo, hi) draw per equal slice, ascending."""
    rng = np.random.default_rng(seed)
    size = 1 << n
    count = min(count, size)
    return np.array(
        [int(rng.integers(i * size // count, (i + 1) * size // count)) for i in range(count)],
        dtype=np.int64,
    )


def error_lengths(table: np.ndarray, cos: np.ndarray, prefix_len: int) -> np.ndarray:
    """Error length of the (signed) uniform state over S_x = {y : f(y) agrees
    with x on the top prefix_len bits}, for every x in [0, 2^n)."""
    n = int(table.size).bit_length() - 1
    shift = n - prefix_len
    keys = table >> shift
    sums = np.bincount(keys, weights=2.0 - 2.0 * cos, minlength=1 << prefix_len)
    counts = np.bincount(keys, minlength=1 << prefix_len)
    per_class = np.sqrt(np.maximum(sums, 0.0) / counts)
    return per_class[np.arange(1 << n) >> shift]


def mean_error_lengths(table: np.ndarray, cos: np.ndarray) -> tuple[float, float]:
    """The sweep's two columns: the mean over x, averaged over stages, of the
    error length with the tagged set (prefixes 0 .. n-2) and without it
    (prefixes 2 .. n)."""
    n = int(table.size).bit_length() - 1
    tagged = [error_lengths(table, cos, 2 * j).mean() for j in range(n // 2)]
    plain = [error_lengths(table, cos, 2 * j).mean() for j in range(1, n // 2 + 1)]
    return float(np.mean(tagged)), float(np.mean(plain))


def simulate(table: np.ndarray, cos: np.ndarray, xs, chunk: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Staged error-tolerant run for each x in xs.

    Each stage j tags, then applies J^T (Q_j x I) J with Q_j the reflection
    about the uniform state over the stage set S_j. Returns the success
    probabilities (shape X) and the fidelity after each stage with the
    uniform state over S_{j+1} at ancilla 0 (shape X x n/2).
    """
    table = np.asarray(table, dtype=np.int64)
    n = int(table.size).bit_length() - 1
    xs = np.asarray(xs, dtype=np.int64)
    inverse = np.empty_like(table)
    inverse[table] = np.arange(table.size)
    c = np.asarray(cos, dtype=np.float64)
    s = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    success = np.empty(xs.size)
    fidelity = np.empty((xs.size, n // 2))
    for lo in range(0, xs.size, chunk):
        xc = xs[lo:lo + chunk, None]
        a0 = np.full((xc.shape[0], table.size), 2.0 ** (-n / 2))
        a1 = np.zeros_like(a0)
        for j in range(n // 2):
            shift = n - 2 * j - 2
            tagged = ((table >> shift) & 3) == ((xc >> shift) & 3)
            a0[tagged] *= -1.0
            a1[tagged] *= -1.0
            a0, a1 = c * a0 - s * a1, s * a0 + c * a1
            stage = (table >> (shift + 2)) == (xc >> (shift + 2))
            size = 1 << (shift + 2)
            m0 = np.where(stage, a0, 0.0).sum(axis=1, keepdims=True) / size
            m1 = np.where(stage, a1, 0.0).sum(axis=1, keepdims=True) / size
            a0 = np.where(stage, 2.0 * m0 - a0, -a0)
            a1 = np.where(stage, 2.0 * m1 - a1, -a1)
            a0, a1 = c * a0 + s * a1, -s * a0 + c * a1
            nxt = (table >> shift) == (xc >> shift)
            overlap = np.where(nxt, a0, 0.0).sum(axis=1)
            fidelity[lo:lo + xc.shape[0], j] = overlap * overlap / (1 << shift)
        rows = np.arange(xc.shape[0])
        success[lo:lo + xc.shape[0]] = a0[rows, inverse[xc[:, 0]]] ** 2
    return success, fidelity


def residual_bound(n: int, a: float, bad_size: int) -> float:
    """2n*sqrt(b) + n*2*sqrt(a)*2^(n/2), the mean-residual bound of a sweep."""
    return 2.0 * n * math.sqrt(bad_size / (1 << n)) + n * 2.0 * math.sqrt(a) * 2.0 ** (n / 2)
