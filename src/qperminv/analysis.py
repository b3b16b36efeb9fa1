"""Quantitative bound checks for the error-tolerant inversion machinery.

Everything here is finite-size: the asymptotically-negligible part of each
bound is carried explicitly as 2*sqrt(a) * |S ∩ good| / sqrt(|S|) (coarsened
to 2*sqrt(a) * 2^(n/2) inside sweep aggregates), so every check is a concrete
inequality between computed numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .invert import final_deficits
from .ops import PseudoIdentity
from .perm import Permutation, _check_values
from .qstate import signed_support

BOUND_TOL = 1e-9
IDENTITY_TOL = 1e-12

# The signed uniform state psi over (S, T) has amplitude +-1/sqrt|S| at (y, 0)
# for y in S, and J psi has c_y and s_y times it at (y, 0) and (y, 1). So
# <psi, J psi> = mean_S c and ||(J - I) psi||^2 = mean_S (2 - 2c) = 2d with
# d = mean_S (1 - c), whatever T is, and the part of J psi orthogonal to psi
# has norm sqrt(1 - mean_S(c)^2) = sqrt(d (2 - d)), read without cancellation.


def _deficit(jop: PseudoIdentity, support, flipped) -> tuple[np.ndarray, np.ndarray, float]:
    """S and T as checked member arrays, and d = mean_S (1 - c)."""
    members, t_members = signed_support(support, flipped, jop.n)
    return members, t_members, float(np.mean(1.0 - jop.cosines[members]))


def _length(d: float) -> float:
    return math.sqrt(max(0.0, 2.0 * d))


def error_length(jop: PseudoIdentity, support, flipped=()) -> float:
    """||(J - I) psi|| for the signed uniform state over (support, flipped)."""
    return _length(_deficit(jop, support, flipped)[2])


@dataclass(frozen=True)
class BoundReport:
    """One measured quantity against one itemized bound."""

    measured: float
    bound: float
    bad_term: float
    good_term: float
    margin: float
    passed: bool
    support_size: int
    flipped_size: int
    bad_overlap: int
    a: float
    b: float


def check_error_length_bound(jop: PseudoIdentity, support, flipped=()) -> BoundReport:
    """Error length against 2*sqrt(a)*|S∩good|/sqrt(|S|) + 2*sqrt(|S∩bad|/|S|)."""
    members, t_members, d = _deficit(jop, support, flipped)
    measured = _length(d)
    size = members.size
    bad_overlap = jop.count_bad(members)
    good_term = 2.0 * math.sqrt(jop.a) * (size - bad_overlap) / math.sqrt(size)
    bad_term = 2.0 * math.sqrt(bad_overlap / size)
    bound = good_term + bad_term
    margin = bound - measured
    return BoundReport(
        measured=measured,
        bound=bound,
        bad_term=bad_term,
        good_term=good_term,
        margin=margin,
        passed=margin >= -BOUND_TOL,
        support_size=int(size),
        flipped_size=int(t_members.size),
        bad_overlap=bad_overlap,
        a=jop.a,
        b=jop.b,
    )


@dataclass(frozen=True)
class ResidualReport:
    """Decomposition of J psi along psi; the orthogonal part never exceeds the
    error length."""

    alpha: float
    perp_norm: float
    error_len: float
    margin: float
    passed: bool


def check_residual_bound(jop: PseudoIdentity, support, flipped=()) -> ResidualReport:
    members, _, d = _deficit(jop, support, flipped)
    alpha = float(np.mean(jop.cosines[members]))
    perp_norm = math.sqrt(max(0.0, d * (2.0 - d)))
    err = _length(d)
    margin = err - perp_norm
    return ResidualReport(alpha, perp_norm, err, margin, margin >= -BOUND_TOL)


@dataclass(eq=False)
class SweepSummary:
    """Aggregate of a per-x sweep, either of error lengths or of inversion residuals."""

    kind: str            # "error-length" | "inversion-residual"
    n: int
    j: int | None
    x_mode: str          # "exhaustive" | "sampled"
    x_count: int
    a: float
    b: float
    bad_size: int
    # error-length sweeps
    mean_error_len: float | None = None
    max_error_len: float | None = None
    mean_ratio: Fraction | None = None
    expected_ratio: Fraction | None = None
    ratio_exact: bool | None = None
    error_bound: float | None = None
    error_bound_ok: bool | None = None
    # inversion sweeps
    mean_success: float | None = None
    mean_v2: float | None = None
    max_v2: float | None = None
    q: float | None = None
    exceed_threshold: float | None = None
    exceed_count: int | None = None
    residual_bound: float | None = None
    residual_bound_applicable: bool | None = None
    residual_bound_ok: bool | None = None
    markov_count: int | None = None
    markov_limit: float | None = None
    markov_ok: bool | None = None
    v2_values: np.ndarray | None = field(default=None, repr=False)
    success_values: np.ndarray | None = field(default=None, repr=False)

    def markov_check(self, t: float) -> tuple[int, float, bool]:
        """count{v2 > t} against x_count * mean / t, on the measured array."""
        if self.v2_values is None:
            raise ValueError("no per-x residuals recorded")
        if t <= 0:
            raise ValueError("threshold must be positive")
        count = int(np.count_nonzero(self.v2_values > t))
        limit = self.x_count * float(np.mean(self.v2_values)) / t
        return count, limit, count <= limit + BOUND_TOL


def sample_xs(n: int, count: int, seed: int) -> list[int]:
    """Stratified seeded sample of x values, ascending: one draw per equal slice."""
    size = 1 << n
    count = min(count, size)
    rng = np.random.default_rng(seed)
    xs = []
    for i in range(count):
        lo = i * size // count
        hi = (i + 1) * size // count
        xs.append(int(rng.integers(lo, hi)))
    return xs


def good_term_coarse(n: int, a: float) -> float:
    return 2.0 * math.sqrt(a) * 2.0 ** (n / 2)


def expected_error_sweep(
    perm: Permutation,
    jop: PseudoIdentity,
    j: int,
    with_tagged: bool = True,
    xs=None,
) -> SweepSummary:
    """Mean error length over x at stage j, with the exact overlap identity.

    with_tagged only picks the stage range: the flipped set does not change
    ||(J - I) psi(S, T)||^2 = (1/|S|) sum_{y in S} (2 - 2 c_y), and one bincount
    over the classes f(y) >> (n - 2j) gives it for every x. Exhaustive sweeps
    (xs=None) check that the mean of |bad ∩ S| / |S| equals |bad| / 2^n
    exactly and that the mean error length stays within 2*sqrt(|bad|/2^n) +
    2*sqrt(a)*2^(n/2); sampled sweeps get three standard errors of slack.
    """
    n = perm.n
    if jop.n != n:
        raise ValueError(f"operator acts on {jop.n} main qubits but permutation has {n}")
    max_j = n // 2 - 1 if with_tagged else n // 2
    if not 0 <= j <= max_j:
        raise ValueError(f"stage index {j} out of range [0, {max_j}]")
    exhaustive = xs is None
    shift = n - 2 * j
    classes = (np.arange(perm.size) if exhaustive else _check_values(xs, n)) >> shift
    keys = perm.table >> shift
    sums = np.bincount(keys, weights=2.0 - 2.0 * jop.cosines, minlength=perm.size >> shift)
    bad_counts = np.bincount(keys[jop._bad_lut], minlength=perm.size >> shift)
    lengths = np.sqrt(np.maximum(sums, 0.0) / (1 << shift))[classes]
    count = classes.size
    mean_ratio = Fraction(int(bad_counts[classes].sum()), count << shift)
    expected_ratio = Fraction(jop.bad_size, perm.size)
    mean_len = float(lengths.mean())
    bound = 2.0 * math.sqrt(jop.bad_size / perm.size) + good_term_coarse(n, jop.a)
    slack = BOUND_TOL
    if not exhaustive and count > 1:
        slack += 3.0 * float(lengths.std(ddof=1)) / math.sqrt(count)
    return SweepSummary(
        kind="error-length",
        n=n,
        j=j,
        x_mode="exhaustive" if exhaustive else "sampled",
        x_count=count,
        a=jop.a,
        b=jop.b,
        bad_size=jop.bad_size,
        mean_error_len=mean_len,
        max_error_len=float(lengths.max()),
        mean_ratio=mean_ratio,
        expected_ratio=expected_ratio,
        ratio_exact=(abs(mean_ratio - expected_ratio) <= IDENTITY_TOL) if exhaustive else None,
        error_bound=bound,
        error_bound_ok=mean_len <= bound + slack,
    )


def inversion_residual_stats(
    perm: Permutation,
    jop: PseudoIdentity,
    q: float,
    xs=None,
) -> SweepSummary:
    """Aggregate the error-tolerant inversion's residuals over x.

    Each run's final deficit d = 1 - amp comes from `final_deficits`' closed
    form: its success probability is amp^2 and its residual
    sqrt(1 - amp^2) = sqrt(d (2 - d)), read without cancellation. On exhaustive
    sweeps the mean must stay within 2n*sqrt(|bad|/2^n) plus the coarse good
    term, whenever that bound is at most 1; the count{residual > 1/q} is also
    checked against the mean via the usual averaging argument.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    n = perm.n
    exhaustive = xs is None
    deficit = final_deficits(perm, jop, np.arange(perm.size) if exhaustive else xs)
    success = (1.0 - deficit) ** 2
    v2 = np.sqrt(np.maximum(0.0, deficit * (2.0 - deficit)))
    count = v2.size
    mean_v2 = float(v2.mean())
    b_actual = jop.bad_size / perm.size
    bound = 2.0 * n * math.sqrt(b_actual) + n * good_term_coarse(n, jop.a)
    applicable = exhaustive and bound <= 1.0
    threshold = 1.0 / q
    exceed = int(np.count_nonzero(v2 > threshold))
    markov_limit = count * mean_v2 * q
    return SweepSummary(
        kind="inversion-residual",
        n=n,
        j=None,
        x_mode="exhaustive" if exhaustive else "sampled",
        x_count=count,
        a=jop.a,
        b=jop.b,
        bad_size=jop.bad_size,
        mean_success=float(success.mean()),
        mean_v2=mean_v2,
        max_v2=float(v2.max()),
        q=float(q),
        exceed_threshold=threshold,
        exceed_count=exceed,
        residual_bound=bound,
        residual_bound_applicable=applicable,
        residual_bound_ok=(mean_v2 <= bound + BOUND_TOL) if applicable else None,
        markov_count=exceed,
        markov_limit=markov_limit,
        markov_ok=exceed <= markov_limit + BOUND_TOL,
        v2_values=v2,
        success_values=success,
    )


@dataclass(frozen=True)
class Params:
    """Failure-budget calculus: p sized so that q = r + 1.

    hard_input_count is the guaranteed number of inputs any inverter must fail
    on (with probability above 1/q^2) when the failure ratio is 1/r.
    """

    r: float
    n: int
    p: float
    q: float
    hard_input_count: float


def compute_params(r: float, n: int) -> Params:
    if not 1 <= r < math.inf:
        raise ValueError(f"failure ratio parameter r must be finite and >= 1, got {r}")
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    try:
        p = 4.0 * n * n * (r + 1.0) ** 4
        q = p ** 0.25 / math.sqrt(2.0 * n)
        count = (1 << n) * (1.0 / r - 1.0 / q**2) / (1.0 - 1.0 / q**2)
    except OverflowError:
        p = count = math.inf
    if not (math.isfinite(p) and math.isfinite(count)):
        raise ValueError(f"r={r}, n={n} give parameters beyond the finite float range")
    return Params(r=float(r), n=int(n), p=p, q=q, hard_input_count=count)


def contradiction_check(r: float) -> bool:
    """Strict inequality (1/r - 1/q^2) / (1 - 1/q^2) > 1/q at q = r + 1."""
    if not 1 <= r < math.inf:
        raise ValueError(f"failure ratio parameter r must be finite and >= 1, got {r}")
    q = r + 1.0
    return (1.0 / r - 1.0 / q**2) / (1.0 - 1.0 / q**2) > 1.0 / q
