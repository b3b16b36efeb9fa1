"""Quantitative bound checks for the error-tolerant inversion machinery.

Everything here is finite-size: the asymptotically-negligible part of each
bound is carried explicitly as 2*sqrt(a) * |S ∩ good| / sqrt(|S|) (coarsened
to 2*sqrt(a) * 2^(n/2) inside sweep aggregates), so every check is a concrete
inequality between computed numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .invert import _check_operator, _levels, _success_residual, stage_deficits
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


def _deficit(jop: PseudoIdentity, support, flipped) -> tuple[np.ndarray, float]:
    """S as a checked member array (T is checked too), and d = mean_S (1 - c),
    summed over all 2^n main values with 0 off S, as `check-lemmas` sums it."""
    members = signed_support(support, flipped, jop.n)[0]
    gaps = np.zeros(jop.cosines.size)
    gaps[members] = 1.0 - jop.cosines[members]
    return members, float(np.add.reduce(gaps) / members.size)


def _margins(a, size, bad, d) -> tuple:
    """The error length sqrt(2d), its bound 2*sqrt(a)*|S∩good|/sqrt(|S|) +
    2*sqrt(|S∩bad|/|S|) and the orthogonal part sqrt(d (2 - d)), for scalars
    or arrays of a, |S|, |S ∩ bad| and d."""
    length = np.sqrt(np.maximum(0.0, 2.0 * d))
    bound = 2.0 * np.sqrt(a) * (size - bad) / np.sqrt(size) + 2.0 * np.sqrt(bad / size)
    return length, bound, np.sqrt(np.maximum(0.0, d * (2.0 - d)))


def error_length(jop: PseudoIdentity, support, flipped=()) -> float:
    """||(J - I) psi|| for the signed uniform state over (support, flipped)."""
    return math.sqrt(max(0.0, 2.0 * _deficit(jop, support, flipped)[1]))


@dataclass(frozen=True)
class BoundReport:
    """One measured quantity against one itemized bound."""

    measured: float
    bound: float
    margin: float
    passed: bool
    bad_overlap: int


def check_error_length_bound(jop: PseudoIdentity, support, flipped=()) -> BoundReport:
    """Error length against 2*sqrt(a)*|S∩good|/sqrt(|S|) + 2*sqrt(|S∩bad|/|S|)."""
    members, d = _deficit(jop, support, flipped)
    bad_overlap = jop.count_bad(members)
    measured, bound, _ = map(float, _margins(jop.a, members.size, bad_overlap, d))
    margin = bound - measured
    return BoundReport(measured, bound, margin, margin >= -BOUND_TOL, bad_overlap)


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
    members, d = _deficit(jop, support, flipped)
    alpha = float(np.mean(jop.cosines[members]))
    err, _, perp_norm = map(float, _margins(jop.a, members.size, jop.count_bad(members), d))
    margin = err - perp_norm
    return ResidualReport(alpha, perp_norm, err, margin, margin >= -BOUND_TOL)


@dataclass(frozen=True)
class ErrorLengthSweep:
    """Mean error length over x at one stage, against its bound."""

    mean_error_len: float
    max_error_len: float
    mean_ratio: Fraction
    expected_ratio: Fraction
    ratio_exact: bool | None
    error_bound: float
    error_bound_ok: bool


@dataclass(frozen=True)
class ResidualSweep:
    """Residuals of the error-tolerant inversion over x, against their bounds."""

    mean_success: float
    mean_v2: float
    max_v2: float
    residual_bound: float
    residual_bound_applicable: bool
    residual_bound_ok: bool | None
    markov_count: int
    markov_limit: float
    markov_ok: bool


def sample_xs(n: int, count: int, seed: int) -> list[int]:
    """Stratified seeded sample of x values, ascending: one draw per equal
    slice, all from one call with arrays of bounds (the same stream as one
    call per slice)."""
    size = 1 << n
    count = min(count, size)
    edges = np.arange(count + 1) * size // max(count, 1)  # no draw for count <= 0
    return np.random.default_rng(seed).integers(edges[:-1], edges[1:]).tolist()


def good_term_coarse(n: int, a: float) -> float:
    return 2.0 * math.sqrt(a) * 2.0 ** (n / 2)


def _error_lengths(gap: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Each x's error length, the root of the mean gap 2 - 2c over its block,
    from one level's block means of the gaps and each x's block."""
    return np.sqrt(np.maximum(gap, 0.0))[blocks]


def _error_sweeps(perm: Permutation, jop: PseudoIdentity, xs, levels) -> list[ErrorLengthSweep]:
    """`expected_error_sweep` at each level i in levels, from one level pass
    over the gaps 2 - 2c and the bad-set indicator."""
    n = perm.n
    exhaustive = xs is None
    xs = np.arange(perm.size) if exhaustive else _check_values(xs, n)
    stats = _levels(perm, np.stack([2.0 - 2.0 * jop.cosines, jop._bad_lut]))
    expected_ratio = Fraction(jop.bad_size, perm.size)
    bound = 2.0 * math.sqrt(jop.bad_size / perm.size) + good_term_coarse(n, jop.a)
    sweeps = []
    for i in levels:
        gap, bad = stats[i][0]
        blocks = xs >> (n - 2 * i)
        lengths = _error_lengths(gap, blocks)
        # each bad mean is a multiple of 1/|S|, so their float sum is exact
        mean_ratio = Fraction(float(bad[blocks].sum())) / xs.size
        mean_len = float(lengths.mean())
        slack = BOUND_TOL
        if not exhaustive and xs.size > 1:
            slack += 3.0 * float(lengths.std(ddof=1)) / math.sqrt(xs.size)
        exact = abs(mean_ratio - expected_ratio) <= IDENTITY_TOL if exhaustive else None
        sweeps.append(ErrorLengthSweep(mean_len, float(lengths.max()), mean_ratio, expected_ratio,
                                       exact, bound, mean_len <= bound + slack))
    return sweeps


def expected_error_sweep(
    perm: Permutation,
    jop: PseudoIdentity,
    j: int,
    with_tagged: bool = True,
    xs=None,
) -> ErrorLengthSweep:
    """Mean error length over x at stage j, with the exact overlap identity.

    with_tagged only picks the stage range: the flipped set does not change
    ||(J - I) psi(S, T)||^2 = (1/|S|) sum_{y in S} (2 - 2 c_y), the mean gap
    of x's stage-j block. Exhaustive sweeps (xs=None) check that the mean of
    |bad ∩ S| / |S| equals |bad| / 2^n exactly and that the mean error length
    stays within 2*sqrt(|bad|/2^n) + 2*sqrt(a)*2^(n/2); sampled sweeps get
    three standard errors of slack.
    """
    _check_operator(perm, jop)
    max_j = perm.n // 2 - 1 if with_tagged else perm.n // 2
    if not 0 <= j <= max_j:
        raise ValueError(f"stage index {j} out of range [0, {max_j}]")
    return _error_sweeps(perm, jop, xs, [j])[0]


def inversion_residual_stats(
    perm: Permutation,
    jop: PseudoIdentity,
    q: float,
    xs=None,
) -> ResidualSweep:
    """Aggregate the error-tolerant inversion's residuals over x.

    Each run's final deficit d = 1 - amp is the last stage's column of
    `stage_deficits`: its success probability is amp^2 and its residual
    sqrt(1 - amp^2) = sqrt(d (2 - d)), read without cancellation. On exhaustive
    sweeps the mean must stay within 2n*sqrt(|bad|/2^n) plus the coarse good
    term, whenever that bound is at most 1; the count{residual > 1/q} is also
    checked against the mean via the usual averaging argument.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    n = perm.n
    exhaustive = xs is None
    xs = np.arange(perm.size) if exhaustive else xs
    success, v2 = _success_residual(stage_deficits(perm, xs, jop, [n // 2 - 1])[:, 0])
    count = v2.size
    mean_v2 = float(v2.mean())
    b_actual = jop.bad_size / perm.size
    bound = 2.0 * n * math.sqrt(b_actual) + n * good_term_coarse(n, jop.a)
    applicable = exhaustive and bound <= 1.0
    exceed = int(np.count_nonzero(v2 > 1.0 / q))
    markov_limit = count * mean_v2 * q
    return ResidualSweep(
        mean_success=float(success.mean()),
        mean_v2=mean_v2,
        max_v2=float(v2.max()),
        residual_bound=bound,
        residual_bound_applicable=applicable,
        residual_bound_ok=(mean_v2 <= bound + BOUND_TOL) if applicable else None,
        markov_count=exceed,
        markov_limit=markov_limit,
        markov_ok=exceed <= markov_limit + BOUND_TOL,
    )


@dataclass(frozen=True)
class Params:
    """Failure-budget calculus: p sized so that q = r + 1.

    hard_input_count is the guaranteed number of inputs any inverter must fail
    on (with probability above 1/q^2) when the failure ratio is 1/r.
    """

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
        count = 2.0**n * (1.0 / r - 1.0 / q**2) / (1.0 - 1.0 / q**2)
    except OverflowError:
        p = count = math.inf
    if not (math.isfinite(p) and math.isfinite(count)):
        raise ValueError(f"r={r}, n={n} give parameters beyond the finite float range")
    return Params(p=p, q=q, hard_input_count=count)


def contradiction_check(r: float) -> bool:
    """Strict inequality (1/r - 1/q^2) / (1 - 1/q^2) > 1/q at q = r + 1."""
    if not 1 <= r < math.inf:
        raise ValueError(f"failure ratio parameter r must be finite and >= 1, got {r}")
    q = r + 1.0
    return (1.0 / r - 1.0 / q**2) / (1.0 - 1.0 / q**2) > 1.0 / q
