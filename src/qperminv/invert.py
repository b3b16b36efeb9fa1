"""Staged inversion runs and the stepwise per-stage test harness.

The exact run alternates tagging with the exact stage reflection for
j = 0 .. n/2 - 1 and concentrates the full amplitude on the preimage of x;
the error-tolerant run swaps in the pseudo-reflection. Closed-form oracles
give the expected state after each half-stage:

* after the stage-j tag: the signed uniform state over (stage set, tagged set);
* after the stage-j reflection: the uniform state over the next stage set.

Runs and the stepwise test simulate on the real, image-order block engine
below, which compares with these oracles through slice sums; the dense
oracle states remain as the references the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ops import PseudoIdentity
from .perm import Permutation, _check_value, _check_values, prefix_members
from .qstate import StateVector, check_register_sizes, make_signed_uniform

EXACT_THRESHOLD = 1.0 - 1e-9
PSEUDO_THRESHOLD = 0.99


def initial_state(n: int, k: int = 0) -> StateVector:
    """Uniform superposition over every main value, ancilla at 0."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"main register size must be even and >= 2, got {n}")
    state = StateVector(n, k)
    state.grid()[:, 0] = 2.0 ** (-n / 2)
    return state


def expected_state_after_tag(perm: Permutation, x: int, j: int, k: int = 0) -> StateVector:
    """Closed form for the state right after the stage-j tag in an exact run."""
    support = prefix_members(perm, x, 2 * j)
    flipped = prefix_members(perm, x, 2 * j + 2)
    return make_signed_uniform(support, flipped, k=k, n=perm.n)


def expected_state_after_reflect(perm: Permutation, x: int, j: int, k: int = 0) -> StateVector:
    """Closed form for the state right after the stage-j reflection: uniform
    over the preimages consistent with x's top 2j + 2 bits."""
    return make_signed_uniform(prefix_members(perm, x, 2 * j + 2), k=k, n=perm.n)


@dataclass(frozen=True)
class StageTrace:
    """Per-stage distances to the closed-form oracles along a run."""

    dist_after_tag: tuple[float, ...]
    dist_after_reflect: tuple[float, ...]
    stage_fidelity: tuple[float, ...]
    verdicts: tuple[bool, ...]
    threshold: float

    @property
    def first_failing(self) -> int | None:
        for j, ok in enumerate(self.verdicts):
            if not ok:
                return j
        return None


@dataclass(eq=False)
class RunReport:
    """Outcome of one inversion run for a single conditioning value x."""

    x: int
    n: int
    k: int
    success_prob: float
    v2_norm: float
    family: str
    perm_seed: int | None
    a: float | None = None
    b: float | None = None
    bad_size: int | None = None
    j_seed: int | None = None
    trace: StageTrace | None = None
    first_failing_stage: int | None = None
    final_state: StateVector | None = field(default=None, repr=False)


class ExactReflectionProvider:
    """Stage operators as data: the exact reflection about the stage-j set.

    The other providers change only the data. `jop` conjugates every
    reflection by the pseudo-identity's rotations; `corrupt_stage` names the
    one stage that reflects about the next, smaller prefix block instead.
    """

    name = "exact"
    k = 0
    jop = None
    corrupt_stage = None


class PseudoReflectionProvider(ExactReflectionProvider):
    """Every reflection conjugated by a pseudo-identity."""

    name = "pseudo"

    def __init__(self, jop: PseudoIdentity):
        self.jop = jop
        self.k = jop.k


class CorruptedReflectionProvider(ExactReflectionProvider):
    """Exact everywhere except one stage, where it reflects about the wrong
    (two bits longer) prefix set."""

    name = "corrupted"

    def __init__(self, corrupt_stage: int):
        self.corrupt_stage = int(corrupt_stage)


# The block engine keeps a state in image order: row v of a float64 array
# holds the amplitude of y = f^-1(v), one column per ancilla value w. Every
# operator is real and leaves w >= 2 at zero, so only w = 0 is stored, plus
# w = 1 when a pseudo-identity rotates into it. In image order the stage-j
# set of x is the contiguous block of v that share x's top 2j bits, and the
# stage-j tag marks the quarter of it that is the next block. Outside the
# block every stage is a sign change (the reflection is -I there, conjugated
# or not), so a stage touches only its block, and a row that leaves keeps
# its squared amplitude for the rest of the run.

def _check_operator(perm: Permutation, jop: PseudoIdentity) -> None:
    if jop.n != perm.n:
        raise ValueError(f"operator acts on {jop.n} main qubits but permutation has {perm.n}")


def _image_rotation(perm: Permutation, jop: PseudoIdentity | None) -> np.ndarray | None:
    """The pseudo-identity's cosines and sines as two rows in image order, or None."""
    if jop is None:
        return None
    _check_operator(perm, jop)
    return np.stack((jop.cosines, jop.sines))[:, perm.inverse_table]


def _block(n: int, x: int, j: int) -> tuple[int, int, int]:
    """Rows [lo, hi) of x's stage-j block and the quarter q of it that is the
    stage-(j+1) block."""
    shift = n - 2 * j
    lo = (x >> shift) << shift
    return lo, lo + (1 << shift), (x >> (shift - 2)) & 3


def _sumsq(a: np.ndarray) -> float:
    return float((a * a).sum())


def _distance(quarters: np.ndarray, oracle: np.ndarray, leaked: float) -> float:
    """Distance to the state with w = 0 amplitude oracle[i] on quarter i of the
    block and zero elsewhere; leaked is the squared norm outside the block."""
    diff = quarters[:, :, 0] - oracle[:, None]
    return float(np.sqrt(leaked + _sumsq(diff) + _sumsq(quarters[:, :, 1:])))


def _next_fidelity(blk: np.ndarray, q: int) -> float:
    """Squared overlap with the uniform state over quarter q of the block at w = 0."""
    quarter = blk.reshape(4, -1, blk.shape[1])[q, :, 0]
    return float((quarter.sum() / np.sqrt(quarter.size)) ** 2)


def _stage(blk: np.ndarray, q: int, rotation=None, corrupt=False, rows=None, leaked=0.0) -> float:
    """One stage in place on x's current block, whose quarter q is the next
    block: the tag, then the reflection about the block (about the quarter at
    a corrupted stage), conjugated by the block's rotation rows (c, s) when
    given.

    Inside the reflected range, J^dag (R x I) J psi = -psi + 2 J^dag (P x I) J psi
    with P the projector on the range's uniform state, so it needs the two
    column means of J psi; elsewhere it is -psi. Returns the squared norm that
    leaves with the other three quarters. rows, when given, collect the
    distances and fidelity to the oracles, with leaked the squared norm already
    outside the block.
    """
    size = blk.shape[0]
    quarters = blk.reshape(4, size // 4, blk.shape[1])
    quarters[q] *= -1
    amp = 1.0 / np.sqrt(size)
    if rows is not None:
        oracle = np.full(4, amp)
        oracle[q] = -amp
        rows[0].append(_distance(quarters, oracle, leaked))
    lo, hi = (q * size // 4, (q + 1) * size // 4) if corrupt else (0, size)
    target = blk[lo:hi]
    if rotation is None:
        means = target.sum(axis=0) / (hi - lo)
        blk *= -1
        target += 2.0 * means
    else:
        c, s = rotation[:, lo:hi]
        a0, a1 = target[:, 0], target[:, 1]
        m0 = 2.0 * float((c * a0 - s * a1).sum()) / (hi - lo)
        m1 = 2.0 * float((s * a0 + c * a1).sum()) / (hi - lo)
        blk *= -1
        a0 += c * m0 + s * m1
        a1 += c * m1 - s * m0
    if rows is not None:
        oracle = np.zeros(4)
        oracle[q] = 2.0 * amp
        rows[1].append(_distance(quarters, oracle, leaked))
        rows[2].append(_next_fidelity(blk, q))
    return _sumsq(quarters[:q]) + _sumsq(quarters[q + 1:])


def _left_block_signs(n: int, x: int) -> np.ndarray:
    """The sign every row has picked up by the end of a run from the stages
    after it left x's block: -1 from the reflection, undone by the tag on the
    tagged quarters."""
    signs = np.ones(1 << n)
    for j in range(1, n // 2):
        lo, hi, q = _block(n, x, j)
        factor = np.full(1 << n, -1.0)
        factor.reshape(1 << 2 * j, 4, -1)[:, q] = 1.0
        factor[lo:hi] = 1.0
        signs *= factor
    return signs


def _run(perm, x, provider, k, trace, threshold, keep_state) -> RunReport:
    """Every stage from the uniform state; success is read off (f^-1(x), 0),
    which is row x in image order."""
    check_register_sizes(perm.n, k)
    _check_value(x, perm.n)
    n = perm.n
    rotation = _image_rotation(perm, provider.jop)
    psi = np.zeros((1 << n, 1 if rotation is None else 2))
    psi[:, 0] = 2.0 ** (-n / 2)
    rows = ([], [], []) if trace else None
    leaked = 0.0
    for j in range(n // 2):
        lo, hi, q = _block(n, x, j)
        rot = None if rotation is None else rotation[:, lo:hi]
        leaked += _stage(psi[lo:hi], q, rot, j == provider.corrupt_stage, rows, leaked)
    success = float(psi[x, 0] ** 2)
    off_target = leaked + _sumsq(psi[x, 1:])
    norm = np.sqrt(success + off_target)
    if abs(norm - 1.0) > 1e-9:
        raise RuntimeError(f"state norm drifted to {norm} during the run")
    stage_trace = None
    if trace:
        verdicts = tuple(f >= threshold for f in rows[2])
        stage_trace = StageTrace(tuple(rows[0]), tuple(rows[1]), tuple(rows[2]), verdicts, threshold)
    final_state = None
    if keep_state:
        final_state = StateVector(n, k)
        final_state.grid()[perm.inverse_table, :psi.shape[1]] = psi * _left_block_signs(n, x)[:, None]
    jop = provider.jop
    return RunReport(
        x=x,
        n=n,
        k=k,
        success_prob=success,
        v2_norm=float(np.sqrt(off_target)),
        family=perm.family,
        perm_seed=perm.seed,
        a=None if jop is None else jop.a,
        b=None if jop is None else jop.b,
        bad_size=None if jop is None else jop.bad_size,
        j_seed=None if jop is None else jop.seed,
        trace=stage_trace,
        first_failing_stage=None if stage_trace is None else stage_trace.first_failing,
        final_state=final_state,
    )


def run_inv(
    perm: Permutation,
    x: int,
    k: int = 0,
    trace: bool = False,
    threshold: float = EXACT_THRESHOLD,
    keep_state: bool = False,
) -> RunReport:
    """Exact staged inversion of x; success probability is read off the basis
    state (f^-1(x), 0)."""
    return _run(perm, x, ExactReflectionProvider(), k, trace, threshold, keep_state)


def run_av_inv(
    perm: Permutation,
    x: int,
    jop: PseudoIdentity,
    trace: bool = False,
    threshold: float = PSEUDO_THRESHOLD,
    keep_state: bool = False,
) -> RunReport:
    """Error-tolerant staged inversion: the exact reflection is replaced by
    its conjugation under the pseudo-identity."""
    return _run(perm, x, PseudoReflectionProvider(jop), jop.k, trace, threshold, keep_state)


def success_probabilities(perm: Permutation, jop: PseudoIdentity, xs) -> np.ndarray:
    """`run_av_inv`'s success probability for every x in xs, in closed form.

    J acts inside each (|y,0>, |y,1>) pair, so it commutes with every tag, and
    J J^dag = I between stages: the run telescopes to J^dag (M_x x I) J |u,0>,
    where M_x is the exact staged run. M_x is real and orthogonal with
    M_x u = e_{y*}, y* = f^-1(x), so <y*|M_x v> = <u|v> for every v. With the
    unit vectors v_y = (c_y, s_y) and their mean v̄, the amplitude at (y*, 0) is
    c_{y*} mean(c) + s_{y*} mean(s) = 1 - (|v_{y*} - v̄|^2 + mean_y |v_y - v̄|^2) / 2.
    The right side is free of cancellation and exactly 1 when all v_y agree.
    Success is its square: O(2^n) for all x, whatever the operator.
    """
    _check_operator(perm, jop)
    ys = perm.inverse_table[_check_values(xs, perm.n)]
    dc, ds = jop.cosines - jop.cosines.mean(), jop.sines - jop.sines.mean()
    spread = dc * dc + ds * ds
    amps = 1.0 - 0.5 * (spread[ys] + spread.mean())
    return amps * amps


@dataclass(frozen=True)
class StepwiseReport:
    """Aggregated stage verdicts over every tested x."""

    n: int
    x_count: int
    threshold: float
    provider: str
    stage_min_fidelity: tuple[float, ...]
    stage_pass: tuple[bool, ...]
    first_failing_stage: int | None
    per_x_first_failing: tuple[int | None, ...]

    @property
    def all_pass(self) -> bool:
        return self.first_failing_stage is None


def run_stepwise_test(
    perm: Permutation,
    xs,
    provider,
    threshold: float = EXACT_THRESHOLD,
) -> StepwiseReport:
    """Check a claimed family of stage reflections one stage at a time.

    Each stage j starts from the ideal pre-stage state, applies the exact tag
    and then the provider's stage-j operator, and compares the result with the
    post-reflection oracle. A stage passes when its fidelity stays at or above
    the threshold for every tested x. The ideal input is zero outside x's
    stage-j block and stays so, so each stage runs on the constant block alone.
    """
    xs = [int(x) for x in xs]
    for x in xs:
        _check_value(x, perm.n)
    check_register_sizes(perm.n, provider.k)
    rotation = _image_rotation(perm, provider.jop)
    width = 1 if rotation is None else 2
    stages = perm.n // 2
    min_fid = [1.0] * stages
    per_x_first = []
    for x in xs:
        first = None
        for j in range(stages):
            lo, hi, q = _block(perm.n, x, j)
            rot = None if rotation is None else rotation[:, lo:hi]
            blk = np.zeros((hi - lo, width))
            blk[:, 0] = 1.0 / np.sqrt(hi - lo)
            _stage(blk, q, rot, j == provider.corrupt_stage)
            fid = _next_fidelity(blk, q)
            min_fid[j] = min(min_fid[j], fid)
            if fid < threshold and first is None:
                first = j
        per_x_first.append(first)
    stage_pass = tuple(f >= threshold for f in min_fid)
    first_failing = next((j for j, ok in enumerate(stage_pass) if not ok), None)
    return StepwiseReport(
        n=perm.n,
        x_count=len(xs),
        threshold=threshold,
        provider=provider.name,
        stage_min_fidelity=tuple(min_fid),
        stage_pass=stage_pass,
        first_failing_stage=first_failing,
        per_x_first_failing=tuple(per_x_first),
    )
