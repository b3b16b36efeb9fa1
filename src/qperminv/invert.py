"""Staged inversion runs and the stepwise per-stage test harness.

The exact run alternates tagging with the exact stage reflection for
j = 0 .. n/2 - 1 and concentrates the full amplitude on the preimage of x;
the error-tolerant run swaps in the pseudo-reflection. Closed-form oracles
give the expected state after each half-stage:

* after the stage-j tag: the signed uniform state over (stage set, tagged set);
* after the stage-j reflection: the uniform state over the next stage set.

Runs and the stepwise test build no state. Each stage's state is a unit
vector whose overlap with its oracle is real, so one overlap per (x, stage)
gives every reported value, and that overlap follows in closed form from the
means and spreads of the pseudo-identity's rotation vectors over x's prefix
blocks, for every x at once. The dense oracle states remain as the
references the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import PseudoIdentity
from .perm import Permutation, _check_stage, _check_values, prefix_members
from .qstate import StateVector, make_signed_uniform

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


# The closed forms work with the unit vectors v_y = c_y + i s_y of the
# pseudo-identity's rotations (all 1 for the exact reflections) in image
# order: row v holds y = f^-1(v). There the stage-i set of x, the y whose f(y)
# shares x's top 2i bits, is a contiguous block B_i, the four stage-(i+1)
# blocks side by side, and the statistics of a block are its mean v̄_B and its
# spread mean_B |v - v̄_B|^2 = 1 - |v̄_B|^2.

def _check_operator(perm: Permutation, jop: PseudoIdentity) -> None:
    if jop.n != perm.n:
        raise ValueError(f"operator acts on {jop.n} main qubits but permutation has {perm.n}")


def _sq(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _vectors(perm: Permutation, jop: PseudoIdentity | None) -> np.ndarray:
    if jop is None:
        return np.ones(perm.size, dtype=np.complex128)
    _check_operator(perm, jop)
    return jop.cosines + 1j * jop.sines


def _sum4(kids: np.ndarray) -> np.ndarray:
    return (kids[..., 0] + kids[..., 1]) + (kids[..., 2] + kids[..., 3])


def _levels(perm: Permutation, per_y: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """(means, spreads) of per_y, indexed by y on its last axis, over every
    stage-i block, i = 0 .. n/2, in block order, from one gather into image
    order and one upward pass; spreads for complex vectors only, else None.

    A parent's mean is the mean of its children's (a mean times its block size
    is the block's sum: quarters are exact), and its spread is the mean of
    theirs plus the mean of |child mean - parent mean|^2, free of cancellation.
    Sums pair up, so a constant block has that constant as its mean and spread
    0 exactly.
    """
    mean = per_y[..., perm.inverse_table]
    spread = np.zeros(mean.shape) if np.iscomplexobj(mean) else None
    levels = [(mean, spread)]
    for _ in range(perm.n // 2):
        kids = mean.reshape(*mean.shape[:-1], -1, 4)
        mean = _sum4(kids) / 4.0
        if spread is not None:
            spread = _sum4(spread.reshape(kids.shape) + _sq(kids - mean[..., None])) / 4.0
        levels.append((mean, spread))
    return levels[::-1]


def _at(levels: list, i: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and spread of each x's stage-i block, gathered by x's top 2i bits."""
    means, spreads = levels[i]
    blocks = xs >> 2 * (len(levels) - 1 - i)
    return means[blocks], spreads[blocks]


def stage_deficits(perm: Permutation, xs, jop: PseudoIdentity | None, stages) -> np.ndarray:
    """1 - amp for each x in xs (rows) and each stage j in stages (columns),
    where amp is the overlap of the run's state after stage j with the stage-j
    reflection oracle.

    J commutes with every tag, so after stage j the run is J^dag (M_j x I) J
    |u,0>, with u = 2^(-n/2) and M_j the exact stages 0 .. j, each applied to
    both ancilla columns of J|u,0> = u v. Inside x's stage-(j+1) block B every
    stage i <= j adds a constant, and the sum is 2^(j+1) u v̄ - u v̄_B, with v̄
    the mean over all y. Against J|oracle,0>, uniform over B at v_y / sqrt|B|,
    that gives amp = 2^-(j+1) (1 - |v̄_B|^2) + v̄_B . v̄, free of cancellation as

        1 - amp = |v̄_B - v̄|^2 / 2 + spread_all / 2 + (1/2 - 2^-(j+1)) spread_B.

    An exact run has every v_y = 1, so its deficits are exactly 0. The last
    stage's B is the single y = f^-1(x), so that column alone costs O(2^n)
    for all x.
    """
    xs = _check_values(xs, perm.n)
    levels = _levels(perm, _vectors(perm, jop))
    return np.stack([_deficit_column(levels, j, xs) for j in stages], axis=1)


def _deficit_column(levels: list, j: int, xs: np.ndarray) -> np.ndarray:
    """`stage_deficits` at stage j, from the levels of the rotation vectors."""
    mean_all, spread_all = levels[0]
    means, spreads = _at(levels, j + 1, xs)
    return 0.5 * _sq(means - mean_all) + 0.5 * spread_all + (0.5 - 0.5 ** (j + 1)) * spreads


def _success_residual(last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Success amp^2 and residual sqrt(1 - amp^2) = sqrt(d (2 - d)) from the
    last stage's deficit d = 1 - amp, read without cancellation."""
    return (1.0 - last) ** 2, np.sqrt(np.maximum(0.0, last * (2.0 - last)))


@dataclass(frozen=True, eq=False)
class Runs:
    """Inversion runs as columns, one row per x in ascending x.

    deficits holds `stage_deficits` for every stage when traced, else for the
    last; first_failing_stage is -1 where every stage passes, and None when
    untraced."""

    x: np.ndarray
    success_prob: np.ndarray
    v2_norm: np.ndarray
    deficits: np.ndarray
    first_failing_stage: np.ndarray | None


def run_batch(perm: Permutation, jop: PseudoIdentity | None, xs, trace: bool,
              threshold: float) -> Runs:
    """The runs of every x in xs, read from `stage_deficits`.

    Oracle and state are unit vectors with a real overlap amp, so the fidelity
    is amp^2 and the distance after stage j's reflection is sqrt(2 (1 - amp)).
    The tag is unitary and maps the previous oracle onto the tag oracle, so the
    distance after a tag is the one after the previous reflection (0 first).
    The last oracle is the basis state (f^-1(x), 0), so success and residual
    follow from the last deficit. A traced run's first failing stage is its
    first with fidelity below the threshold.
    """
    xs = np.sort(_check_values(xs, perm.n))
    deficits = stage_deficits(perm, xs, jop, range(perm.n // 2) if trace else [perm.n // 2 - 1])
    first_failing = None
    if trace:
        failing = ~((1.0 - deficits) ** 2 >= threshold)
        first_failing = np.where(failing.any(axis=1), failing.argmax(axis=1), -1)
    return Runs(xs, *_success_residual(deficits[:, -1]), deficits, first_failing)


@dataclass(frozen=True)
class StageTrace:
    """Per-stage distances to the closed-form oracles along one run."""

    dist_after_tag: tuple[float, ...]
    dist_after_reflect: tuple[float, ...]
    stage_fidelity: tuple[float, ...]


@dataclass(eq=False)
class RunReport:
    """One row of `Runs` as a record, with its trace when traced."""

    x: int
    success_prob: float
    v2_norm: float
    trace: StageTrace | None
    first_failing_stage: int | None


def run_av_inv(
    perm: Permutation,
    x: int,
    jop: PseudoIdentity,
    trace: bool = False,
    threshold: float = PSEUDO_THRESHOLD,
) -> RunReport:
    """Error-tolerant staged inversion of one x: the exact reflection is
    replaced by its conjugation under the pseudo-identity."""
    runs = run_batch(perm, jop, [x], trace, threshold)
    stages = first_failing = None
    if trace:
        deficits = runs.deficits[0]
        dist = np.sqrt(2.0 * deficits)
        stages = StageTrace(tuple(np.pad(dist[:-1], (1, 0)).tolist()), tuple(dist.tolist()),
                            tuple(((1.0 - deficits) ** 2).tolist()))
        first_failing = int(runs.first_failing_stage[0])
    return RunReport(int(runs.x[0]), float(runs.success_prob[0]), float(runs.v2_norm[0]), stages,
                     None if first_failing == -1 else first_failing)


@dataclass(frozen=True)
class StepwiseReport:
    """Aggregated stage verdicts over every tested x."""

    stage_min_fidelity: tuple[float, ...]
    stage_pass: tuple[bool, ...]
    first_failing_stage: int | None

    @property
    def all_pass(self) -> bool:
        return self.first_failing_stage is None


def run_stepwise_test(
    perm: Permutation,
    xs,
    jop: PseudoIdentity | None = None,
    corrupt_stage: int | None = None,
    threshold: float = EXACT_THRESHOLD,
) -> StepwiseReport:
    """Check a claimed family of stage reflections one stage at a time.

    Each stage j starts from the ideal pre-stage state, the uniform state over
    x's stage-j block B_j, applies the exact tag and then the stage operator:
    the exact reflection about B_j, its conjugation by jop when given, or at
    corrupt_stage the reflection about the next, smaller block B_{j+1}. Its
    overlap amp with the oracle, the uniform state over B_{j+1}, follows as in
    `stage_deficits` from 1 - amp = (spread_{B_j} + |v̄_{B_j} - v̄_{B_{j+1}}|^2) / 2,
    and is -1/2 at the corrupted stage. A stage passes when its fidelity amp^2
    stays at or above the threshold for every tested x.
    """
    if jop is not None and corrupt_stage is not None:
        raise ValueError("a corrupted stage is defined for the exact reflections only")
    xs = _check_values(xs, perm.n)
    levels = _levels(perm, _vectors(perm, jop))
    stats = [_at(levels, i, xs) for i in range(perm.n // 2 + 1)]
    deficits = np.stack([0.5 * (spreads + _sq(means - stats[j + 1][0]))
                         for j, (means, spreads) in enumerate(stats[:-1])], axis=1)
    if corrupt_stage is not None:
        _check_stage(perm, corrupt_stage)
        deficits[:, corrupt_stage] = 1.5
    fidelity = (1.0 - deficits) ** 2
    min_fid = tuple(np.min(fidelity, axis=0, initial=1.0).tolist())
    stage_pass = tuple(f >= threshold for f in min_fid)
    first_failing = next((j for j, ok in enumerate(stage_pass) if not ok), None)
    return StepwiseReport(min_fid, stage_pass, first_failing)
