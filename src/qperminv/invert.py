"""Staged inversion runs and the stepwise per-stage test harness.

The exact run alternates tagging with the exact stage reflection for
j = 0 .. n/2 - 1 and concentrates the full amplitude on the preimage of x;
the error-tolerant run swaps in the pseudo-reflection. Closed-form oracles
give the expected state after each half-stage:

* after the stage-j tag: the signed uniform state over (stage set, tagged set);
* after the stage-j reflection: the uniform state over the next stage set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ops import (
    PseudoIdentity,
    apply_pseudo_reflection,
    apply_reflection_exact,
    apply_tagging,
    reflect_about_uniform,
)
from .perm import Permutation, _check_value, _check_values, prefix_members
from .qstate import StateVector, basis_overlap, make_signed_uniform

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
    """Stage-operator source that applies the exact reflection."""

    name = "exact"
    k = 0

    def apply(self, state: StateVector, perm: Permutation, x: int, j: int) -> None:
        apply_reflection_exact(state, perm, x, j)


class PseudoReflectionProvider:
    """Stage-operator source backed by a pseudo-identity conjugation."""

    name = "pseudo"

    def __init__(self, jop: PseudoIdentity):
        self.jop = jop
        self.k = jop.k

    def apply(self, state: StateVector, perm: Permutation, x: int, j: int) -> None:
        apply_pseudo_reflection(state, perm, x, j, self.jop)


class CorruptedReflectionProvider:
    """Exact everywhere except one stage, where it reflects about the wrong
    (two bits longer) prefix set."""

    name = "corrupted"
    k = 0

    def __init__(self, corrupt_stage: int):
        self.corrupt_stage = int(corrupt_stage)

    def apply(self, state: StateVector, perm: Permutation, x: int, j: int) -> None:
        if j == self.corrupt_stage:
            reflect_about_uniform(state, prefix_members(perm, x, 2 * j + 2))
        else:
            apply_reflection_exact(state, perm, x, j)


def _stage(state: StateVector, perm: Permutation, x: int, j: int, provider, rows=None) -> None:
    """Stage j in place: the exact tag, then the provider's stage-j operator;
    rows, when given, collect the distances and fidelity to the oracles."""
    apply_tagging(state, perm, x, j)
    if rows is not None:
        rows[0].append(state.distance_to(expected_state_after_tag(perm, x, j, state.k)))
    provider.apply(state, perm, x, j)
    if rows is not None:
        oracle = expected_state_after_reflect(perm, x, j, state.k)
        rows[1].append(state.distance_to(oracle))
        rows[2].append(float(abs(oracle.inner(state)) ** 2))


def _run(perm, x, provider, k, trace, threshold, keep_state, jop=None) -> RunReport:
    """Every stage from the uniform state; success is read off (f^-1(x), 0)."""
    _check_value(x, perm.n)
    state = initial_state(perm.n, k)
    rows = ([], [], []) if trace else None
    for j in range(perm.n // 2):
        _stage(state, perm, x, j, provider, rows)
    norm = state.norm()
    if abs(norm - 1.0) > 1e-9:
        raise RuntimeError(f"state norm drifted to {norm} during the run")
    success = basis_overlap(state, perm.inverse(x), 0)
    stage_trace = None
    if trace:
        verdicts = tuple(f >= threshold for f in rows[2])
        stage_trace = StageTrace(tuple(rows[0]), tuple(rows[1]), tuple(rows[2]), verdicts, threshold)
    return RunReport(
        x=x,
        n=perm.n,
        k=k,
        success_prob=success,
        v2_norm=float(np.sqrt(max(0.0, 1.0 - success))),
        family=perm.family,
        perm_seed=perm.seed,
        a=None if jop is None else jop.a,
        b=None if jop is None else jop.b,
        bad_size=None if jop is None else jop.bad_size,
        j_seed=None if jop is None else jop.seed,
        trace=stage_trace,
        first_failing_stage=None if stage_trace is None else stage_trace.first_failing,
        final_state=state if keep_state else None,
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
    if jop.n != perm.n:
        raise ValueError(f"operator acts on {jop.n} main qubits but permutation has {perm.n}")
    return _run(perm, x, PseudoReflectionProvider(jop), jop.k, trace, threshold, keep_state, jop)


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
    if jop.n != perm.n:
        raise ValueError(f"operator acts on {jop.n} main qubits but permutation has {perm.n}")
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
    the threshold for every tested x.
    """
    xs = [int(x) for x in xs]
    for x in xs:
        _check_value(x, perm.n)
    stages = perm.n // 2
    k = provider.k
    min_fid = [1.0] * stages
    per_x_first = []
    for x in xs:
        first = None
        for j in range(stages):
            if j == 0:
                state = initial_state(perm.n, k)
            else:
                state = expected_state_after_reflect(perm, x, j - 1, k)
            _stage(state, perm, x, j, provider)
            fid = float(abs(expected_state_after_reflect(perm, x, j, k).inner(state)) ** 2)
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
