"""Tagging, reflections, pseudo-identities, and their algebraic properties."""

import numpy as np
import pytest

from qperminv import (
    PseudoIdentity,
    build_permutation,
    build_pseudo_identity,
    error_length,
    parse_pseudo_identity,
    permutation_to_text,
    run_av_inv,
    serialize_pseudo_identity,
)
from qperminv.invert import initial_state
from qperminv.ops import (
    _draw_operator,
    apply_pseudo_identity,
    apply_pseudo_reflection,
    apply_reflection_exact,
    apply_tagging,
    bad_set_capacity,
    reflect_about_uniform,
)
from qperminv.perm import prefix_members
from qperminv.qstate import StateVector, make_signed_uniform


def random_state(n, k, rng):
    amps = rng.normal(size=1 << (n + k)) + 1j * rng.normal(size=1 << (n + k))
    amps /= np.linalg.norm(amps)
    return StateVector(n, k, amps)


def uniform_state(n, k=0):
    state = StateVector(n, k)
    state.grid()[:, 0] = 2.0 ** (-n / 2)
    return state


# --- tagging ---------------------------------------------------------------


def test_tagging_example():
    perm = build_permutation("identity", 2)
    state = uniform_state(2)
    apply_tagging(state, perm, x=3, j=0)
    assert state.amps.tolist() == [0.5, 0.5, 0.5, -0.5]


def test_tagging_is_involution():
    rng = np.random.default_rng(0)
    perm = build_permutation("random", 6, seed=2)
    for _ in range(10):
        state = random_state(6, 1, rng)
        before = state.amps.copy()
        apply_tagging(state, perm, x=19, j=1)
        apply_tagging(state, perm, x=19, j=1)
        assert np.array_equal(state.amps, before)


def test_tagging_without_matches_is_identity():
    perm = build_permutation("identity", 4)
    # support only y whose bits 1..2 are 00; tag for x with bits 01 there
    state = make_signed_uniform({0, 1, 2, 3}, k=0, n=4)
    before = state.amps.copy()
    apply_tagging(state, perm, x=0b0100, j=0)
    assert np.array_equal(state.amps, before)


def test_tagging_flips_all_ancilla_slices():
    perm = build_permutation("identity", 2)
    state = StateVector(2, 1, np.ones(8) / np.sqrt(8))
    apply_tagging(state, perm, x=3, j=0)
    grid = state.grid()
    assert grid[3, 0] < 0 and grid[3, 1] < 0
    assert grid[0, 0] > 0


def test_tagging_range_checks():
    perm = build_permutation("identity", 4)
    state = uniform_state(4)
    with pytest.raises(ValueError, match="stage"):
        apply_tagging(state, perm, x=0, j=2)
    with pytest.raises(ValueError, match="range"):
        apply_tagging(state, perm, x=16, j=0)
    with pytest.raises(ValueError, match="qubits"):
        apply_tagging(uniform_state(2), perm, x=0, j=0)


# --- exact reflection --------------------------------------------------------


def test_reflection_example():
    perm = build_permutation("identity", 2)
    state = StateVector(2, 0, np.array([0.5, 0.5, 0.5, -0.5]))
    apply_reflection_exact(state, perm, x=3, j=0)
    assert state.amps.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_reflection_fixes_its_axis():
    perm = build_permutation("random", 4, seed=5)
    state = make_signed_uniform(prefix_members(perm, 9, 2), k=0, n=4)
    before = state.amps.copy()
    apply_reflection_exact(state, perm, x=9, j=1)
    assert np.linalg.norm(state.amps - before) <= 1e-15


def test_reflection_negates_orthogonal_component():
    perm = build_permutation("identity", 2)
    # orthogonal to the uniform axis within the slice
    state = StateVector(2, 0, np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2))
    apply_reflection_exact(state, perm, x=0, j=0)
    assert np.allclose(state.amps, -np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2), atol=1e-15)


def test_reflection_is_involution_and_preserves_norm():
    rng = np.random.default_rng(3)
    perm = build_permutation("random", 6, seed=8)
    for _ in range(10):
        state = random_state(6, 1, rng)
        before = state.amps.copy()
        apply_reflection_exact(state, perm, x=33, j=1)
        assert abs(state.norm() - 1.0) <= 1e-12
        apply_reflection_exact(state, perm, x=33, j=1)
        assert np.linalg.norm(state.amps - before) <= 1e-12


def test_reflection_acts_per_ancilla_slice():
    perm = build_permutation("random", 4, seed=7)
    state = StateVector.basis(4, 1, 6, 1)
    apply_reflection_exact(state, perm, x=2, j=1)
    grid = state.grid()
    assert np.all(grid[:, 0] == 0.0)
    assert abs(np.linalg.norm(grid[:, 1]) - 1.0) <= 1e-12


def test_grover_quarter_landing():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(2 * rng.integers(1, 6))
        size = 1 << n
        s_size = 4 * int(rng.integers(1, size // 4 + 1))
        support = rng.choice(size, size=s_size, replace=False)
        flipped = rng.choice(support, size=s_size // 4, replace=False)
        state = make_signed_uniform(support, flipped, k=0, n=n)
        reflect_about_uniform(state, support)
        target = make_signed_uniform(flipped, k=0, n=n)
        assert state.distance_to(target) <= 1e-12


# --- pseudo-identity ---------------------------------------------------------


def test_trivial_pseudo_identity_acts_as_identity():
    rng = np.random.default_rng(4)
    jop = build_pseudo_identity(4, 1, a=0.0, b=0.0)
    for _ in range(5):
        state = random_state(4, 1, rng)
        before = state.amps.copy()
        apply_pseudo_identity(state, jop)
        assert np.array_equal(state.amps, before)


def test_worst_case_bad_state_is_fully_rotated():
    jop = build_pseudo_identity(2, 1, a=0.0, b=0.25, explicit_bad_set=[0])
    state = StateVector.basis(2, 1, 0, 0)
    apply_pseudo_identity(state, jop)
    assert state.amps[state.index_of(0, 1)] == 1.0
    assert state.amps[state.index_of(0, 0)] == 0.0


def _identity_defect(jop, z):
    """|1 - <z,0|J|z,0>|, from J applied to the basis state (z, 0)."""
    state = StateVector.basis(jop.n, jop.k, z)
    apply_pseudo_identity(state, jop)
    return abs(1.0 - state.amps[state.index_of(z, 0)])


def test_worst_case_good_cosines():
    jop = build_pseudo_identity(4, 1, a=0.02, b=0.0)
    assert np.allclose(jop.cosines, 0.98)
    assert _identity_defect(jop, 7) == pytest.approx(0.02, abs=1e-15)


def test_identity_defect_cases():
    trivial = build_pseudo_identity(2, 1)
    assert all(_identity_defect(trivial, z) == 0.0 for z in range(4))
    jop = build_pseudo_identity(2, 1, a=0.0, b=0.5, explicit_bad_set=[1, 2])
    assert _identity_defect(jop, 1) == 1.0
    with pytest.raises(ValueError, match="range"):
        _identity_defect(jop, 4)


def test_bad_set_capacity_enforced():
    with pytest.raises(ValueError, match="exceeds"):
        build_pseudo_identity(2, 1, a=0.0, b=0.25, explicit_bad_set=[0, 1])
    with pytest.raises(ValueError, match="ancilla"):
        build_pseudo_identity(2, 0, a=0.0, b=0.0)


@pytest.mark.parametrize(
    "z,cosine,match",
    [(0, float("nan"), "-1, 1"), (1, float("nan"), "-1, 1"), (1, -1.5, "-1, 1"),
     (0, 0.5, "good-state"), (1, -1.0, None), (0, 0.9, None)],
    ids=["good-nan", "bad-nan", "bad-below-minus-1", "good-below-1-a", "bad-minus-1", "good-at-1-a"],
)
def test_operator_cosines_are_checked(z, cosine, match):
    """n=2, bad set {1}, a=0.1: a bad cosine may be anything in [-1, 1], a good one in [0.9, 1]."""
    cosines = np.full(4, 0.95)
    cosines[z] = cosine
    if match is None:
        assert PseudoIdentity(2, 1, 0.1, 0.25, [1], cosines).cosines[z] == cosine
    else:
        with pytest.raises(ValueError, match=match):
            PseudoIdentity(2, 1, 0.1, 0.25, [1], cosines)


def test_sampled_bad_sets_have_exact_size_and_nest():
    for m in (0, 1, 2, 4, 8):
        jop = build_pseudo_identity(6, 1, b=m / 64, seed=13)
        assert jop.bad_size == m
    small = set(build_pseudo_identity(6, 1, b=2 / 64, seed=13).bad_set)
    large = set(build_pseudo_identity(6, 1, b=4 / 64, seed=13).bad_set)
    assert small <= large


def _draw_with_generator(n, a, b, bad_mode, angle_mode, seed, explicit_bad_set=None):
    """The operator draw with one generator made whatever is drawn."""
    size = 1 << n
    rng = np.random.default_rng(seed)
    if explicit_bad_set is not None:
        bad = np.array(sorted(set(explicit_bad_set)), dtype=np.int64)
    else:
        bad = np.sort(rng.permutation(size)[:bad_set_capacity(n, b)]).astype(np.int64)
    if angle_mode == "worst-case":
        cosines = np.full(size, 1.0 - a)
    else:
        cosines = rng.uniform(1.0 - a, 1.0, size=size)
    if bad.size:
        cosines[bad] = 0.0 if bad_mode == "full-rotation" else rng.uniform(-1.0, 1.0, size=bad.size)
    return bad, cosines


@pytest.mark.parametrize("explicit_bad_set", [None, ()])
@pytest.mark.parametrize("bad_mode", ["full-rotation", "random-angle"])
@pytest.mark.parametrize("angle_mode", ["worst-case", "random"])
def test_empty_bad_set_draw_matches_one_generator(explicit_bad_set, bad_mode, angle_mode):
    for n in range(1, 17):
        for a in (0.0, 1e-6, 1e-3):
            for b in (0.0, 2.0 ** -(n + 1)):
                args = (n, a, b, bad_mode, angle_mode, 7 * n, explicit_bad_set)
                bad, cosines = _draw_operator(*args)
                ref_bad, ref_cosines = _draw_with_generator(*args)
                assert bad.dtype == np.int64 and bad.size == 0
                assert np.array_equal(bad, ref_bad)
                assert cosines.tobytes() == ref_cosines.tobytes()


def test_empty_worst_case_draw_makes_no_generator(monkeypatch):
    def refuse(*args):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for explicit_bad_set in (None, (), []):
        bad, cosines = _draw_operator(6, 1e-3, 1 / 128, "random-angle", "worst-case", 5,
                                      explicit_bad_set)
        assert bad.size == 0 and np.all(cosines == 1.0 - 1e-3)
    assert build_pseudo_identity(6, 1, a=1e-3, seed=5).bad_size == 0


def test_negative_operator_seed_is_refused_even_without_draws():
    for b in (0.0, 0.25):
        with pytest.raises(ValueError, match="non-negative"):
            build_pseudo_identity(4, 1, b=b, seed=-1)


def test_pseudo_identity_roundtrip_is_identity():
    rng = np.random.default_rng(6)
    jop = build_pseudo_identity(4, 1, a=1e-3, b=0.25, angle_mode="random", seed=3)
    for _ in range(100):
        state = random_state(4, 1, rng)
        before = state.amps.copy()
        apply_pseudo_identity(state, jop)
        apply_pseudo_identity(state, jop, adjoint=True)
        assert np.linalg.norm(state.amps - before) <= 1e-12


def test_pseudo_identity_preserves_inner_products():
    rng = np.random.default_rng(7)
    jop = build_pseudo_identity(4, 2, a=1e-2, b=0.25, angle_mode="random",
                                bad_mode="random-angle", seed=5)
    for _ in range(20):
        u, v = random_state(4, 2, rng), random_state(4, 2, rng)
        before = np.vdot(u.amps, v.amps)
        apply_pseudo_identity(u, jop)
        apply_pseudo_identity(v, jop)
        assert abs(np.vdot(u.amps, v.amps) - before) <= 1e-9


def test_pseudo_identity_moves_amplitude_within_blocks_only():
    jop = build_pseudo_identity(2, 2, a=0.0, b=0.25, explicit_bad_set=[0])
    state = StateVector(2, 2)
    grid = state.grid()
    grid[0, 0] = 1 / np.sqrt(2)
    grid[1, 0] = 1 / np.sqrt(2)
    apply_pseudo_identity(state, jop)
    assert grid[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert grid[0, 0] == 0.0
    assert grid[1, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    # w >= 2 stays untouched
    state2 = StateVector.basis(2, 2, 0, 2)
    apply_pseudo_identity(state2, jop)
    assert state2.amps[state2.index_of(0, 2)] == 1.0


def test_pseudo_identity_dimension_mismatch():
    jop = build_pseudo_identity(4, 1)
    with pytest.raises(ValueError, match="mismatch"):
        apply_pseudo_identity(StateVector(4, 2), jop)


# --- pseudo-reflection -------------------------------------------------------


def test_pseudo_reflection_with_trivial_operator_matches_exact():
    rng = np.random.default_rng(8)
    perm = build_permutation("random", 4, seed=2)
    jop = build_pseudo_identity(4, 1, a=0.0, b=0.0)
    for _ in range(20):
        state = random_state(4, 1, rng)
        twin = state.copy()
        apply_pseudo_reflection(state, perm, x=5, j=1, jop=jop)
        apply_reflection_exact(twin, perm, x=5, j=1)
        assert state.distance_to(twin) <= 1e-12


def test_pseudo_reflection_is_involution():
    rng = np.random.default_rng(9)
    perm = build_permutation("random", 6, seed=6)
    jop = build_pseudo_identity(6, 1, a=1e-3, b=1 / 16, angle_mode="random", seed=17)
    for _ in range(10):
        state = random_state(6, 1, rng)
        before = state.amps.copy()
        apply_pseudo_reflection(state, perm, x=40, j=1, jop=jop)
        apply_pseudo_reflection(state, perm, x=40, j=1, jop=jop)
        assert np.linalg.norm(state.amps - before) <= 1e-9


def test_pseudo_reflection_matches_composed_half_steps():
    # J^dag (R x I) J spelled out as forward rotation, exact reflection and
    # reverse rotation, stage by stage and over a whole error-tolerant run
    perm = build_permutation("random", 6, seed=14)
    jop = build_pseudo_identity(6, 1, a=1e-3, b=1 / 8, angle_mode="random", seed=2)
    for x in (7, 30, 55):
        composed = initial_state(6, 1)
        for j in range(3):
            apply_tagging(composed, perm, x, j)
            single = composed.copy()
            apply_pseudo_reflection(single, perm, x, j, jop)
            apply_pseudo_identity(composed, jop)
            apply_reflection_exact(composed, perm, x, j)
            apply_pseudo_identity(composed, jop, adjoint=True)
            assert composed.distance_to(single) <= 1e-12
        run = run_av_inv(perm, x, jop)
        target = composed.amps[composed.index_of(perm.inverse(x), 0)]
        assert abs(run.success_prob - abs(target) ** 2) <= 1e-12
        off_target = composed.amps.copy()
        off_target[composed.index_of(perm.inverse(x), 0)] = 0.0
        assert abs(run.v2_norm - np.linalg.norm(off_target)) <= 1e-12


def test_pseudo_reflection_deviation_bounded_by_error_length():
    # against the exact reflection, the deviation on a signed stage state
    # stays within twice the error length of that state
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(2 * rng.integers(1, 4))
        perm = build_permutation("random", n, seed=int(rng.integers(100)))
        m = int(rng.integers(0, (1 << n) // 2 + 1))
        jop = build_pseudo_identity(n, 1, a=0.0, b=m / (1 << n), seed=int(rng.integers(1000)))
        x = int(rng.integers(0, 1 << n))
        j = int(rng.integers(0, n // 2))
        support = prefix_members(perm, x, 2 * j)
        flipped = prefix_members(perm, x, 2 * j + 2)
        state = make_signed_uniform(support, flipped, k=1, n=n)
        twin = state.copy()
        apply_pseudo_reflection(state, perm, x, j, jop)
        apply_reflection_exact(twin, perm, x, j)
        assert state.distance_to(twin) <= 2 * error_length(jop, support, flipped) + 1e-9


# --- reflection defect -------------------------------------------------------


def _reflection_defect(perm, jop, j, x, y_in):
    """|1 - <exact|pseudo>| of the stage-j reflections on the basis state (y_in, 0)."""
    actual = StateVector.basis(perm.n, jop.k, y_in)
    apply_pseudo_reflection(actual, perm, x, j, jop)
    ideal = StateVector.basis(perm.n, jop.k, y_in)
    apply_reflection_exact(ideal, perm, x, j)
    return abs(1.0 - ideal.inner(actual))


def test_reflection_defect_zero_for_trivial_operator():
    perm = build_permutation("random", 4, seed=4)
    jop = build_pseudo_identity(4, 1)
    for x, y_in, j in [(0, 0, 0), (9, 3, 1), (15, 15, 0)]:
        assert _reflection_defect(perm, jop, j, x, y_in) <= 1e-12


def test_reflection_defect_positive_on_displaced_input():
    perm = build_permutation("identity", 4)
    y_in = 5
    jop = build_pseudo_identity(4, 1, a=0.0, b=1 / 16, explicit_bad_set=[y_in])
    defect = _reflection_defect(perm, jop, j=1, x=perm.forward(y_in), y_in=y_in)
    assert defect > 0.1
    assert defect <= 2.0
    # deterministic on rerun
    assert defect == _reflection_defect(perm, jop, j=1, x=perm.forward(y_in), y_in=y_in)


# --- serialization -----------------------------------------------------------


def test_serialization_roundtrip_deterministic_modes():
    jop = build_pseudo_identity(4, 1, a=0.01, b=0.25, seed=9)
    text = serialize_pseudo_identity(jop)
    loaded = parse_pseudo_identity(text)
    assert loaded.bad_set == jop.bad_set
    assert np.array_equal(loaded.cosines, jop.cosines)
    assert serialize_pseudo_identity(loaded) == text
    assert text.splitlines()[-1] == "angles 0"


def test_serialization_roundtrip_random_modes():
    jop = build_pseudo_identity(6, 2, a=1e-3, b=0.25, angle_mode="random",
                                bad_mode="random-angle", seed=21)
    text = serialize_pseudo_identity(jop)
    loaded = parse_pseudo_identity(text)
    assert np.array_equal(loaded.cosines, jop.cosines)
    assert loaded.k == 2 and loaded.seed == 21
    assert serialize_pseudo_identity(loaded) == text


def test_serialization_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pseudo_identity("")
    with pytest.raises(ValueError, match="header"):
        parse_pseudo_identity("1 2 3\n")


def _random_mode_text_with(line_index, replacement):
    jop = build_pseudo_identity(4, 1, a=1e-3, b=0.125, angle_mode="random",
                                bad_mode="random-angle", seed=5)
    lines = serialize_pseudo_identity(jop).splitlines()
    lines[line_index] = replacement
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "line_index,replacement,match",
    [
        (-1, "99 0.5", "out of range"),
        (-1, "-1 0.5", "out of range"),
        (-1, "0 0.5", "twice"),
        (-1, "15", "z cosine"),
        (-1, "15 0.5 extra", "z cosine"),
        (2, "16", "out of range"),
    ],
    ids=["cosine-z-99", "cosine-z-negative", "cosine-z-twice", "cosine-no-value",
         "cosine-extra-token", "bad-set-z-16"],
)
def test_parse_rejects_bad_main_values(line_index, replacement, match):
    with pytest.raises(ValueError, match=match):
        parse_pseudo_identity(_random_mode_text_with(line_index, replacement))


def _edit_last(replacement):
    return lambda lines: lines[:-1] + [replacement(lines[-1])]


# Each edit of a random-angle n=4 file (16 'z cosine' lines, z = 15 last)
# gives back the unedited cosines or is refused with the message. The cosine
# lines are read by numpy's text reader: a decimal z and a float, split by
# spaces or tabs.
@pytest.mark.parametrize(
    "edit,expected",
    [
        (lambda lines: lines, None),
        (_edit_last(lambda line: line.replace(" ", "\t")), None),
        (_edit_last(lambda line: f" +{line}\t "), None),
        (_edit_last(lambda line: line.replace(" ", "\x1f")), None),
        (lambda lines: lines + ["junk", "", "0 7"], None),
        (_edit_last(lambda line: "15"), "z cosine"),
        (_edit_last(lambda line: line + " 0.5"), "z cosine"),
        (_edit_last(lambda line: "15 0x1p-1"), "z cosine"),
        (_edit_last(lambda line: "1_5" + line[2:]), "z cosine"),
        (_edit_last(lambda line: "15 Infinity"), r"\[-1, 1\]"),
        (_edit_last(lambda line: "15 nan"), r"\[-1, 1\]"),
        (_edit_last(lambda line: "15.0 0.5"), "z cosine"),
        (_edit_last(lambda line: "99999999999999999999 0.5"), "z cosine"),
        (_edit_last(lambda line: "16 0.5"), "out of range"),
        (_edit_last(lambda line: "\u0661\u0665" + line[2:]), "ASCII"),
        (_edit_last(lambda line: "0 0.5"), "main value 0 twice"),
        (_edit_last(lambda line: ""), "z cosine"),
        (_edit_last(lambda line: " \t "), "z cosine"),
        (lambda lines: lines[:-9] + [""] + lines[-9:], "z cosine"),
        (lambda lines: lines[:-16] + [""] * 16, "z cosine"),
        (lambda lines: lines[:-16] + [" "] * 16, "z cosine"),
    ],
    ids=["unedited", "tab", "sign-and-spaces", "unit-separator", "trailing-lines", "one-token",
         "three-tokens", "hex-float", "digit-separator", "infinity", "nan", "float-z", "huge-z",
         "z-16", "non-ascii-z", "repeated-z", "blank-line", "whitespace-line",
         "blank-line-then-block-line",
         "all-blank", "all-whitespace"],
)
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_operator_file_parity(edit, expected, eol, recwarn):
    jop = build_pseudo_identity(4, 1, a=1e-3, b=0.125, angle_mode="random",
                                bad_mode="random-angle", seed=5)
    text = eol.join(edit(serialize_pseudo_identity(jop).splitlines())) + eol
    if expected is None:
        assert np.array_equal(parse_pseudo_identity(text).cosines, jop.cosines)
    else:
        with pytest.raises(ValueError, match=expected):
            parse_pseudo_identity(text)
    assert not recwarn.list


def test_writers_match_the_per_value_formulas_at_n16():
    perm = build_permutation("random", 16, seed=3)
    assert permutation_to_text(perm) == "".join(
        [f"n={perm.n}\n", *(f"{int(v)}\n" for v in perm.table)])
    jop = build_pseudo_identity(16, 1, a=1e-3, b=4 / 65536, angle_mode="random",
                                bad_mode="random-angle", seed=7)
    head = f"16 1 0.001 {4 / 65536:.17g} random/random-angle 7\nbad 4\n"
    assert serialize_pseudo_identity(jop) == "".join(
        [head, *(f"{z}\n" for z in jop.bad_set), "angles 65536\n",
         *(f"{z} {jop.cosines[z]:.17g}\n" for z in range(65536))])


@pytest.mark.parametrize("head", ["0 1", "17 1", "40 1", "4 0"])
def test_parse_checks_header_sizes(head):
    with pytest.raises(ValueError, match="header"):
        parse_pseudo_identity(f"{head} 0 0 worst-case/full-rotation -\nbad 0\nangles 0\n")
