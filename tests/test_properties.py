"""Property tests for the three text and config parsers.

Any input either parses into a valid object that survives a round trip
through its serialized form, or raises ValueError; nothing else.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qperminv import parse_pseudo_identity, permutation_from_text, permutation_to_text
from qperminv import serialize_pseudo_identity
from qperminv.harness import validate_sweep_config

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

_junk = st.text(alphabet=" -+.0123456789aenf_x/\t", max_size=6)
_small_int = st.integers(min_value=-3, max_value=20)
_token = st.one_of(_junk, _small_int.map(str),
                   st.sampled_from(["nan", "-inf", "1e999", "4.0", "\u0664", "-0", "+2"]))


@st.composite
def permutation_texts(draw):
    """Valid files, most of them with one of a few kinds of damage."""
    n = draw(st.sampled_from([2, 4]))
    lines = [f"n={n}", *(str(v) for v in draw(st.permutations(range(1 << n))))]
    row = draw(st.integers(1, len(lines) - 1))
    damage = draw(st.integers(0, 6))
    if damage == 1:
        lines[0] = draw(st.sampled_from(["n=", "n= ", "m=", "n"])) + draw(_token)
    elif damage == 2:
        lines[row] = draw(_token)
    elif damage == 3:
        lines[row] = lines[row % (len(lines) - 1) + 1]
    elif damage == 4:
        del lines[row]
    elif damage == 5:
        lines.append(draw(_token))
    return "\n".join(lines) + ("" if damage == 6 else "\n")


@given(st.one_of(st.text(max_size=40), permutation_texts()))
@PROPERTY
def test_permutation_text_parses_or_raises(text):
    try:
        perm = permutation_from_text(text)
    except ValueError:
        return
    assert np.array_equal(np.sort(perm.table), np.arange(1 << perm.n))
    again = permutation_from_text(permutation_to_text(perm))
    assert again.n == perm.n and np.array_equal(again.table, perm.table)


_modes = st.sampled_from(["worst-case/full-rotation", "random/random-angle",
                          "worst-case/random-angle", "random/full-rotation"])


@st.composite
def operator_texts(draw):
    """Valid files, most of them with one of a few kinds of damage."""
    n = draw(st.integers(1, 3))
    size = 1 << n
    a = draw(st.floats(0.0, 1.0))
    bad = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    head = [str(n), str(draw(st.integers(1, 2))), repr(a), repr(len(bad) / size),
            draw(_modes), draw(st.sampled_from(["-", "0", "17"]))]
    cosines = [draw(st.floats(-1.0, 1.0) if z in bad else st.floats(1.0 - a, 1.0))
               for z in range(size)]
    block = [f"{z} {c!r}" for z, c in enumerate(cosines)] if draw(st.booleans()) else []
    damage = draw(st.integers(0, 8))
    if damage == 1:
        head[draw(st.integers(0, 5))] = draw(_token)
    elif damage == 2:
        head = head[:draw(st.integers(0, 5))]
    elif damage == 3 and block:
        block[draw(st.integers(0, size - 1))] = f"{draw(_token)} {draw(_token)}"
    elif damage == 8 and block:
        z = draw(st.integers(0, size - 1))
        block[z] = f"{z} {draw(st.sampled_from(['nan', '-nan', 'inf', '-1.5', '1.0000001']))}"
    elif damage == 4:
        bad.append(draw(st.integers(-1, size)))
    lines = [" ".join(head), f"bad {len(bad)}", *map(str, bad), f"angles {len(block)}", *block]
    if damage == 5:
        lines[1] = f"bad {draw(st.integers(-3 * len(lines), len(bad) + 1))}"
    elif damage == 6:
        lines = lines[:draw(st.integers(0, len(lines) - 1))]
    elif damage == 7:
        lines[-len(block) - 1] = f"angles {draw(st.integers(-3 * len(lines), size + 1))}"
    return "\n".join(lines) + "\n"


@given(st.one_of(st.text(max_size=40), operator_texts()))
@PROPERTY
def test_operator_text_parses_or_raises(text):
    try:
        jop = parse_pseudo_identity(text)
    except ValueError:
        return
    assert np.all(np.isfinite(jop.cosines)) and np.all(np.abs(jop.cosines) <= 1.0 + 1e-12)
    again = parse_pseudo_identity(serialize_pseudo_identity(jop))
    for name in ("n", "k", "a", "b", "bad_set", "bad_mode", "angle_mode", "seed"):
        assert getattr(again, name) == getattr(jop, name), name
    assert np.array_equal(again.cosines, jop.cosines)


_cosines = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-2.3e-308, 2.3e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0 - 2.0**-53,
                     2.0**-53 - 1.0, 1.0, -1.0, 1.0 - 2.0**-52]),
)


@given(st.lists(_cosines, min_size=4, max_size=4), st.sampled_from(["r", ".17g"]))
@PROPERTY
def test_written_cosines_read_back_bit_for_bit(cosines, style):
    """Every z on the bad set, so that any cosine in [-1, 1] is allowed."""
    block = [f"{z} {c!r}" if style == "r" else f"{z} {c:.17g}" for z, c in enumerate(cosines)]
    text = "\n".join(["2 1 0.0 1.0 random/random-angle 3", "bad 4", "0", "1", "2", "3",
                      "angles 4", *block]) + "\n"
    bits = np.array(cosines).view(np.int64)
    jop = parse_pseudo_identity(text)
    assert np.array_equal(jop.cosines.view(np.int64), bits)
    again = parse_pseudo_identity(serialize_pseudo_identity(jop))
    assert np.array_equal(again.cosines.view(np.int64), bits)


_json_scalar = st.one_of(
    st.none(), st.booleans(), _small_int, st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=5),
)
_json_value = st.recursive(
    _json_scalar,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6,
)


_odd_values = st.one_of(_json_value, st.sampled_from([4.0, 1.0, 0.5, -1, True, math.nan,
                                                      math.inf, 2**70, "4"]))
_odd_numbers = st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 0.0, 1.5, 1e308])


@st.composite
def sweep_configs(draw):
    """Valid configs, most of them with one value replaced or a key added or removed."""
    config = {
        "master_seed": draw(st.integers(0, 2**64 - 1)),
        "grid": {
            "n": draw(st.lists(st.sampled_from([2, 4, 6]), max_size=2)),
            "family": draw(st.lists(st.sampled_from(["random", "identity", "affine-gf2"]),
                                    max_size=2)),
            "a": draw(st.lists(st.floats(0.0, 1.0), max_size=2)),
            "bad_size": draw(st.lists(st.integers(0, 5), max_size=2)),
        },
    }
    optional = {
        "k": st.integers(1, 3),
        "perm_seed": st.integers(0, 2**64),
        "j_seed": st.integers(0, 2**64),
        "bad_mode": st.sampled_from(["full-rotation", "random-angle"]),
        "angle_mode": st.sampled_from(["worst-case", "random"]),
        "x_mode": st.one_of(st.just("all"), st.builds(dict, sample=st.integers(1, 9))),
        "exceed_threshold": st.floats(0.01, 10.0),
        "out": st.text(max_size=5),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            config[key] = draw(values)
    damage = draw(st.integers(0, 6))
    if damage == 1:
        config[draw(st.sampled_from(sorted(config)))] = draw(_odd_values)
    elif damage == 2:
        grid = config["grid"]
        key = draw(st.sampled_from(sorted(grid)))
        grid[key] = [*grid[key], draw(_odd_values)]
    elif damage == 3:
        config["x_mode"] = {"sample": draw(_odd_values)}
    elif damage == 4:
        config["exceed_threshold"] = draw(_odd_numbers)
    elif damage == 5:
        config["grid"]["a"].append(draw(_odd_numbers))
    elif damage == 6:
        config[draw(st.sampled_from(["grid", "master_seed", "extra"]))] = draw(_odd_values)
        if draw(st.booleans()):
            del config[draw(st.sampled_from(sorted(config)))]
    return config


def _plain_ints(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@given(st.one_of(_json_value, sweep_configs()))
@PROPERTY
def test_sweep_config_validates_or_raises(config):
    try:
        merged = validate_sweep_config(config)
    except ValueError:
        return
    grid = merged["grid"]
    assert all(_plain_ints(v) for v in (merged["master_seed"], merged["k"],
                                        *grid["n"], *grid["bad_size"]))
    assert all(_plain_ints(merged[key]) for key in ("perm_seed", "j_seed") if key in merged)
    if merged["x_mode"] != "all":
        assert _plain_ints(merged["x_mode"]["sample"])
    assert all(math.isfinite(v) for v in (*grid["a"], merged["exceed_threshold"]))
    assert validate_sweep_config(json.loads(json.dumps(merged))) == merged
