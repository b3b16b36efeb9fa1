"""Fuzz the CLI: every call of `main` on a drawn command line returns 0, 1 or
2 with no exception escaping, and writes to stderr either nothing or one
`error:` line, the latter exactly when it reports a fault.

A command and its flags come from a per-flag grammar of valid, boundary and
malformed values; the permutation, operator and sweep-config files they name
come from the grammars of tests/test_properties.py. The address space is
capped at 1 GiB before qperminv is imported, so a command that allocates
without bound fails with MemoryError here rather than exhausting the host.

Run from an empty scratch directory, which receives every output file:
    PYTHONPATH=src QPERMINV_OUT_DIR=out python <repo>/tests/cli_fuzz.py
"""

import resource

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))

import contextlib  # noqa: E402  (after the cap, which must precede the imports)
import io  # noqa: E402
import json  # noqa: E402

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_properties import operator_texts, permutation_texts, sweep_configs  # noqa: E402

from qperminv.cli import main  # noqa: E402
from qperminv.ops import ANGLE_MODES, BAD_MODES  # noqa: E402
from qperminv.perm import FAMILIES  # noqa: E402

# far out of range or malformed for every integer flag; no command may
# allocate in proportion to one of these
_BAD_INTS = [str(10**20), str(10**400), "1000000000", "-1", "-3", "nan", "inf", "1.5", "", "abc"]


def _ints(*valid: int):
    return [str(v) for v in valid], _BAD_INTS


_FLOATS = (["0", "1e-3", "0.5", "1", "5e-324"],
           ["2", "-0.1", "nan", "inf", "-inf", "1e400", "abc", ""])
_NAMES = ["bogus", ""]
# flag -> (valid values, boundary and malformed values); a valid --n is at
# most 8 and a valid --count at most 50, so that every run stays small
VALUES = {
    "--n": _ints(2, 4, 6, 8),
    "--seed": _ints(0, 7, 2**64),
    "--mask": _ints(0, 3, 255, 256),
    "--k": _ints(0, 1, 2, 3, 26, 40),
    "--count": _ints(1, 7, 50),
    "--master-seed": _ints(0, 5, 2**64 - 1, 2**64),
    "--j-seed": _ints(0, 3),
    "--bad-size": _ints(0, 1, 4, 16, 17, 256, 257),
    "--corrupt-stage": _ints(0, 1, 3, 4),
    "--workers": _ints(1, 3),
    "--a": _FLOATS, "--b": _FLOATS, "--threshold": _FLOATS,
    "--r": (["1", "2.5", "1e3"], ["0.5", "nan", "inf", "-inf", "1e200", "abc", ""]),
    "--x": (["all", "sample:3", f"sample:{10**20}", "0,1,3", "3,3,1", "255"],
            ["sample:0", "sample:abc", "1,x", "256", "-1", ""]),
    "--family": (list(FAMILIES), _NAMES),
    "--bad-mode": (list(BAD_MODES), _NAMES),
    "--angle-mode": (list(ANGLE_MODES), _NAMES),
    "--provider": (["exact", "pseudo", "corrupted"], _NAMES),
    "--perm-file": (["perm.txt"], ["missing.txt", "."]),
    "--j-file": (["op.txt"], ["missing.txt", "."]),
    "--config": (["sweep.json"], ["missing.json", "."]),
    "--out": (["o.csv", "sub/o.json"], [".", "blocker", "blocker/o.csv"]),
    "--out-dir": (["od"], ["blocker"]),
}
_PERM = ["--perm-file", "--family", "--n", "--seed", "--mask"]
_OPERATOR = ["--a", "--b", "--bad-size", "--bad-mode", "--angle-mode", "--j-seed", "--j-file"]
_RUN = [*_PERM, "--k", "--x", "--threshold", "--master-seed", "--workers", "--out", "--out-dir"]
COMMANDS = {
    "gen-perm": ["--family", "--n", "--seed", "--mask", "--out", "--out-dir"],
    "run-inv": _RUN,
    "run-avinv": [*_RUN, *_OPERATOR],
    "check-lemmas": ["--n", "--count", "--seed", "--k", "--out"],
    "test-stages": [*_PERM, "--provider", "--corrupt-stage", *_OPERATOR, "--k", "--x",
                    "--threshold", "--master-seed", "--out"],
    "sweep": ["--config", "--workers", "--out", "--out-dir"],
    "params": ["--r", "--n"],
}
# given in most draws, so that most command lines get past argparse
_SOURCE = [["--family", "--n"], ["--perm-file"]]
USUAL = {"gen-perm": [["--family", "--n"]], "run-inv": _SOURCE, "run-avinv": _SOURCE,
         "test-stages": _SOURCE, "sweep": [["--config"]], "params": [["--r", "--n"]],
         "check-lemmas": [[]]}


def _config_text(config) -> str:
    if isinstance(config, dict) and isinstance(config.get("out"), str):
        config["out"] = "o/" + config["out"]  # stays under the working directory
    return json.dumps(config)


FILES = {
    "perm.txt": st.one_of(st.text(max_size=40), permutation_texts()),
    "op.txt": st.one_of(st.text(max_size=40), operator_texts()),
    "sweep.json": sweep_configs().map(_config_text),
}


@st.composite
def command_lines(draw):
    """A command with flags of valid values, most often with one of them
    replaced by a boundary or malformed value, now and then with a required
    flag left out or an unknown one added."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = draw(st.lists(st.sampled_from(COMMANDS[command]), unique=True, max_size=5))
    # Hypothesis favours the ends of a range, so a rare branch takes a middle value
    if draw(st.integers(0, 7)) != 3:
        flags = list(dict.fromkeys([*flags, *draw(st.sampled_from(USUAL[command]))]))
    values = [draw(st.sampled_from(VALUES[flag][0])) for flag in flags]
    if values and draw(st.integers(0, 2)) != 1:
        i = draw(st.integers(0, len(values) - 1))
        values[i] = draw(st.sampled_from(VALUES[flags[i]][1]))
    argv = [command, *(token for pair in zip(flags, values) for token in pair)]
    if command.startswith("run-") and draw(st.booleans()):
        argv.append("--no-trace")
    if draw(st.integers(0, 15)) == 7:
        argv += ["--bogus", "1"]
    files = {name: draw(FILES[name]) for name in FILES if name in argv}
    return argv, files


def _write(path: str, text: str) -> None:
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8", "surrogatepass"))


@settings(max_examples=2000, deadline=None, derandomize=True, database=None,
          suppress_health_check=list(HealthCheck))
@given(command_lines())
def fuzz_main(line):
    argv, files = line
    for name, text in files.items():
        _write(name, text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert err == "" or (err.startswith("error:") and err.count("\n") == 1
                         and err.endswith("\n")), (argv, err)
    # a fault prints its error line; a failed stage or bound (exit 1) prints
    # its report or output path instead
    assert bool(err) == (code == 2 or (code == 1 and not out.getvalue())), (argv, code, err)


if __name__ == "__main__":
    _write("blocker", "taken\n")
    fuzz_main()
