"""Golden outputs: command lines whose exit code, stdout, stderr and written
files are pinned in `golden.json`, beside this file.

`record` runs every call in process through `cli.main`, in one working
directory, with relative paths and QPERMINV_OUT_DIR unset, so that no output
holds its own path. A call's files are those it created or replaced, each
pinned by its sha256, manifests included. `test_golden.py` compares a fresh
record with `golden.json`; a change that moves an output rewrites the file
with

    PYTHONPATH=src python tests/golden.py --update

and lists each moved call. The digests hold for one numpy version, which
`golden.json` records.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from qperminv.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

FAMILIES = ("identity", "bit-reversal", "xor-mask", "affine-gf2", "random")
MODES = [(angle, bad) for angle in ("worst-case", "random")
         for bad in ("full-rotation", "random-angle")]


def _sweep(x_mode, bad_size=(0, 2)) -> str:
    grid = {"n": [4, 6], "family": list(FAMILIES), "a": [0.0, 1e-3], "bad_size": list(bad_size)}
    return json.dumps({"master_seed": 11, "grid": grid, "x_mode": x_mode})


# Inputs written into the working directory before the first call. The
# refused ones are cases of REFUSED_INPUTS in test_harness.py.
_OPERATOR = "4 1 0.001 0.125 worst-case/full-rotation 3\nbad 2\n11\n15\nangles 0\n"
INPUTS = {
    "op4.txt": _OPERATOR,
    "sweep-all.json": _sweep("all"),
    "sweep-sample.json": _sweep({"sample": 5}),
    "refused-perm-n-separator.txt": "n=0_4\n" + "".join(f"{y}\n" for y in range(16)),
    "refused-op-n-odd.txt": _OPERATOR.replace("4 1 ", "3 1 "),
    "refused-op-unknown-angle-mode.txt": _OPERATOR.replace("worst-case/", "bogus/"),
    "refused-sweep-bad-size.json": json.dumps(
        {"master_seed": 5, "grid": {"n": [2], "family": ["random"], "a": [0.0], "bad_size": [5]}}),
}

_AVINV = ["run-avinv", "--family", "random", "--n", "8", "--seed", "3", "--a", "1e-3",
          "--bad-size", "4", "--j-seed", "7", "--x", "sample:20"]
_STAGES = ["test-stages", "--family", "random", "--n", "6", "--seed", "4"]
CALLS = [
    ["params", "--r", "1", "--n", "4"],
    ["params", "--r", "3.5", "--n", "16"],
    ["check-lemmas"],
    *[["check-lemmas", "--n", "8", "--count", "10000", "--seed", str(seed),
       "--out", f"lemmas-n8-s{seed}.json"] for seed in range(3)],
    ["check-lemmas", "--n", "16", "--count", "200", "--out", "lemmas-n16.json"],
    ["check-lemmas", "--n", "2", "--count", "2000"],
    *[["gen-perm", "--family", family, "--n", str(n), "--seed", "3"]
      for family in FAMILIES for n in (2, 8, 14)],
    ["gen-perm", "--family", "random", "--n", "4", "--seed", "9", "--out", "perm4.txt"],
    ["run-inv", "--family", "random", "--n", "8", "--seed", "3", "--out", "inv-flags.csv"],
    ["run-inv", "--perm-file", "perm-random-n8-s3.txt", "--no-trace", "--out", "inv-file.csv"],
    ["run-inv", "--family", "xor-mask", "--n", "6", "--mask", "5", "--x", "0,3,9,3",
     "--k", "1", "--out-dir", "inv-dir"],
    *[[*_AVINV, "--angle-mode", angle, "--bad-mode", bad, "--out", f"avinv-{angle}-{bad}.csv"]
      for angle, bad in MODES],
    [*_AVINV, "--no-trace", "--out", "avinv-untraced.csv"],
    ["run-avinv", "--perm-file", "perm4.txt", "--j-file", "op4.txt", "--out", "avinv-file.csv"],
    ["run-avinv", "--perm-file", "perm4.txt", "--j-file", "op4.txt", "--no-trace",
     "--out-dir", "avinv-dir"],
    ["run-avinv", "--family", "random", "--n", "16", "--seed", "5", "--a", "1e-3",
     "--bad-size", "4", "--x", "all", "--out", "avinv-n16.csv"],
    _STAGES,
    [*_STAGES, "--provider", "pseudo", "--a", "1e-3", "--bad-size", "2",
     "--out", "stages-pseudo.json"],
    [*_STAGES, "--provider", "corrupted", "--corrupt-stage", "1", "--out", "stages-corrupted.json"],
    ["sweep", "--config", "sweep-all.json", "--out", "sweep-all.csv"],
    ["sweep", "--config", "sweep-sample.json", "--out-dir", "sweep-dir"],
    ["gen-perm", "--family", "identity", "--n", "3"],
    ["check-lemmas", "--n", "18"],
    ["run-inv", "--perm-file", "refused-perm-n-separator.txt", "--out", "refused.csv"],
    *[["run-avinv", "--family", "random", "--n", "4", "--j-file", name, "--out", "refused.csv"]
      for name in ("refused-op-n-odd.txt", "refused-op-unknown-angle-mode.txt")],
    ["sweep", "--config", "refused-sweep-bad-size.json", "--out", "refused.csv"],
]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    """perfbench/workloads.py, loaded as test_benchmark_targets.py loads it:
    without writing bytecode, and with its reference as the module
    `reference`, both undone afterwards."""
    saved = sys.dont_write_bytecode, sys.modules.get("reference")
    sys.dont_write_bytecode = True
    try:
        sys.modules["reference"] = _load("reference", PERFBENCH / "reference.py")
        return _load("perfbench_workloads", PERFBENCH / "workloads.py").WORKLOADS
    finally:
        sys.dont_write_bytecode = saved[0]
        if saved[1] is None:
            sys.modules.pop("reference", None)
        else:
            sys.modules["reference"] = saved[1]


def _benchmark_calls() -> list[list[str]]:
    """Each benchmark workload's argv at seeds 0 and 1, its inputs written
    under the working directory."""
    calls = []
    for name, workload in _workloads().items():
        for seed in (0, 1):
            where = Path(f"bench-{name}-s{seed}")
            where.mkdir()
            calls.append(workload.argv(workload.write_inputs(where, seed), where))
    return calls


def _files() -> dict[str, tuple[int, int]]:
    """Every file under the working directory, by relative path, with its
    inode and mtime: a file written by replacement gets a new inode."""
    found = {}
    for root, _, names in os.walk("."):
        for name in names:
            path = os.path.join(root, name)
            stat = os.stat(path)
            found[Path(path).as_posix()] = (stat.st_ino, stat.st_mtime_ns)
    return found


def _run(argv: list[str]) -> dict:
    before = _files()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = {path: "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for path, stat in sorted(_files().items()) if before.get(path) != stat}
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": written}


def record(workdir) -> dict:
    """Write the inputs into `workdir` and run every call there in turn;
    the record that `golden.json` holds."""
    cwd, env = os.getcwd(), os.environ.pop("QPERMINV_OUT_DIR", None)
    os.chdir(workdir)
    try:
        for name, text in INPUTS.items():
            Path(name).write_text(text, encoding="utf-8")
        calls = [_run(argv) for argv in [*_benchmark_calls(), *CALLS]]
    finally:
        os.chdir(cwd)
        if env is not None:
            os.environ["QPERMINV_OUT_DIR"] = env
    return {"numpy": np.__version__, "calls": calls}


def moved(want: dict, got: dict) -> list[str]:
    """One line per call whose record differs, naming what moved."""
    lines = []
    if len(want["calls"]) != len(got["calls"]):
        lines.append(f"{len(got['calls'])} calls, golden has {len(want['calls'])}")
    for old, new in zip(want["calls"], got["calls"]):
        fields = [key for key in ("argv", "exit", "stdout", "stderr") if old[key] != new[key]]
        fields += [f"file {path}" for path in sorted(old["files"].keys() | new["files"].keys())
                   if old["files"].get(path) != new["files"].get(path)]
        if fields:
            lines.append(f"{' '.join(new['argv'])}: {', '.join(fields)} moved")
    return lines


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/golden.py --update")
    with tempfile.TemporaryDirectory() as tmp:
        result = record(tmp)
    GOLDEN.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(result['calls'])} calls to {GOLDEN}")
